package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/sql"
	"repro/internal/subtuple"
)

// --- soundness of the pushed pre-test -------------------------------------

// genKindsType builds a random nested type whose levels carry every
// atomic kind; the first attribute of every level is an INT named
// <prefix>A0.
func genKindsType(rnd *rand.Rand, depth int, prefix string) *model.TableType {
	kinds := []model.Kind{model.KindInt, model.KindFloat, model.KindString, model.KindBool, model.KindTime}
	attrs := []model.Attr{{Name: prefix + "A0", Type: model.AtomicType(model.KindInt)}}
	for i := 1; i <= 1+rnd.Intn(4); i++ {
		attrs = append(attrs, model.Attr{Name: fmt.Sprintf("%sA%d", prefix, i), Type: model.AtomicType(kinds[rnd.Intn(len(kinds))])})
	}
	for i := 0; depth > 0 && i < 1+rnd.Intn(2); i++ {
		sub := genKindsType(rnd, depth-1-rnd.Intn(depth), fmt.Sprintf("%sS%d", prefix, i))
		sub.Ordered = rnd.Intn(3) == 0
		attrs = append(attrs, model.Attr{Name: fmt.Sprintf("%sS%d", prefix, i), Type: model.Type{Kind: model.KindTable, Table: sub}})
	}
	// Shuffle the atoms among the subtables so atom positions and
	// attribute positions differ.
	rnd.Shuffle(len(attrs)-1, func(i, j int) { attrs[i+1], attrs[j+1] = attrs[j+1], attrs[i+1] })
	tt, err := model.NewTableType(false, attrs...)
	if err != nil {
		panic(err)
	}
	return tt
}

var kindStrings = []string{"", "a", "abc", "Abc def", "v1", "v12 x", "é Élan", "zz", "it's"}

// genKindsAtom draws a non-null value of kind k: small numbers that
// collide with the literals, some past the range Go boxes for free, an
// occasional NaN, strings with spaces, accents and quotes.
func genKindsAtom(rnd *rand.Rand, k model.Kind) model.Value {
	switch k {
	case model.KindInt:
		if rnd.Intn(5) == 0 {
			return model.Int(300 + rnd.Intn(10))
		}
		return model.Int(rnd.Intn(12) - 3)
	case model.KindFloat:
		if rnd.Intn(20) == 0 {
			return model.Float(math.NaN())
		}
		return model.Float(float64(rnd.Intn(12)-3) / 2)
	case model.KindString:
		return model.Str(kindStrings[rnd.Intn(len(kindStrings))])
	case model.KindBool:
		return model.Bool(rnd.Intn(2) == 0)
	}
	return model.Time(rnd.Intn(1000))
}

// genKindsTuple builds a random tuple of tt: nulls, empty subtables and,
// when big, a root string long enough to spill into an overflow chain.
func genKindsTuple(rnd *rand.Rand, tt *model.TableType, big bool) model.Tuple {
	tup := make(model.Tuple, len(tt.Attrs))
	for i, a := range tt.Attrs {
		switch {
		case a.Type.Kind == model.KindTable:
			sub := &model.Table{Ordered: a.Type.Table.Ordered}
			for j := rnd.Intn(4); j > 0; j-- {
				sub.Append(genKindsTuple(rnd, a.Type.Table, false))
			}
			tup[i] = sub
		case rnd.Intn(8) == 0:
			tup[i] = model.Null{}
		case big && a.Type.Kind == model.KindString:
			tup[i] = model.Str("abc " + strings.Repeat("x", 3*page.Size))
		default:
			tup[i] = genKindsAtom(rnd, a.Type.Kind)
		}
	}
	return tup
}

// predGen draws random WHERE predicates that compile into pre-tests:
// comparisons with literals of every kind the attribute accepts (Int
// against Float included, the literal on either side), CONTAINS,
// AND/OR/NOT, and EXISTS/ALL over subtables, nested.
type predGen struct {
	rnd  *rand.Rand
	vars int
}

func (g *predGen) pred(v string, tt *model.TableType, depth int) string {
	r := g.rnd.Intn(10)
	switch {
	case depth > 0 && r < 2:
		op := []string{"AND", "OR"}[g.rnd.Intn(2)]
		return "(" + g.pred(v, tt, depth-1) + " " + op + " " + g.pred(v, tt, depth-1) + ")"
	case depth > 0 && r < 3:
		return "NOT (" + g.pred(v, tt, depth-1) + ")"
	case depth > 0 && r < 6 && len(tt.TableIndexes()) > 0:
		ti := tt.TableIndexes()[g.rnd.Intn(len(tt.TableIndexes()))]
		g.vars++
		q := fmt.Sprintf("q%d", g.vars)
		kw := []string{"EXISTS", "ALL"}[g.rnd.Intn(2)]
		return fmt.Sprintf("(%s %s IN %s.%s: (%s))", kw, q, v, tt.Attrs[ti].Name, g.pred(q, tt.Attrs[ti].Type.Table, depth-1))
	}
	var atoms []model.Attr
	for _, ai := range tt.AtomicIndexes() {
		if k := tt.Attrs[ai].Type.Kind; k != model.KindTime {
			atoms = append(atoms, tt.Attrs[ai])
		}
	}
	a := atoms[g.rnd.Intn(len(atoms))]
	path := v + "." + a.Name
	if a.Type.Kind == model.KindString && g.rnd.Intn(3) == 0 {
		masks := []string{"*a*", "abc", "*def", "v?", "*é*", "*", "?", "x*", "*z*", "élan"}
		return path + " CONTAINS '" + masks[g.rnd.Intn(len(masks))] + "'"
	}
	op := []string{"=", "<>", "<", "<=", ">", ">="}[g.rnd.Intn(6)]
	lit := g.literal(a.Type.Kind)
	if g.rnd.Intn(3) == 0 {
		return lit + " " + op + " " + path
	}
	return path + " " + op + " " + lit
}

// literal renders a non-null literal model.Compare accepts against an
// attribute of kind k.
func (g *predGen) literal(k model.Kind) string {
	switch k {
	case model.KindInt, model.KindFloat:
		if g.rnd.Intn(2) == 0 {
			return fmt.Sprint(g.rnd.Intn(12) - 3)
		}
		return fmt.Sprintf("%.1f", float64(g.rnd.Intn(12)-3)/2)
	case model.KindString:
		return "'" + strings.ReplaceAll(kindStrings[g.rnd.Intn(len(kindStrings))], "'", "''") + "'"
	}
	return []string{"TRUE", "FALSE"}[g.rnd.Intn(2)]
}

// TestPreTestSoundAndExact is the soundness property of the pushed
// pre-test. Over random nested schemas with every atom kind, under SS1,
// SS2 and SS3, with nulls, NaNs, empty strings, empty subtables,
// overflow-chain records and data subtuples written before an ALTER
// TABLE ADD, and for random predicates that compile:
//
//   - an object the pre-test rejects, read now or as of an earlier
//     instant, is not in the result the full evaluation returns;
//   - pushed execution returns exactly what FullPaths execution returns,
//     rows and errors, through scans (current and ASOF), index
//     candidates, stored-table quantifiers (EXISTS and ALL), and the
//     FROM lists of UPDATE and DELETE, auto-commit and in a transaction.
func TestPreTestSoundAndExact(t *testing.T) {
	rejected := 0
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		rnd := rand.New(rand.NewSource(int64(layout) * 104729))
		for round := 0; round < 4; round++ {
			rejected += preTestRound(t, rnd, layout, round)
		}
	}
	if rejected < 100 {
		t.Errorf("the pre-test rejected only %d objects: the property barely ran", rejected)
	}
	t.Logf("the pre-test rejected %d objects", rejected)
}

func preTestRound(t *testing.T, rnd *rand.Rand, layout object.Layout, round int) int {
	name := fmt.Sprintf("%s round %d", layout, round)
	db, err := Open(Options{DefaultLayout: layout})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tt := genKindsType(rnd, 2, "")
	if err := db.CreateTable("T", tt, TableOptions{Versioned: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE U (ID INT); INSERT INTO U VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		t.Helper()
		tbl, _ := db.cat.Table("T")
		for i := 0; i < n; i++ {
			if err := db.Insert("T", genKindsTuple(rnd, tbl.Type, rnd.Intn(6) == 0)); err != nil {
				t.Fatalf("%s: insert: %v", name, err)
			}
		}
	}
	insert(8)
	// Short payloads: the objects above lack the attributes added now.
	if err := db.AlterTableAdd("T", []string{"NEW"}, model.AtomicType(model.KindInt)); err != nil {
		t.Fatal(err)
	}
	sub := tt.Attrs[tt.TableIndexes()[0]]
	if err := db.AlterTableAdd("T", []string{sub.Name, "NEWS"}, model.AtomicType(model.KindString)); err != nil {
		t.Fatal(err)
	}
	insert(8)
	asof := db.Now()
	if _, err := db.Exec(`UPDATE x IN T SET A0 = x.A0 + 1 WHERE x.A0 < 4; CREATE INDEX TA0 ON T (A0)`); err != nil {
		t.Fatal(err)
	}
	insert(4)
	tbl, _ := db.cat.Table("T")
	tt = tbl.Type

	// exec1 executes one statement, auto-commit or in a transaction it
	// rolls back.
	exec1 := func(q string, inTxn bool) (Result, error) {
		t.Helper()
		if !inTxn {
			return db.ExecStmtContext(context.Background(), mustStmt(t, q))
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		res, err := tx.Exec(q)
		if err != nil {
			return Result{}, err
		}
		return res[0], nil
	}
	// compare executes two statements, or one pushed (b) and under
	// FullPaths (a), and fails unless both return the same.
	compare := func(a, b string, inTxn bool) {
		t.Helper()
		var out [2]Result
		var errs [2]error
		for i, q := range []string{a, b} {
			db.exec.FullPaths = a == b && i == 0
			out[i], errs[i] = exec1(q, inTxn)
		}
		db.exec.FullPaths = false
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("%s: %s\nvs %s\n%v\nvs %v", name, b, a, errs[1], errs[0])
		}
		if out[0].Count != out[1].Count || (out[0].Table != nil && !model.TableEqual(out[0].Table, out[1].Table)) {
			t.Fatalf("%s: %s (schema %s)\ndiffers from %s:\n%v\nvs\n%v", name, b, tt, a, out[1].Table, out[0].Table)
		}
		if n := db.pool.PinnedCount(); n != 0 {
			t.Fatalf("%s: %s: %d pages pinned", name, b, n)
		}
	}
	// run executes one statement pushed and under FullPaths and compares.
	run := func(q string, inTxn bool) { t.Helper(); compare(q, q, inTxn) }

	rejected := 0
	g := &predGen{rnd: rnd}
	for i := 0; i < 12; i++ {
		p := g.pred("x", tt, 3)
		k := rnd.Intn(8)
		for _, q := range []string{
			`SELECT * FROM x IN T WHERE ` + p,
			`SELECT x.A0 FROM x IN T WHERE x.A0 = x.A0 AND ` + p,
			fmt.Sprintf(`SELECT * FROM x IN T ASOF %d WHERE %s`, asof, p),
			fmt.Sprintf(`SELECT x.A0, x.NEW FROM x IN T WHERE x.A0 = %d AND %s`, k, p),
			`SELECT u.ID FROM u IN U WHERE EXISTS x IN T: (` + p + `)`,
			`SELECT u.ID FROM u IN U WHERE ALL x IN T: (` + p + `)`,
		} {
			run(q, false)
			run(q, true)
		}
		for _, q := range []string{
			`UPDATE x IN T SET A0 = x.A0 WHERE ` + p,
			fmt.Sprintf(`DELETE y FROM x IN T, y IN x.%s WHERE %s`, sub.Name, p),
			fmt.Sprintf(`DELETE x FROM x IN T WHERE x.A0 = %d AND %s`, k, p),
		} {
			run(q, true)
		}
		run(`UPDATE x IN T SET A0 = x.A0 WHERE `+p, false)
		// Every subtable projected whole, which the row takes as fetched,
		// then a near-identity shape, which is rebuilt: each equals its
		// twin, rebuilt by a WHERE that every member passes.
		for _, mode := range []string{"", nearIdentity[i%len(nearIdentity)]} {
			for _, from := range []string{`T`, fmt.Sprintf(`T ASOF %d`, asof)} {
				q, twin := subtableSelect(tt, from, p, mode, false), subtableSelect(tt, from, p, mode, true)
				for _, inTxn := range []bool{false, true} {
					run(q, inTxn)
					compare(twin, q, inTxn)
				}
			}
		}
		rejected += checkRejections(t, db, name, `SELECT * FROM x IN T WHERE `+p, 0)
		rejected += checkRejections(t, db, name, fmt.Sprintf(`SELECT * FROM x IN T ASOF %d WHERE %s`, asof, p), asof)
	}
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("%s: quarantined %v", name, q)
	}
	return rejected
}

// nearIdentity lists the ways subtableSelect departs from projecting a
// subtable whole: a subset of its attributes, reordered, one renamed, a
// WHERE, DISTINCT and ORDER BY.
var nearIdentity = []string{"subset", "reorder", "rename", "where", "distinct", "order"}

// subtableSelect renders a SELECT of x.A0 and every subtable of tt over
// the FROM source from and WHERE p, each subtable as a sub-block that
// projects it whole, at every level. mode alters the first level of each
// (nearIdentity; "" alters nothing); twin adds to every level a WHERE
// that holds for every member, which makes the executor rebuild what it
// would otherwise take as fetched.
func subtableSelect(tt *model.TableType, from, p, mode string, twin bool) string {
	items := []string{"x.A0"}
	for _, ti := range tt.TableIndexes() {
		items = append(items, subtableBlock("x", tt.Attrs[ti].Name, tt.Attrs[ti].Type.Table, 1, mode, twin))
	}
	return `SELECT ` + strings.Join(items, ", ") + ` FROM x IN ` + from + ` WHERE ` + p
}

func subtableBlock(outer, name string, mt *model.TableType, depth int, mode string, twin bool) string {
	v := fmt.Sprintf("v%d", depth)
	var items []string
	for _, a := range mt.Attrs {
		if a.Type.Kind == model.KindTable {
			items = append(items, subtableBlock(v, a.Name, a.Type.Table, depth+1, "", twin))
		} else {
			items = append(items, v+"."+a.Name)
		}
	}
	// The first attribute of every level is its INT A0 (genKindsType).
	a0 := items[0]
	var distinct, where, order string
	switch mode {
	case "subset":
		items = items[:len(items)-1]
	case "reorder":
		slices.Reverse(items)
	case "rename":
		items[0] += " AS RENAMED"
	case "where":
		where = " WHERE " + a0 + " >= 0"
	case "distinct":
		distinct = "DISTINCT "
	case "order":
		order = " ORDER BY " + a0 + " DESC"
	}
	if twin && where == "" {
		where = " WHERE TRUE"
	} else if twin {
		where += " AND TRUE"
	}
	return fmt.Sprintf("%s = (SELECT %s%s FROM %s IN %s.%s%s%s)", name, distinct, strings.Join(items, ", "), v, outer, name, where, order)
}

// rootPaths returns the fetch set and pre-test q binds for its first FROM
// item.
func rootPaths(t *testing.T, db *DB, q string) *object.PathSet {
	t.Helper()
	blk, err := db.exec.Bind(mustStmt(t, q).Statement)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return blk.Paths[0]
}

func mustStmt(t *testing.T, q string) sql.Stmt {
	t.Helper()
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return st
}

// checkRejections reads every object of T through the pre-test the
// planner pushes for q (a SELECT * with a WHERE) and checks that each
// object it rejects is absent from q's full evaluation. It returns how
// many objects were rejected.
func checkRejections(t *testing.T, db *DB, name, q string, asof int64) int {
	t.Helper()
	ps := rootPaths(t, db, q)
	if ps == nil || ps.Test == nil {
		t.Fatalf("%s: %s: no pre-test pushed", name, q)
	}
	db.exec.FullPaths = true
	want, _, err := db.Query(q)
	db.exec.FullPaths = false
	if err != nil {
		t.Fatalf("%s: %s: %v", name, q, err)
	}
	in := map[string]bool{}
	for _, tup := range want.Tuples {
		in[model.CanonicalTuple(tup)] = true
	}
	tbl, _ := db.cat.Table("T")
	refs, err := db.Refs("T")
	if err != nil {
		t.Fatal(err)
	}
	m := db.mgrs["T"]
	rejected := 0
	for _, ref := range refs {
		got, err := m.ReadPruned(tbl.Type, ref, asof, ps)
		if asof != 0 && errors.Is(err, subtuple.ErrNotFound) {
			continue // inserted after the instant
		}
		if err != nil {
			t.Fatalf("%s: %s: pre-tested read of %v: %v", name, q, ref, err)
		}
		if got != nil {
			continue
		}
		rejected++
		whole, err := m.ReadPruned(tbl.Type, ref, asof, nil)
		if err != nil {
			t.Fatal(err)
		}
		if in[model.CanonicalTuple(whole)] {
			t.Fatalf("%s: %s\npre-test %s rejected %v, which satisfies the WHERE", name, q, ps.Test, whole)
		}
	}
	return rejected
}

// --- the transaction overlay ------------------------------------------

// TestPreTestSeesTransactionOverlay: a transaction's buffered image
// replaces the stored version of an object it wrote, but only for refs
// the stored cursor yields. An object whose stored version fails the
// pushed pre-test must still reach the overlay — inside a Txn and inside
// a Session's BEGIN … COMMIT — so that an object updated to satisfy the
// WHERE is returned and one updated to fail it disappears. A rejection
// is neither "not found" nor corruption: nothing is quarantined.
func TestPreTestSeesTransactionOverlay(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ddl := `CREATE TABLE D (K INT, NOTE STRING, S TABLE OF (V INT, W STRING))`
		if versioned {
			ddl += ` VERSIONED`
		}
		if _, err := db.Exec(ddl + `;
INSERT INTO D VALUES (1, 'hit', {(1, 'a')});
INSERT INTO D VALUES (2, 'miss', {(1, 'a')});
INSERT INTO D VALUES (3, 'miss', {(1, 'a')})`); err != nil {
			t.Fatal(err)
		}
		const byNote = `SELECT x.K FROM x IN D WHERE x.NOTE = 'hit'`
		const byMember = `SELECT x.K FROM x IN D WHERE EXISTS y IN x.S: y.W = 'hit'`
		if lines, _ := db.Exec(`EXPLAIN ` + byMember); !strings.Contains(lines[0].Message, "test EXISTS S (W = 'hit')") {
			t.Fatalf("the member predicate is not pushed:\n%s", lines[0].Message)
		}
		keys := func(tbl *model.Table) string {
			var ks []string
			for _, tup := range tbl.Tuples {
				ks = append(ks, tup[0].String())
			}
			return strings.Join(ks, ",")
		}
		writes := `UPDATE x IN D SET NOTE = 'hit' WHERE x.K = 2;
UPDATE x IN D SET NOTE = 'miss' WHERE x.K = 1;
INSERT INTO x.S FROM x IN D WHERE x.K = 3 VALUES (2, 'hit')`

		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(writes); err != nil {
			t.Fatal(err)
		}
		for q, want := range map[string]string{byNote: "2", byMember: "3"} {
			got, _, err := tx.Query(q)
			if err != nil || keys(got) != want {
				t.Errorf("versioned=%v: in a Txn, %s = %v, %v; want %s", versioned, q, got, err, want)
			}
			if got, _, _ := db.Query(q); keys(got) != map[string]string{byNote: "1", byMember: ""}[q] {
				t.Errorf("versioned=%v: outside the Txn, %s = %v", versioned, q, got)
			}
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}

		s := db.NewSession()
		script := func(text string) []Result {
			t.Helper()
			res, err := s.ExecScript(context.Background(), text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			return res
		}
		script(`BEGIN; ` + writes)
		for q, want := range map[string]string{byNote: "2", byMember: "3"} {
			if res := script(q); keys(res[0].Table) != want {
				t.Errorf("versioned=%v: in BEGIN … COMMIT, %s = %v; want %s", versioned, q, res[0].Table, want)
			}
		}
		script(`COMMIT`)
		for q, want := range map[string]string{byNote: "2", byMember: "3"} {
			if got, _, err := db.Query(q); err != nil || keys(got) != want {
				t.Errorf("versioned=%v: after COMMIT, %s = %v, %v; want %s", versioned, q, got, err, want)
			}
		}
		s.Close()

		// A candidate the pre-test rejects comes back as a nil tuple, not
		// as ErrNotFound or corruption.
		tbl, _ := db.cat.Table("D")
		refs, _ := db.Refs("D")
		ps := rootPaths(t, db, byNote)
		for _, ref := range refs {
			if tup, err := db.Runtime().OpenRef(tbl, ref, 0, ps); err != nil {
				t.Errorf("OpenRef through a pre-test = %v", err)
			} else if tup == nil && ref == refs[1] {
				t.Errorf("object 2 now satisfies the pre-test, but OpenRef rejected it")
			}
		}
		if q := db.Quarantined(); len(q) != 0 {
			t.Fatalf("quarantined: %v", q)
		}
		db.Close()
	}
}
