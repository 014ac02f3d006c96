package exec_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/sql"
	"repro/internal/testdata"
	"repro/internal/tname"
)

func openDB(t testing.TB) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Departments().Tuples {
		if err := db.Insert("DEPARTMENTS", tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateTable("REPORTS", testdata.ReportsType(), engine.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Reports().Tuples {
		if err := db.Insert("REPORTS", tup); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func one(t *testing.T, db *engine.DB, q string) model.Value {
	t.Helper()
	tbl, _, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if tbl.Len() != 1 || len(tbl.Tuples[0]) != 1 {
		t.Fatalf("%s: expected one value, got %v", q, tbl)
	}
	return tbl.Tuples[0][0]
}

func TestArithmetic(t *testing.T) {
	db := openDB(t)
	cases := []struct {
		expr string
		want model.Value
	}{
		{`1 + 2 * 3`, model.Int(7)},
		{`(1 + 2) * 3`, model.Int(9)},
		{`7 / 2`, model.Int(3)},
		{`7.0 / 2`, model.Float(3.5)},
		{`x.BUDGET / 1000`, model.Int(320)},
		{`x.BUDGET - x.BUDGET`, model.Int(0)},
		{`-x.DNO`, model.Int(-314)},
		{`1.5 + 1`, model.Float(2.5)},
		{`'a' + 'b'`, model.Str("ab")},
	}
	for _, c := range cases {
		got := one(t, db, `SELECT `+c.expr+` FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
		if !model.AtomEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	if _, _, err := db.Query(`SELECT 1/0 FROM x IN DEPARTMENTS`); err == nil {
		t.Error("division by zero succeeded")
	}
	if _, _, err := db.Query(`SELECT 1 + 'x' FROM x IN DEPARTMENTS`); err == nil {
		t.Error("int + string succeeded")
	}
}

func TestNullSemantics(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE N (A INT, B STRING); INSERT INTO N VALUES (1, NULL), (NULL, 'x');`); err != nil {
		t.Fatal(err)
	}
	// Null comparisons are false, so neither = nor <> matches null.
	tbl, _, err := db.Query(`SELECT n.A FROM n IN N WHERE n.B = 'x'`)
	if err != nil || tbl.Len() != 1 {
		t.Fatalf("B='x': %v, %v", tbl, err)
	}
	tbl, _, _ = db.Query(`SELECT n.A FROM n IN N WHERE n.B <> 'x'`)
	if tbl.Len() != 0 {
		t.Errorf("B<>'x' matched null row: %v", tbl)
	}
	// Arithmetic over null yields null; nulls project through.
	tbl, _, err = db.Query(`SELECT n.A + 1 FROM n IN N`)
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for _, r := range tbl.Tuples {
		if model.IsNull(r[0]) {
			nulls++
		}
	}
	if nulls != 1 {
		t.Errorf("null arithmetic rows = %d, want 1", nulls)
	}
}

func TestBooleanLogicAndNot(t *testing.T) {
	db := openDB(t)
	tbl, _, err := db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE NOT (x.DNO = 314) AND (x.BUDGET > 400000 OR x.DNO = 417)`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("rows = %v", tbl)
	}
	// Comparison chain operators.
	for _, q := range []string{
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO >= 314 AND x.DNO <= 314`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO < 315 AND x.DNO > 313`,
	} {
		tbl, _, err := db.Query(q)
		if err != nil || tbl.Len() != 1 {
			t.Errorf("%s: %v, %v", q, tbl, err)
		}
	}
}

func TestQuantifierOverStoredTable(t *testing.T) {
	db := openDB(t)
	// EXISTS over another stored table (semi-join).
	tbl, _, err := db.Query(`
SELECT r.REPNO FROM r IN REPORTS
WHERE EXISTS d IN DEPARTMENTS: d.BUDGET > 400000`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 { // condition holds once, so all reports qualify
		t.Errorf("rows = %d, want 3", tbl.Len())
	}
	tbl, _, err = db.Query(`
SELECT r.REPNO FROM r IN REPORTS
WHERE EXISTS d IN DEPARTMENTS: d.BUDGET > 99999999`)
	if err != nil || tbl.Len() != 0 {
		t.Errorf("unsatisfiable exists: %v, %v", tbl, err)
	}
}

func TestAllVacuousTruth(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`
CREATE TABLE E (ID INT, S TABLE OF (V INT));
INSERT INTO E VALUES (1, {});`); err != nil {
		t.Fatal(err)
	}
	tbl, _, err := db.Query(`SELECT e.ID FROM e IN E WHERE ALL v IN e.S: v.V = 42`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Error("ALL over empty subtable not vacuously true")
	}
	tbl, _, err = db.Query(`SELECT e.ID FROM e IN E WHERE EXISTS v IN e.S: v.V = 42`)
	if err != nil || tbl.Len() != 0 {
		t.Error("EXISTS over empty subtable not false")
	}
}

func TestListIndexOutOfRangeIsNull(t *testing.T) {
	db := openDB(t)
	// Report 0179 has one author; AUTHORS[2] is null -> comparison false.
	tbl, _, err := db.Query(`
SELECT x.REPNO FROM x IN REPORTS WHERE x.AUTHORS[2].NAME = 'Jones'`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("out-of-range index matched: %v", tbl)
	}
	// Selecting it projects null.
	tbl, _, err = db.Query(`SELECT x.AUTHORS[2].NAME FROM x IN REPORTS WHERE x.REPNO = '0179'`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.IsNull(tbl.Tuples[0][0]) {
		t.Errorf("projected %v, want NULL", tbl.Tuples[0][0])
	}
}

func TestCountVariants(t *testing.T) {
	db := openDB(t)
	got := one(t, db, `SELECT COUNT(x.PROJECTS) FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if got.(model.Int) != 2 {
		t.Errorf("COUNT(PROJECTS) = %v", got)
	}
	if _, _, err := db.Query(`SELECT COUNT(x.DNO) FROM x IN DEPARTMENTS`); err == nil {
		t.Error("COUNT over atomic succeeded")
	}
}

func TestTableEqualityPredicate(t *testing.T) {
	db := openDB(t)
	// Departments whose EQUIP equals a literal-constructed table via a
	// nested query comparison: compare subtables of two vars.
	tbl, _, err := db.Query(`
SELECT x.DNO, y.DNO AS DNO2 FROM x IN DEPARTMENTS, y IN DEPARTMENTS
WHERE x.EQUIP = y.EQUIP AND x.DNO < y.DNO`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 { // all three EQUIP sets differ
		t.Errorf("equal EQUIP pairs = %v", tbl)
	}
	tbl, _, err = db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS, y IN DEPARTMENTS
WHERE x.PROJECTS = y.PROJECTS AND x.DNO = y.DNO AND x.DNO = 314`)
	if err != nil || tbl.Len() != 1 {
		t.Errorf("self table-equality: %v, %v", tbl, err)
	}
	if _, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.PROJECTS < x.PROJECTS`); err == nil {
		t.Error("table < table succeeded")
	}
}

func TestResultNameCollisionsAndAliases(t *testing.T) {
	db := openDB(t)
	// Duplicate derived names must be rejected (schema validation).
	if _, _, err := db.Query(`SELECT x.DNO, x.DNO FROM x IN DEPARTMENTS`); err == nil {
		t.Error("duplicate result attribute accepted")
	}
	// Aliases resolve the collision.
	tbl, tt, err := db.Query(`SELECT x.DNO, x.DNO AS DNO2 FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Attrs[1].Name != "DNO2" || tbl.Tuples[0][1].(model.Int) != 314 {
		t.Errorf("aliased result: %v %s", tbl, tt)
	}
	// Expressions get synthesized names.
	_, tt, err = db.Query(`SELECT x.DNO + 1 FROM x IN DEPARTMENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tt.Attrs[0].Name, "COL") {
		t.Errorf("synthesized name = %s", tt.Attrs[0].Name)
	}
}

func TestOrderByStringsAndMultipleKeys(t *testing.T) {
	db := openDB(t)
	tbl, _, err := db.Query(`
SELECT y.PNAME, x.DNO FROM x IN DEPARTMENTS, y IN x.PROJECTS
ORDER BY y.PNAME ASC, x.DNO DESC`)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, tbl.Len())
	for i, r := range tbl.Tuples {
		names[i] = string(r[0].(model.Str))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("order violated: %v", names)
		}
	}
}

func TestSubtableOfSubtableFrom(t *testing.T) {
	db := openDB(t)
	// FROM with a positional path: the members of the first project of
	// each department.
	tbl, _, err := db.Query(`
SELECT z.EMPNO FROM x IN DEPARTMENTS, z IN x.PROJECTS[1].MEMBERS WHERE x.DNO = 314`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 { // CGA has 3 members
		t.Errorf("members of first project = %d, want 3", tbl.Len())
	}
	// DML through a positional FROM path keeps working.
	if _, err := db.Exec(`
DELETE z FROM x IN DEPARTMENTS, z IN x.PROJECTS[1].MEMBERS
WHERE x.DNO = 314 AND z.EMPNO = 69011`); err != nil {
		t.Fatal(err)
	}
	tbl, _, _ = db.Query(`
SELECT z.EMPNO FROM x IN DEPARTMENTS, z IN x.PROJECTS[1].MEMBERS WHERE x.DNO = 314`)
	if tbl.Len() != 2 {
		t.Errorf("after positional delete: %d members", tbl.Len())
	}
}

func TestDistinctOverNestedResults(t *testing.T) {
	db := openDB(t)
	// DISTINCT must canonicalize nested tables (bag semantics).
	tbl, _, err := db.Query(`
SELECT DISTINCT MEMBERS = (SELECT z.FUNCTION FROM z IN y.MEMBERS WHERE z.FUNCTION = 'Leader')
FROM x IN DEPARTMENTS, y IN x.PROJECTS`)
	if err != nil {
		t.Fatal(err)
	}
	// Every project has exactly one Leader, so one distinct value.
	if tbl.Len() != 1 {
		t.Errorf("distinct nested results = %d, want 1: %v", tbl.Len(), tbl)
	}
}

func TestInsertCoercions(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE C (F FLOAT, T TIME, S STRING)`); err != nil {
		t.Fatal(err)
	}
	// Int literal widens to float; string parses into time.
	if _, err := db.Exec(`INSERT INTO C VALUES (3, '1984-01-15', 'ok')`); err != nil {
		t.Fatal(err)
	}
	tbl, _, err := db.Query(`SELECT c.F, c.T FROM c IN C`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Tuples[0][0].(model.Float) != 3.0 {
		t.Errorf("widened float = %v", tbl.Tuples[0][0])
	}
	if _, ok := tbl.Tuples[0][1].(model.Time); !ok {
		t.Errorf("time coercion = %T", tbl.Tuples[0][1])
	}
	if _, err := db.Exec(`INSERT INTO C VALUES ('nope', '1984-01-15', 'x')`); err == nil {
		t.Error("string into float accepted")
	}
}

func TestUpdateExpressionsReferencingRow(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`UPDATE x IN DEPARTMENTS SET BUDGET = x.BUDGET * 2 WHERE x.DNO = 314`); err != nil {
		t.Fatal(err)
	}
	got := one(t, db, `SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if got.(model.Int) != 640000 {
		t.Errorf("budget = %v", got)
	}
}

func TestDeleteAllMembersThenObject(t *testing.T) {
	db := openDB(t)
	// Delete every project of 314 in one statement (descending-pos
	// ordering inside the executor must keep positions valid).
	if _, err := db.Exec(`DELETE y FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = 314`); err != nil {
		t.Fatal(err)
	}
	got := one(t, db, `SELECT COUNT(x.PROJECTS) FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if got.(model.Int) != 0 {
		t.Errorf("projects left = %v", got)
	}
}

func TestContainsRequiresString(t *testing.T) {
	db := openDB(t)
	if _, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO CONTAINS '*1*'`); err == nil {
		t.Error("CONTAINS over int succeeded")
	}
}

func TestCorrelatedSubquerySeesOuterVars(t *testing.T) {
	db := openDB(t)
	// The nested constructor references both the outer department and
	// the project variable.
	tbl, _, err := db.Query(`
SELECT y.PNO,
       SAMEDEPT = (SELECT z.PNO FROM z IN x.PROJECTS WHERE z.PNO <> y.PNO)
FROM x IN DEPARTMENTS, y IN x.PROJECTS
WHERE x.DNO = 314`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	for _, r := range tbl.Tuples {
		other := r[1].(*model.Table)
		if other.Len() != 1 {
			t.Errorf("project %v sees %d siblings, want 1", r[0], other.Len())
		}
	}
}

// TNAME() mints application tokens inside queries; the tokens resolve
// back to the bound (sub)objects.
func TestTNameFunction(t *testing.T) {
	db := openDB(t)
	tbl, tt, err := db.Query(`
SELECT y.PNO, TNAME(y) AS REF FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = 314`)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Attrs[1].Type.Kind != model.KindString {
		t.Fatalf("TNAME type = %s", tt.Attrs[1].Type)
	}
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	// The token resolves back through the t-name registry.
	mgr, _ := db.Manager("DEPARTMENTS")
	ct, _ := db.Catalog().Table("DEPARTMENTS")
	reg := tname.NewRegistry(mgr, ct.Type)
	for _, r := range tbl.Tuples {
		n, err := tname.Decode(string(r[1].(model.Str)))
		if err != nil {
			t.Fatal(err)
		}
		tup, err := reg.ResolveTuple(n)
		if err != nil {
			t.Fatal(err)
		}
		if !model.AtomEqual(tup[0], r[0]) {
			t.Errorf("token resolves to PNO %v, row says %v", tup[0], r[0])
		}
	}
	// TNAME over a derived (non-stored) variable fails cleanly.
	if _, _, err := db.Query(`
SELECT TNAME(m) FROM x IN DEPARTMENTS, m IN x.PROJECTS[1].MEMBERS WHERE x.DNO = 999`); err != nil {
		t.Fatalf("TNAME over positional path: %v", err)
	}
}

// Concurrent readers are safe; a writer serializes against them.
func TestConcurrentQueries(t *testing.T) {
	db := openDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				res, err := db.Exec(`SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Leader'`)
				if err != nil {
					errs <- err
					return
				}
				if res[0].Table.Len() != 3 {
					errs <- fmt.Errorf("rows = %d", res[0].Table.Len())
					return
				}
			}
		}()
	}
	// Interleave writers through the statement lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			if _, err := db.Exec(fmt.Sprintf(
				`UPDATE x IN DEPARTMENTS SET BUDGET = %d WHERE x.DNO = 314`, 100000+j)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A DML target bound more than once is changed once: the outer variable
// of a multi-item FROM is bound again for every inner member.
func TestDMLTargetsAreDeduplicated(t *testing.T) {
	db := openDB(t)
	exec := func(q string, want int) {
		t.Helper()
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := res[0].Count; got != want {
			t.Errorf("%s: %d affected, want %d", q, got, want)
		}
	}
	projects := one(t, db, `SELECT COUNT(x.PROJECTS) FROM x IN DEPARTMENTS WHERE x.DNO = 314`).(model.Int)
	if projects < 2 {
		t.Fatalf("department 314 has %d projects, want several", projects)
	}
	// x is bound once per project; the update and the insert count once.
	exec(`UPDATE x FROM x IN DEPARTMENTS, y IN x.PROJECTS SET BUDGET = x.BUDGET + 1 WHERE x.DNO = 314`, 1)
	if got := one(t, db, `SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314`); got.(model.Int) != 320001 {
		t.Errorf("budget = %v, want 320001", got)
	}
	exec(`INSERT INTO x.EQUIP FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = 314 VALUES (1, 'ONCE')`, 1)
	// Distinct members of one subtable stay distinct targets.
	exec(`DELETE y FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE x.DNO = 314`, int(projects))
	// The whole object, bound once per remaining piece of equipment.
	exec(`DELETE x FROM x IN DEPARTMENTS, v IN x.EQUIP WHERE x.DNO = 314`, 1)
}

// A FROM list may bind one name twice; the later item sees the earlier
// binding while it opens and shadows it afterwards, on every row.
func TestFromRebindsVariableName(t *testing.T) {
	db := openDB(t)
	got, _, err := db.Query(`SELECT x.PNO FROM x IN DEPARTMENTS, x IN x.PROJECTS`)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Query(`SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS`)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !model.TableEqual(got, want) {
		t.Errorf("rebinding x: %v, want %v", got, want)
	}
}

// Which select items a row copies from a binding at a position fixed at
// bind, and from where: a plain v.A to an atom of a variable the block's
// own FROM list binds — the last FROM item of that name — and nothing
// else.
func TestItemsCopiedByPosition(t *testing.T) {
	db := openDB(t)
	none := [2]int{-1, -1}
	for _, c := range []struct {
		q         string
		top, sub1 [][2]int
	}{
		// Example 4: every item, from its own level.
		{q: `SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`,
			top: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}},
		// The shadowing FROM item, not the first.
		{q: `SELECT x.PNAME FROM x IN DEPARTMENTS, x IN x.PROJECTS`, top: [][2]int{{1, 1}}},
		// Computed, [k], a subtable, then an atom.
		{q: `SELECT x.DNO + 1, x.PROJECTS[1].PNO, x.EQUIP, x.BUDGET FROM x IN DEPARTMENTS`,
			top: [][2]int{none, none, none, {0, 3}}},
		// A sub-block's outer variable is evaluated, its own copied.
		{q: `SELECT x.DNO, P = (SELECT x.MGRNO, y.PNO FROM y IN x.PROJECTS) FROM x IN DEPARTMENTS`,
			top: [][2]int{{0, 0}, none}, sub1: [][2]int{none, {0, 0}}},
		{q: `SELECT * FROM x IN DEPARTMENTS`, top: [][2]int{}},
	} {
		st, err := sql.ParseOne(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		blk, err := db.Executor().Bind(st)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got := exec.CopiedItems(blk); !slices.Equal(got, c.top) {
			t.Errorf("%s:\n got %v\nwant %v", c.q, got, c.top)
		}
		if c.sub1 != nil {
			if got := exec.CopiedItems(blk.Subs[1]); !slices.Equal(got, c.sub1) {
				t.Errorf("%s, sub-block:\n got %v\nwant %v", c.q, got, c.sub1)
			}
		}
	}
}

// A block bound before its table was dropped and created again with its
// attributes in another order still answers by name: a position is only
// used on a binding of the type it was fixed for.
func TestStalePositionsEvaluate(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE R (A INT, B STRING); INSERT INTO R VALUES (1, 'one')`); err != nil {
		t.Fatal(err)
	}
	st, err := sql.ParseOne(`SELECT r.B, r.A FROM r IN R`)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := db.Executor().Bind(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DROP TABLE R; CREATE TABLE R (B STRING, A INT); INSERT INTO R VALUES ('two', 2)`); err != nil {
		t.Fatal(err)
	}
	cur, err := db.Executor().OpenPrepared(context.Background(), blk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	tup, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	if want := (model.Tuple{model.Str("two"), model.Int(2)}); !model.TupleEqual(tup, want) {
		t.Errorf("stale block read %v, want %v", tup, want)
	}
}
