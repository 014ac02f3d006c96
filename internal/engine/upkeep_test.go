package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/testdata"
	"repro/internal/textindex"
)

// checkIndexesMatchRebuild requires every live index of table to equal
// the shadow BuildShadowIndex rebuilds from base data, entry for entry —
// the check scrub runs, without its physical passes.
func checkIndexesMatchRebuild(t *testing.T, db *DB, table, after string) {
	t.Helper()
	if d := db.DegradedIndexes(); len(d) != 0 {
		t.Fatalf("after %s: degraded indexes %v", after, d)
	}
	for _, def := range db.Catalog().Indexes(table) {
		shadowIx, shadowTi, err := db.BuildShadowIndex(def)
		if err != nil {
			t.Fatalf("after %s: rebuilding %s: %v", after, def.Name, err)
		}
		var detail string
		var diverged bool
		if def.Text {
			live, ok := db.TextIndexByName(def.Name)
			if !ok {
				t.Fatalf("after %s: text index %s is not live", after, def.Name)
			}
			detail, diverged = textindex.Diff(live, shadowTi)
		} else {
			live, ok := db.IndexByName(def.Name)
			if !ok {
				t.Fatalf("after %s: index %s is not live", after, def.Name)
			}
			detail, diverged = index.Diff(live, shadowIx)
		}
		if diverged {
			t.Fatalf("after %s: index %s %v diverged from its rebuild: %s", after, def.Name, def.Path, detail)
		}
	}
}

// upLevel is one level of a generated nested schema: its attributes in
// declaration order (nil sub: atomic) and the names of its key and of
// the complex subtable the next level lives in.
type upLevel struct {
	attrs []upAttr
	key   string
	sub   string
	path  string // attribute path prefix of the level, "" for the top
}

type upAttr struct {
	name string
	kind model.Kind
	sub  *upLevel // KindTable
}

func (l *upLevel) attr(name string) *upAttr {
	for i := range l.attrs {
		if l.attrs[i].name == name {
			return &l.attrs[i]
		}
	}
	return nil
}

func (l *upLevel) atoms() []upAttr {
	var out []upAttr
	for _, a := range l.attrs {
		if a.kind != model.KindTable {
			out = append(out, a)
		}
	}
	return out
}

// upSchema draws a three-level schema T / A / B: each level a key, one
// or two further atoms of random kinds and, above the bottom, the next
// level as a subtable; the top level sometimes gets a flat sibling
// subtable F no index reaches. Attribute order is shuffled.
func upSchema(r *rand.Rand) []*upLevel {
	names := []string{"T", "A", "B"}
	keys := []string{"K", "N", "M"}
	levels := make([]*upLevel, 3)
	for i := range levels {
		l := &upLevel{key: keys[i]}
		l.attrs = append(l.attrs, upAttr{name: keys[i], kind: model.KindInt})
		for j := 0; j < 1+r.Intn(2); j++ {
			kind := model.KindString
			if r.Intn(3) == 0 {
				kind = model.KindInt
			}
			l.attrs = append(l.attrs, upAttr{name: fmt.Sprintf("%s%d", names[i], j), kind: kind})
		}
		levels[i] = l
	}
	for i := 0; i < 2; i++ {
		levels[i].sub = names[i+1]
		levels[i].attrs = append(levels[i].attrs, upAttr{name: names[i+1], kind: model.KindTable, sub: levels[i+1]})
		levels[i+1].path = levels[i].path + names[i+1] + "."
	}
	if r.Intn(2) == 0 {
		levels[0].attrs = append(levels[0].attrs, upAttr{name: "F", kind: model.KindTable, sub: &upLevel{attrs: []upAttr{{name: "FV", kind: model.KindString}}}})
	}
	for _, l := range levels {
		r.Shuffle(len(l.attrs), func(i, j int) { l.attrs[i], l.attrs[j] = l.attrs[j], l.attrs[i] })
	}
	return levels
}

func upDDL(l *upLevel) string {
	parts := make([]string, len(l.attrs))
	for i, a := range l.attrs {
		switch a.kind {
		case model.KindTable:
			parts[i] = a.name + " TABLE OF " + upDDL(a.sub)
		case model.KindInt:
			parts[i] = a.name + " INT"
		default:
			parts[i] = a.name + " STRING"
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// upAtom draws a value from a small domain, so keys repeat and updates
// often leave the key as it was.
func upAtom(r *rand.Rand, kind model.Kind) string {
	if kind == model.KindInt {
		return fmt.Sprint(r.Intn(4))
	}
	return "'" + []string{"red", "green blue", "blue", "red green", ""}[r.Intn(5)] + "'"
}

// upTuple renders a random tuple of level l as a literal, keyed key.
func upTuple(r *rand.Rand, l *upLevel, key int) string {
	parts := make([]string, len(l.attrs))
	for i, a := range l.attrs {
		switch {
		case a.kind == model.KindTable:
			members := make([]string, r.Intn(4))
			for j := range members {
				members[j] = upTuple(r, a.sub, r.Intn(3))
			}
			parts[i] = "{" + strings.Join(members, ", ") + "}"
		case a.name == l.key:
			parts[i] = fmt.Sprint(key)
		default:
			parts[i] = upAtom(r, a.kind)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// upRun is one generated run: its database, schema and live top-level
// keys.
type upRun struct {
	t      *testing.T
	r      *rand.Rand
	db     *DB
	levels []*upLevel
	next   int // fresh top-level keys
	nindex int
	nalter int
	hits   map[string]int // tuples written per kind of write, conflicts
}

// index creates a value index (random address kind) on every atom of
// the level and a text index on every STRING atom.
func (u *upRun) index(l *upLevel, attrs []upAttr) {
	for _, a := range attrs {
		u.nindex++
		using := []string{"HIERARCHICAL", "ROOT", "DATA"}[u.r.Intn(3)]
		u.exec(fmt.Sprintf(`CREATE INDEX IX%d ON T (%s%s) USING %s`, u.nindex, l.path, a.name, using))
		if a.kind == model.KindString {
			u.exec(fmt.Sprintf(`CREATE TEXT INDEX TX%d ON T (%s%s)`, u.nindex, l.path, a.name))
		}
	}
}

func (u *upRun) exec(stmt string) int {
	u.t.Helper()
	res, err := u.db.Exec(stmt)
	if err != nil {
		u.t.Fatalf("%s: %v", stmt, err)
	}
	return res[0].Count
}

// keys returns the live top-level keys.
func (u *upRun) keys() []int {
	tbl, _, err := u.db.Query(`SELECT x.K FROM x IN T`)
	if err != nil {
		u.t.Fatal(err)
	}
	out := make([]int, len(tbl.Tuples))
	for i, tup := range tbl.Tuples {
		out[i] = int(tup[0].(model.Int))
	}
	return out
}

// pickKey returns a live top-level key, or one no object has.
func (u *upRun) pickKey() int {
	if ks := u.keys(); len(ks) > 0 && u.r.Intn(8) != 0 {
		return ks[u.r.Intn(len(ks))]
	}
	return 999
}

// set renders "attr = value" for a random atom of level l other than
// the top-level key.
func (u *upRun) set(l *upLevel) string {
	atoms := u.atomsNoTopKey(l)
	a := atoms[u.r.Intn(len(atoms))]
	if a.kind == model.KindString && u.r.Intn(4) == 0 {
		return a.name + " = NULL"
	}
	return a.name + " = " + upAtom(u.r, a.kind)
}

func (u *upRun) atomsNoTopKey(l *upLevel) []upAttr {
	var out []upAttr
	for _, a := range l.atoms() {
		if a.name != "K" {
			out = append(out, a)
		}
	}
	return out
}

// upDraws maps a draw of ten to the kind of write it produces.
var upDraws = [10]string{"insert object", "insert object", "delete object", "update level 1", "update level 2",
	"update level 3", "insert member level 2", "insert member level 3", "delete member level 2", "delete member level 3"}

// write returns one DML statement of the given kind, or of a kind drawn
// by upDraws when kind is "": an object insert or delete, an UPDATE at
// any level, a member insert or delete at levels 2 and 3. A drawn member
// insert at level 2 sometimes goes to the unindexed subtable F instead.
func (u *upRun) write(kind string) (string, string) {
	T, A, B := u.levels[0], u.levels[1], u.levels[2]
	k, n, m := u.pickKey(), u.r.Intn(3), u.r.Intn(3)
	drawn := kind == ""
	if drawn {
		kind = upDraws[u.r.Intn(len(upDraws))]
	}
	switch kind {
	case "insert object":
		u.next++
		return kind, `INSERT INTO T VALUES ` + upTuple(u.r, T, u.next)
	case "delete object":
		return kind, fmt.Sprintf(`DELETE x FROM x IN T WHERE x.K = %d`, k)
	case "update level 1":
		if u.r.Intn(4) == 0 {
			u.next++
			return kind, fmt.Sprintf(`UPDATE x IN T SET K = %d WHERE x.K = %d`, u.next, k)
		}
		return kind, fmt.Sprintf(`UPDATE x IN T SET %s WHERE x.K = %d`, u.set(T), k)
	case "update level 2":
		return kind, fmt.Sprintf(`UPDATE y FROM x IN T, y IN x.A SET %s WHERE x.K = %d AND y.N = %d`, u.set(A), k, n)
	case "update level 3":
		return kind, fmt.Sprintf(`UPDATE z FROM x IN T, y IN x.A, z IN y.B SET %s WHERE x.K = %d AND y.N = %d AND z.M = %d`, u.set(B), k, n, m)
	case "insert member level 2":
		if drawn && T.attr("F") != nil && u.r.Intn(3) == 0 {
			return "insert unindexed member", fmt.Sprintf(`INSERT INTO x.F FROM x IN T WHERE x.K = %d VALUES (%s)`, k, upAtom(u.r, model.KindString))
		}
		return kind, fmt.Sprintf(`INSERT INTO x.A FROM x IN T WHERE x.K = %d VALUES %s`, k, upTuple(u.r, A, n))
	case "insert member level 3":
		return kind, fmt.Sprintf(`INSERT INTO y.B FROM x IN T, y IN x.A WHERE x.K = %d AND y.N = %d VALUES %s`, k, n, upTuple(u.r, B, m))
	case "delete member level 2":
		return kind, fmt.Sprintf(`DELETE y FROM x IN T, y IN x.A WHERE x.K = %d AND y.N = %d`, k, n)
	case "delete member level 3":
		return kind, fmt.Sprintf(`DELETE z FROM x IN T, y IN x.A, z IN y.B WHERE x.K = %d AND y.N = %d AND z.M = %d`, k, n, m)
	}
	u.t.Fatalf("unknown kind of write %q", kind)
	return "", ""
}

// alter appends an atom to a random level; the subtuples written before
// are short, and the new atom gets its indexes at once.
func (u *upRun) alter() string {
	l := u.levels[u.r.Intn(3)]
	u.nalter++
	a := upAttr{name: fmt.Sprintf("X%d", u.nalter), kind: model.KindString}
	if u.r.Intn(2) == 0 {
		a.kind = model.KindInt
	}
	kind := "STRING"
	if a.kind == model.KindInt {
		kind = "INT"
	}
	stmt := fmt.Sprintf(`ALTER TABLE T ADD %s%s %s`, l.path, a.name, kind)
	u.exec(stmt)
	l.attrs = append(l.attrs, a)
	u.index(l, []upAttr{a})
	return stmt
}

// step runs one scope: auto-commit, a transaction that commits or rolls
// back, or an auto-commit statement that fails with ErrWriteConflict on
// an object a transaction holds.
func (u *upRun) step() string {
	switch n := u.r.Intn(20); {
	case n == 0 && u.nalter < 3:
		return u.alter()
	case n < 12:
		kind, stmt := u.write("")
		u.hits[kind+", auto-commit"] += u.exec(stmt)
		return stmt
	case n < 17:
		tx, err := u.db.Begin()
		if err != nil {
			u.t.Fatal(err)
		}
		var stmts []string
		for i := 0; i < 1+u.r.Intn(3); i++ {
			kind, stmt := u.write("")
			res, err := tx.Exec(stmt)
			if err != nil {
				u.t.Fatalf("in a transaction: %s: %v", stmt, err)
			}
			if n < 16 {
				u.hits[kind+", committed"] += res[0].Count
			}
			stmts = append(stmts, stmt)
		}
		if n == 16 {
			if err := tx.Rollback(); err != nil {
				u.t.Fatal(err)
			}
			return "rolled back: " + strings.Join(stmts, "; ")
		}
		if err := tx.Commit(); err != nil {
			u.t.Fatalf("commit of %s: %v", strings.Join(stmts, "; "), err)
		}
		return "committed: " + strings.Join(stmts, "; ")
	}
	ks := u.keys()
	if len(ks) == 0 {
		return "nothing to conflict on"
	}
	k := ks[u.r.Intn(len(ks))]
	tx, err := u.db.Begin()
	if err != nil {
		u.t.Fatal(err)
	}
	hold := fmt.Sprintf(`UPDATE x IN T SET %s WHERE x.K = %d`, u.set(u.levels[0]), k)
	if _, err := tx.Exec(hold); err != nil {
		u.t.Fatalf("in a transaction: %s: %v", hold, err)
	}
	// Every object (every member), so the statement may have written
	// others before it reaches the held one; its rollback reloads the
	// runtime. Members of the held object need not exist.
	stmt := fmt.Sprintf(`UPDATE y FROM x IN T, y IN x.A SET %s`, u.set(u.levels[1]))
	if u.r.Intn(2) == 0 {
		stmt = fmt.Sprintf(`UPDATE x IN T SET %s`, u.set(u.levels[0]))
	}
	switch _, err := u.db.Exec(stmt); {
	case errors.Is(err, ErrWriteConflict):
		u.hits["write conflict"]++
	case err != nil || strings.HasPrefix(stmt, "UPDATE x"):
		u.t.Fatalf("%s: %v, want a write conflict", stmt, err)
	}
	if err := tx.Commit(); err != nil && !errors.Is(err, ErrWriteConflict) {
		u.t.Fatalf("commit of %s: %v", hold, err)
	}
	return "conflicting: " + hold + "; " + stmt
}

// upCovered lists the kinds of write the coverage check requires to
// have written something in both the auto-commit and committed scopes.
var upCovered = []string{"insert object", "delete object", "update level 1", "update level 2", "update level 3",
	"insert member level 2", "insert member level 3", "delete member level 2", "delete member level 3"}

// topUp ends a run: each covered (kind, scope) pair that no run has
// written yet is issued, at most upTopUpTries times until it writes,
// and every attempt is checked like a step. A short run draws too few
// writes for each pair to land by chance; the top-up still proves the
// property for every pair the coverage check names.
func (u *upRun) topUp() {
	const upTopUpTries = 20
	for _, kind := range upCovered {
		for try := 0; try < upTopUpTries && u.hits[kind+", auto-commit"] == 0; try++ {
			_, stmt := u.write(kind)
			u.hits[kind+", auto-commit"] += u.exec(stmt)
			checkIndexesMatchRebuild(u.t, u.db, "T", "top-up "+stmt)
		}
		for try := 0; try < upTopUpTries && u.hits[kind+", committed"] == 0; try++ {
			_, stmt := u.write(kind)
			tx, err := u.db.Begin()
			if err != nil {
				u.t.Fatal(err)
			}
			res, err := tx.Exec(stmt)
			if err != nil {
				u.t.Fatalf("in a transaction: %s: %v", stmt, err)
			}
			if err := tx.Commit(); err != nil {
				u.t.Fatalf("commit of %s: %v", stmt, err)
			}
			u.hits[kind+", committed"] += res[0].Count
			checkIndexesMatchRebuild(u.t, u.db, "T", "top-up committed: "+stmt)
		}
	}
}

// TestIndexUpkeepMatchesRebuild is the property behind delta index
// upkeep: after any write, every live index equals its rebuild from base
// data. Random three-level schemas under SS1, SS2 and SS3 carry
// HIERARCHICAL, ROOT and DATA indexes on every atom of every level plus
// text indexes on every STRING atom; the writes insert and delete
// objects, update atoms at every level (the indexed atom changed or
// not), insert and delete members at levels 2 and 3, and add atoms with
// ALTER TABLE ADD so older subtuples are short — auto-commit, in
// transactions that commit or roll back, and in statements a write
// conflict fails.
func TestIndexUpkeepMatchesRebuild(t *testing.T) {
	seeds, steps := 6, 80
	if testing.Short() {
		seeds = 2
	}
	hits := map[string]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, layout := range []string{"SS1", "SS2", "SS3"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, layout), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				u := &upRun{t: t, r: r, db: openWALMem(t, &togglableWAL{}), levels: upSchema(r), hits: hits}
				u.exec(`CREATE TABLE T ` + upDDL(u.levels[0]) + ` LAYOUT ` + layout)
				for i := 0; i < 4; i++ {
					u.next++
					u.exec(`INSERT INTO T VALUES ` + upTuple(r, u.levels[0], u.next))
				}
				for _, l := range u.levels {
					u.index(l, l.atoms())
				}
				checkIndexesMatchRebuild(t, u.db, "T", "the index build")
				for i := 0; i < steps; i++ {
					what := u.step()
					checkIndexesMatchRebuild(t, u.db, "T", fmt.Sprintf("step %d (%s)", i, what))
				}
				u.topUp()
			})
		}
	}
	// Every kind of write must have written something in both scopes,
	// or the property proved nothing about it.
	for _, kind := range upCovered {
		for _, scope := range []string{"auto-commit", "committed"} {
			if hits[kind+", "+scope] == 0 {
				t.Errorf("no %s wrote anything %s", kind, scope)
			}
		}
	}
	if hits["write conflict"] == 0 {
		t.Error("no statement failed with a write conflict")
	}
	t.Logf("tuples written: %v", hits)
}

// TestDirectIndexDDLAgainstWriters runs index DDL through the direct
// entry points — CreateIndex, CreateTextIndex, DropIndex — in rounds
// against two auto-commit writers and four indexed readers. The direct
// entry points take the locks SQL DDL takes, so no writer updates the
// live indexes while one is built or dropped: afterwards every index
// equals its rebuild (and the race detector finds nothing).
func TestDirectIndexDDLAgainstWriters(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, d := range testdata.GenDepartments(testdata.GenConfig{Departments: 8, ProjsPerDept: 3, MembersPerProj: 3, EquipPerDept: 1, Seed: 3}).Tuples {
		if err := db.Insert("DEPARTMENTS", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	run := func(seed int64, stmt func(r *rand.Rand) string) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(stmt(r)); err != nil {
				errs <- err
				return
			}
		}
	}
	functions := []string{"Consultant", "Leader", "Secretary", "Staff"}
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go run(w, func(r *rand.Rand) string {
			dno, fn := 100+r.Intn(8), functions[r.Intn(len(functions))]
			switch r.Intn(4) {
			case 0:
				return fmt.Sprintf(`INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = %d VALUES (%d, '%s')`, dno, 50000+r.Intn(1000), fn)
			case 1:
				return fmt.Sprintf(`UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS SET FUNCTION = '%s' WHERE x.DNO = %d`, fn, dno)
			case 2:
				return fmt.Sprintf(`UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET PNAME = '%s project' WHERE x.DNO = %d`, fn, dno)
			}
			return fmt.Sprintf(`DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE x.DNO = %d AND z.FUNCTION = '%s'`, dno, fn)
		})
	}
	for rd := int64(0); rd < 4; rd++ {
		wg.Add(1)
		go run(10+rd, func(r *rand.Rand) string {
			if r.Intn(2) == 0 {
				return fmt.Sprintf(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: EXISTS z IN y.MEMBERS: z.FUNCTION = '%s'`, functions[r.Intn(len(functions))])
			}
			return fmt.Sprintf(`SELECT x.DNO, x.PROJECTS FROM x IN DEPARTMENTS WHERE x.DNO = %d`, 100+r.Intn(8))
		})
	}
	for round := 0; ; round++ {
		if err := db.CreateIndex("DEPT_FUNCTION", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, []string{"HIERARCHICAL", "ROOT", "DATA"}[round%3]); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTextIndex("DEPT_PNAME", "DEPARTMENTS", []string{"PROJECTS", "PNAME"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if round == 19 {
			break
		}
		for _, name := range []string{"DEPT_FUNCTION", "DEPT_PNAME"} {
			if err := db.DropIndex(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkIndexesMatchRebuild(t, db, "DEPARTMENTS", "the DDL rounds")
}

// TestDirectTableDDLAgainstWriters runs table DDL through the direct
// entry points — CreateTable, AlterTableAdd, DropTable — on other
// tables while two auto-commit writers update DEPARTMENTS through SQL.
// The direct entry points take the locks SQL DDL takes, so no writer
// reads the stores, managers or catalog while DDL rewrites them: the
// race detector finds nothing, and every write and DDL call succeeds.
func TestDirectTableDDLAgainstWriters(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, d := range testdata.GenDepartments(testdata.GenConfig{Departments: 4, ProjsPerDept: 2, MembersPerProj: 2, EquipPerDept: 1, Seed: 5}).Tuples {
		if err := db.Insert("DEPARTMENTS", d); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Exec(fmt.Sprintf(`UPDATE x IN DEPARTMENTS SET BUDGET = %d WHERE x.DNO = %d`, i, 100+(i+w)%4)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("SIDE%d", i)
		tt := testdata.DepartmentsFlatType()
		if i%2 == 1 {
			tt = testdata.DepartmentsType()
		}
		if err := db.CreateTable(name, tt, TableOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := db.AlterTableAdd(name, []string{"NOTE"}, model.AtomicType(model.KindString)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := db.DropTable(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTextIndexOnNonStringAttr: a text index of a flat table on an INT
// attribute is created, kept through writes and a reopen and dropped,
// indexing nothing — flat upkeep skips values that are not strings. (One
// of an NF² table is refused; TestErrorsLeaveDBUsable has that.)
func TestTextIndexOnNonStringAttr(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
CREATE TABLE NOTES (ID INT, BODY STRING);
INSERT INTO NOTES VALUES (1, 'first note');
CREATE TEXT INDEX NOTES_ID ON NOTES (ID);
CREATE TEXT INDEX NOTES_BODY ON NOTES (BODY);
INSERT INTO NOTES VALUES (2, 'second note');
UPDATE n IN NOTES SET ID = 3 WHERE n.ID = 1;
DELETE n FROM n IN NOTES WHERE n.ID = 2;
`); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, after string) {
		t.Helper()
		checkIndexesMatchRebuild(t, db, "NOTES", after)
		if ti, ok := db.TextIndexByName("NOTES_ID"); !ok || ti.Words() != 0 {
			t.Fatalf("after %s: the text index on NOTES.ID is live %v, want live and empty", after, ok)
		}
	}
	check(db, "the writes")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "reopen")
	if err := db.DropIndex("NOTES_ID"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO NOTES VALUES (4, 'fourth note')`); err != nil {
		t.Fatal(err)
	}
	checkIndexesMatchRebuild(t, db, "NOTES", "DROP INDEX")
}
