package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/testdata"
)

// openOffice opens an in-memory database loaded with the paper's
// office fixtures: Table 5 (DEPARTMENTS), Table 6 (REPORTS), Tables
// 1-4 (the 1NF decomposition) and Table 8 (EMPLOYEES_1NF).
func openOffice(t testing.TB) *DB {
	t.Helper()
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	load := func(name string, tt *model.TableType, data *model.Table, opts TableOptions) {
		if err := db.CreateTable(name, tt, opts); err != nil {
			t.Fatal(err)
		}
		for _, tup := range data.Tuples {
			if err := db.Insert(name, tup); err != nil {
				t.Fatalf("insert into %s: %v", name, err)
			}
		}
	}
	load("DEPARTMENTS", testdata.DepartmentsType(), testdata.Departments(), TableOptions{Versioned: true})
	load("REPORTS", testdata.ReportsType(), testdata.Reports(), TableOptions{})
	load("DEPARTMENTS_1NF", testdata.DepartmentsFlatType(), testdata.DepartmentsFlat(), TableOptions{})
	load("PROJECTS_1NF", testdata.ProjectsFlatType(), testdata.ProjectsFlat(), TableOptions{})
	load("MEMBERS_1NF", testdata.MembersFlatType(), testdata.MembersFlat(), TableOptions{})
	load("EQUIP_1NF", testdata.EquipFlatType(), testdata.EquipFlat(), TableOptions{})
	load("EMPLOYEES_1NF", testdata.EmployeesType(), testdata.Employees(), TableOptions{})
	return db
}

func intCol(t *testing.T, tbl *model.Table, col int) []int64 {
	t.Helper()
	var out []int64
	for _, tup := range tbl.Tuples {
		out = append(out, int64(tup[col].(model.Int)))
	}
	return out
}

// Example 1: SELECT * retrieves the stored NF² table unchanged.
func TestExample1SelectStar(t *testing.T) {
	db := openOffice(t)
	got, tt, err := db.Query(`SELECT * FROM x IN DEPARTMENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Equal(testdata.DepartmentsType()) {
		t.Errorf("schema mismatch: %s", tt)
	}
	if !model.TableEqual(got, testdata.Departments()) {
		t.Errorf("SELECT * differs from Table 5:\n%s", model.FormatTable("got", tt, got))
	}
}

// Example 2 / Fig 2: explicit result structure reproduces Table 5.
func TestExample2ExplicitStructure(t *testing.T) {
	db := openOffice(t)
	got, tt, err := db.Query(`
SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS)
                   FROM y IN x.PROJECTS),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP)
FROM x IN DEPARTMENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Equal(testdata.DepartmentsType()) {
		t.Errorf("inferred schema mismatch:\n got %s\nwant %s", tt, testdata.DepartmentsType())
	}
	if !model.TableEqual(got, testdata.Departments()) {
		t.Error("explicit-structure query differs from Table 5")
	}
}

// Example 3 / Fig 3: the nest operation builds Table 5 from the four
// 1NF tables.
func TestExample3Nest(t *testing.T) {
	db := openOffice(t)
	got, _, err := db.Query(`
SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION
                                     FROM z IN MEMBERS_1NF
                                     WHERE z.PNO = y.PNO AND z.DNO = y.DNO)
                   FROM y IN PROJECTS_1NF
                   WHERE y.DNO = x.DNO),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN EQUIP_1NF WHERE v.DNO = x.DNO)
FROM x IN DEPARTMENTS_1NF`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.TableEqual(got, testdata.Departments()) {
		t.Error("nest of Tables 1-4 differs from Table 5")
	}
}

// Example 4: the unnest produces Table 7, and the equivalent 3-way
// flat join produces the same rows.
func TestExample4Unnest(t *testing.T) {
	db := openOffice(t)
	nf2, _, err := db.Query(`
SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION
FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.TableEqual(nf2, testdata.Unnested()) {
		t.Error("unnest differs from Table 7")
	}
	flatJoin, _, err := db.Query(`
SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION
FROM x IN DEPARTMENTS_1NF, y IN PROJECTS_1NF, z IN MEMBERS_1NF
WHERE x.DNO = y.DNO AND y.PNO = z.PNO AND y.DNO = z.DNO`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.TableEqual(nf2, flatJoin) {
		t.Error("hierarchical unnest and flat 3-way join disagree")
	}
}

// Example 5: EXISTS over EQUIP — departments using a PC/AT.
func TestExample5Exists(t *testing.T) {
	db := openOffice(t)
	got, _, err := db.Query(`
SELECT x.DNO, x.MGRNO, x.BUDGET
FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`)
	if err != nil {
		t.Fatal(err)
	}
	dnos := intCol(t, got, 0)
	if len(dnos) != 2 || !(dnos[0] == 314 && dnos[1] == 218 || dnos[0] == 218 && dnos[1] == 314) {
		t.Errorf("departments with PC/AT = %v, want {314, 218}", dnos)
	}
}

// Example 6: two chained ALL quantifiers; the result is empty for the
// paper's data ("there is no department which fulfills the
// condition").
func TestExample6All(t *testing.T) {
	db := openOffice(t)
	got, _, err := db.Query(`
SELECT x.DNO, x.MGRNO, x.BUDGET
FROM x IN DEPARTMENTS
WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("expected empty result, got %v", got)
	}
}

// Example 7 / Fig 4: join between MEMBERS (inside DEPARTMENTS) and
// the flat EMPLOYEES_1NF table — join attributes on different
// nesting levels.
func TestExample7JoinAcrossLevels(t *testing.T) {
	db := openOffice(t)
	got, tt, err := db.Query(`
SELECT x.DNO, x.MGRNO,
       EMPLOYEES = (SELECT z.EMPNO, u.LNAME, u.FNAME, u.SEX, z.FUNCTION
                    FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES_1NF
                    WHERE u.EMPNO = z.EMPNO)
FROM x IN DEPARTMENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("departments = %d", got.Len())
	}
	for _, dept := range got.Tuples {
		emps := dept[2].(*model.Table)
		if emps.Len() == 0 {
			t.Errorf("department %v has no joined employees", dept[0])
		}
		for _, e := range emps.Tuples {
			if model.IsNull(e[1]) {
				t.Errorf("employee %v missing name", e[0])
			}
		}
	}
	// Department 314 has 7 members; each must join exactly one
	// employee tuple.
	for _, dept := range got.Tuples {
		if dept[0].(model.Int) == 314 {
			if n := dept[2].(*model.Table).Len(); n != 7 {
				t.Errorf("dept 314 joined %d employees, want 7", n)
			}
		}
	}
	_ = tt
}

// Fig 5: two joins — retrieve the manager's name and sex instead of
// the manager number.
func TestFig5TwoJoins(t *testing.T) {
	db := openOffice(t)
	got, _, err := db.Query(`
SELECT x.DNO, m.LNAME, m.SEX,
       EMPLOYEES = (SELECT z.EMPNO, u.LNAME, z.FUNCTION
                    FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES_1NF
                    WHERE u.EMPNO = z.EMPNO)
FROM x IN DEPARTMENTS, m IN EMPLOYEES_1NF
WHERE m.EMPNO = x.MGRNO`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("rows = %d", got.Len())
	}
	for _, row := range got.Tuples {
		if row[0].(model.Int) == 314 && row[1].(model.Str) != "Schmidt" {
			t.Errorf("manager of 314 = %v, want Schmidt", row[1])
		}
	}
}

// Example 8: list indexing — reports whose first author is Jones.
func TestExample8ListIndexing(t *testing.T) {
	db := openOffice(t)
	got, tt, err := db.Query(`
SELECT x.AUTHORS, x.TITLE
FROM x IN REPORTS
WHERE x.AUTHORS[1].NAME = 'Jones'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("reports = %d, want 1", got.Len())
	}
	// The result is not flat: AUTHORS stays a (ordered) table.
	a, _ := tt.Attr("AUTHORS")
	if a.Type.Kind != model.KindTable || !a.Type.Table.Ordered {
		t.Errorf("AUTHORS result type = %s", a.Type)
	}
	// The paper's short form compares the single-attribute tuple
	// directly with the atom.
	got2, _, err := db.Query(`
SELECT x.AUTHORS, x.TITLE FROM x IN REPORTS WHERE x.AUTHORS[1] = 'Jones'`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.TableEqual(got, got2) {
		t.Error("tuple-vs-atom comparison disagrees with attribute form")
	}
}

// §5: masked text search with CONTAINS, with and without text index.
func TestTextContains(t *testing.T) {
	db := openOffice(t)
	if _, err := db.Exec(`
INSERT INTO REPORTS VALUES
 ('0300', <('Jones'), ('Meyer')>, 'Minicomputer Performance for Computational Workloads', {('Performance', 0.8)}),
 ('0301', <('Racey')>, 'Computer Networks', {('Networks', 0.9)})`); err != nil {
		t.Fatal(err)
	}
	q := `
SELECT x.REPNO, x.AUTHORS, x.TITLE
FROM x IN REPORTS
WHERE x.TITLE CONTAINS '*comput*'
  AND EXISTS y IN x.AUTHORS: y.NAME = 'Jones'`
	scan, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Len() != 1 || scan.Tuples[0][0].(model.Str) != "0300" {
		t.Fatalf("text query = %v", scan)
	}
	// With a text index the same query must return the same result.
	if err := db.CreateTextIndex("rep_title", "REPORTS", []string{"TITLE"}); err != nil {
		t.Fatal(err)
	}
	indexed, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !model.TableEqual(scan, indexed) {
		t.Error("text-indexed query disagrees with scan")
	}
}

// §5: ASOF time-version query — the projects department 314 had
// before a deletion.
func TestASOFQuery(t *testing.T) {
	db := openOffice(t)
	before := db.Now()
	if _, err := db.Exec(`DELETE y FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE y.PNO = 23`); err != nil {
		t.Fatal(err)
	}
	cur, _, err := db.Query(`
SELECT y.PNO, y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = 314`)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != 1 {
		t.Fatalf("current projects of 314 = %d, want 1", cur.Len())
	}
	old, _, err := db.Query(fmt.Sprintf(`
SELECT y.PNO, y.PNAME FROM x IN DEPARTMENTS ASOF %d, y IN x.PROJECTS WHERE x.DNO = 314`, before))
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 2 {
		t.Fatalf("ASOF projects of 314 = %d, want 2", old.Len())
	}
}

// DML: subtable insert, update, delete through SQL.
func TestSubtableDML(t *testing.T) {
	db := openOffice(t)
	if _, err := db.Exec(`
INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS
WHERE y.PNO = 17 VALUES (11111, 'Consultant')`); err != nil {
		t.Fatal(err)
	}
	got, _, _ := db.queryPair(`
SELECT z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE y.PNO = 17`)
	if got.Len() != 4 {
		t.Fatalf("members of 17 after insert = %d, want 4", got.Len())
	}
	if _, err := db.Exec(`UPDATE x IN DEPARTMENTS SET BUDGET = 999999 WHERE x.DNO = 218`); err != nil {
		t.Fatal(err)
	}
	b, _, _ := db.queryPair(`SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 218`)
	if b.Tuples[0][0].(model.Int) != 999999 {
		t.Errorf("budget = %v", b.Tuples[0][0])
	}
	// Update a nested level.
	if _, err := db.Exec(`
UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS
SET FUNCTION = 'Manager' WHERE z.EMPNO = 39582`); err != nil {
		t.Fatal(err)
	}
	f, _, _ := db.queryPair(`
SELECT z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.EMPNO = 39582`)
	if f.Tuples[0][0].(model.Str) != "Manager" {
		t.Errorf("function = %v", f.Tuples[0][0])
	}
	// Delete a member and a whole department.
	if _, err := db.Exec(`DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.EMPNO = 11111`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE x FROM x IN DEPARTMENTS WHERE x.DNO = 417`); err != nil {
		t.Fatal(err)
	}
	d, _, _ := db.queryPair(`SELECT x.DNO FROM x IN DEPARTMENTS`)
	if d.Len() != 2 {
		t.Errorf("departments after delete = %d", d.Len())
	}
}

// Index-backed queries must agree with full scans, for every address
// strategy that can locate objects.
func TestIndexedQueriesAgreeWithScan(t *testing.T) {
	for _, using := range []string{"HIERARCHICAL", "ROOT"} {
		t.Run(using, func(t *testing.T) {
			db := openOffice(t)
			scan, _, err := db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CreateIndex("fn", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, using); err != nil {
				t.Fatal(err)
			}
			indexed, _, err := db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
			if err != nil {
				t.Fatal(err)
			}
			if !model.TableEqual(scan, indexed) {
				t.Errorf("indexed result differs from scan:\nscan %v\nindexed %v", scan, indexed)
			}
			dnos := intCol(t, indexed, 0)
			if len(dnos) != 2 {
				t.Errorf("departments with consultants = %v, want 314 and 218", dnos)
			}
		})
	}
}

// Index maintenance across DML.
func TestIndexMaintenance(t *testing.T) {
	db := openOffice(t)
	if err := db.CreateIndex("fn", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`
	before, _, _ := db.queryPair(q)
	if before.Len() != 2 {
		t.Fatalf("before = %d", before.Len())
	}
	// Give department 417 a consultant.
	if _, err := db.Exec(`
INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS
WHERE y.PNO = 37 VALUES (77777, 'Consultant')`); err != nil {
		t.Fatal(err)
	}
	after, _, _ := db.queryPair(q)
	if after.Len() != 3 {
		t.Errorf("after insert = %d, want 3", after.Len())
	}
	// Remove all consultants from 218 (project 25 has two).
	if _, err := db.Exec(`
DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS
WHERE x.DNO = 218 AND z.FUNCTION = 'Consultant'`); err != nil {
		t.Fatal(err)
	}
	after2, _, _ := db.queryPair(q)
	if after2.Len() != 2 {
		t.Errorf("after delete = %d, want 2", after2.Len())
	}
}

// ORDER BY, DISTINCT and COUNT.
func TestOrderDistinctCount(t *testing.T) {
	db := openOffice(t)
	got, tt, err := db.Query(`
SELECT x.DNO, COUNT(x.PROJECTS) AS NPROJ FROM x IN DEPARTMENTS ORDER BY x.BUDGET DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Ordered {
		t.Error("ORDER BY result is not a list")
	}
	dnos := intCol(t, got, 0)
	if dnos[0] != 218 || dnos[1] != 417 || dnos[2] != 314 {
		t.Errorf("budget order = %v", dnos)
	}
	fns, _, err := db.Query(`
SELECT DISTINCT z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`)
	if err != nil {
		t.Fatal(err)
	}
	if fns.Len() != 4 { // Leader, Consultant, Secretary, Staff
		t.Errorf("distinct functions = %d: %v", fns.Len(), fns)
	}
}

// SQL DDL round trip: create, insert, query, reopen from disk.
func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
CREATE TABLE DEPARTMENTS (
  DNO INT, MGRNO INT,
  PROJECTS TABLE OF (PNO INT, PNAME STRING,
    MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING)),
  BUDGET INT,
  EQUIP TABLE OF (QU INT, TYPE STRING)
);
INSERT INTO DEPARTMENTS VALUES
 (314, 56194, {(17, 'CGA', {(39582, 'Leader'), (56019, 'Consultant')})}, 320000, {(2, '3278')});
CREATE INDEX fn ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION) USING HIERARCHICAL;
`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, _, err := db2.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuples[0][0].(model.Int) != 314 {
		t.Errorf("after reopen: %v", got)
	}
}

// Crash recovery: committed statements survive a crash (buffer pool
// dropped without flushing).
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
CREATE TABLE NOTES (ID INT, BODY STRING);
INSERT INTO NOTES VALUES (1, 'survives');
`); err != nil {
		t.Fatal(err)
	}
	// Crash: drop buffers, close only the files.
	db.pool.InvalidateAll()
	db.log.Close()
	for _, st := range db.stores {
		db.pool.Store(st.Segment()).Close()
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, _, err := db2.Query(`SELECT n.ID, n.BODY FROM n IN NOTES`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuples[0][1].(model.Str) != "survives" {
		t.Errorf("after crash recovery: %v", got)
	}
}

// Layout option via SQL.
func TestCreateTableLayouts(t *testing.T) {
	db := openOffice(t)
	for _, l := range []string{"SS1", "SS2", "SS3"} {
		stmt := fmt.Sprintf(`CREATE TABLE T_%s (A INT, B TABLE OF (C INT)) LAYOUT %s`, l, l)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO T_%s VALUES (1, {(2), (3)})`, l)); err != nil {
			t.Fatal(err)
		}
		got, _, err := db.Query(fmt.Sprintf(`SELECT t.A, COUNT(t.B) FROM t IN T_%s`, l))
		if err != nil {
			t.Fatal(err)
		}
		if got.Tuples[0][1].(model.Int) != 2 {
			t.Errorf("%s: count = %v", l, got.Tuples[0][1])
		}
		mgr, _ := db.Manager("T_" + l)
		want := map[string]object.Layout{"SS1": object.SS1, "SS2": object.SS2, "SS3": object.SS3}[l]
		if mgr.Layout() != want {
			t.Errorf("layout = %s, want %s", mgr.Layout(), want)
		}
	}
}

// queryPair is Query for tests that cannot fail; it panics on error.
func (db *DB) queryPair(q string) (*model.Table, *model.TableType, error) {
	tbl, tt, err := db.Query(q)
	if err != nil {
		panic(err)
	}
	return tbl, tt, err
}

// EXPLAIN reports access paths without executing.
func TestExplain(t *testing.T) {
	db := openOffice(t)
	res, err := db.Exec(`EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS, y IN x.PROJECTS
WHERE EXISTS p IN x.PROJECTS EXISTS z IN p.MEMBERS: z.FUNCTION = 'Consultant'`)
	if err != nil {
		t.Fatal(err)
	}
	msg := res[0].Message
	if !strings.Contains(msg, "full table scan") || !strings.Contains(msg, "iterate subtable") {
		t.Errorf("explain without index:\n%s", msg)
	}
	if err := db.CreateIndex("fn", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec(`EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS p IN x.PROJECTS EXISTS z IN p.MEMBERS: z.FUNCTION = 'Consultant'`)
	if err != nil {
		t.Fatal(err)
	}
	msg = res[0].Message
	if !strings.Contains(msg, "index fn") || !strings.Contains(msg, "candidate object") {
		t.Errorf("explain with index:\n%s", msg)
	}
	// Dropping the index reverts the plan to a scan.
	if err := db.DropIndex("fn"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Exec(`EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS p IN x.PROJECTS EXISTS z IN p.MEMBERS: z.FUNCTION = 'Consultant'`)
	if !strings.Contains(res[0].Message, "full table scan") {
		t.Errorf("explain after drop:\n%s", res[0].Message)
	}
}

// SHOW TABLES and DESCRIBE.
func TestShowDescribe(t *testing.T) {
	db := openOffice(t)
	res, err := db.Exec(`SHOW TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Table.Len() != 7 {
		t.Errorf("SHOW TABLES rows = %d", res[0].Table.Len())
	}
	res, err = db.Exec(`DESCRIBE DEPARTMENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Message, "PROJECTS") || !strings.Contains(res[0].Message, "{") {
		t.Errorf("DESCRIBE = %s", res[0].Message)
	}
	if _, err := db.Exec(`DESCRIBE NOPE`); err == nil {
		t.Error("DESCRIBE of missing table succeeded")
	}
}

// ASOF against an unversioned table must fail loudly.
func TestASOFRequiresVersioned(t *testing.T) {
	db := openOffice(t)
	if _, _, err := db.Query(`SELECT x.EMPNO FROM x IN EMPLOYEES_1NF ASOF 1`); err == nil {
		t.Error("ASOF on unversioned table succeeded")
	}
}

// Statement-level error surfaces cleanly and leaves the db usable.
func TestErrorsLeaveDBUsable(t *testing.T) {
	db := openOffice(t)
	bad := []string{
		`SELECT x.NOPE FROM x IN DEPARTMENTS`,
		`SELECT * FROM x IN MISSING_TABLE`,
		`SELECT x.DNO, y.PNO FROM x IN DEPARTMENTS, y IN x.BUDGET`, // atomic in FROM
		`INSERT INTO DEPARTMENTS VALUES (1)`,                       // arity
		`INSERT INTO DEPARTMENTS VALUES ('x', 1, {}, 1, {})`,       // type
		`UPDATE x IN DEPARTMENTS SET PROJECTS = 1 WHERE x.DNO = 314`,
		`CREATE TABLE DEPARTMENTS (A INT)`,                // duplicate
		`CREATE INDEX i1 ON DEPARTMENTS (PROJECTS)`,       // subtable path
		`CREATE INDEX i2 ON DEPARTMENTS (NOPE)`,           // missing attr
		`CREATE TEXT INDEX t1 ON DEPARTMENTS (DNO)`,       // non-string
		`SELECT * FROM x IN DEPARTMENTS, y IN x.PROJECTS`, // star multi-var
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("accepted bad statement %q", q)
		}
	}
	// Still healthy.
	got, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS`)
	if err != nil || got.Len() != 3 {
		t.Fatalf("db unusable after errors: %v, %v", got, err)
	}
}

// Subtable iteration over an ordered list preserves order through SQL.
func TestOrderedIterationThroughSQL(t *testing.T) {
	db := openOffice(t)
	got, tt, err := db.Query(`SELECT a.NAME FROM x IN REPORTS, a IN x.AUTHORS WHERE x.REPNO = '0189'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Tuples[0][0].(model.Str) != "Tilda" || got.Tuples[1][0].(model.Str) != "Abraham" {
		t.Errorf("author order = %v", got)
	}
	_ = tt
}

// ALTER TABLE ADD: schema evolution with null back-fill, at the top
// level, in nested levels, and on flat tables.
func TestAlterTableAdd(t *testing.T) {
	db := openOffice(t)
	if _, err := db.Exec(`ALTER TABLE DEPARTMENTS ADD LOCATION STRING`); err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Query(`SELECT x.DNO, x.LOCATION FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.IsNull(got.Tuples[0][1]) {
		t.Errorf("pre-existing tuple's new attribute = %v, want NULL", got.Tuples[0][1])
	}
	// New attribute is writable.
	if _, err := db.Exec(`UPDATE x IN DEPARTMENTS SET LOCATION = 'Heidelberg' WHERE x.DNO = 314`); err != nil {
		t.Fatal(err)
	}
	got, _, _ = db.queryPair(`SELECT x.LOCATION FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if got.Tuples[0][0].(model.Str) != "Heidelberg" {
		t.Errorf("location = %v", got.Tuples[0][0])
	}
	// Nested level.
	if _, err := db.Exec(`ALTER TABLE DEPARTMENTS ADD PROJECTS.STATUS STRING`); err != nil {
		t.Fatal(err)
	}
	got, _, err = db.Query(`SELECT y.PNO, y.STATUS FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE y.PNO = 17`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.IsNull(got.Tuples[0][1]) {
		t.Errorf("nested new attribute = %v", got.Tuples[0][1])
	}
	if _, err := db.Exec(`
UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET STATUS = 'active' WHERE y.PNO = 17`); err != nil {
		t.Fatal(err)
	}
	// Flat table.
	if _, err := db.Exec(`ALTER TABLE EMPLOYEES_1NF ADD PHONE STRING`); err != nil {
		t.Fatal(err)
	}
	got, _, err = db.Query(`SELECT e.LNAME, e.PHONE FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 56194`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.IsNull(got.Tuples[0][1]) {
		t.Errorf("flat new attribute = %v", got.Tuples[0][1])
	}
	// New inserts must supply the new attribute.
	if _, err := db.Exec(`INSERT INTO EMPLOYEES_1NF VALUES (1, 'New', 'Guy', 'male', '555')`); err != nil {
		t.Fatal(err)
	}
	// Errors.
	for _, q := range []string{
		`ALTER TABLE DEPARTMENTS ADD DNO INT`,    // duplicate
		`ALTER TABLE DEPARTMENTS ADD NOPE.X INT`, // bad path
		`ALTER TABLE DEPARTMENTS ADD DNO.X INT`,  // through atomic
		`ALTER TABLE MISSING ADD A INT`,          // no table
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
	// The altered schema persists and old objects stay readable.
	whole, _, err := db.Query(`SELECT * FROM x IN DEPARTMENTS`)
	if err != nil || whole.Len() != 3 {
		t.Fatalf("full read after alters: %v, %v", whole, err)
	}
}

// ALTER persists across reopen.
func TestAlterPersists(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
CREATE TABLE T (A INT, S TABLE OF (B INT));
INSERT INTO T VALUES (1, {(2)});
ALTER TABLE T ADD C STRING;
ALTER TABLE T ADD S.D INT;
`); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, _, err := db2.Query(`SELECT t.A, t.C, s.B, s.D FROM t IN T, s IN t.S`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !model.IsNull(got.Tuples[0][1]) || !model.IsNull(got.Tuples[0][3]) {
		t.Errorf("after reopen: %v", got)
	}
}

// An index created on an attribute added by ALTER over pre-existing
// data treats the missing values as null and stays consistent as the
// attribute gets populated.
func TestIndexOnAlteredAttribute(t *testing.T) {
	db := openOffice(t)
	if _, err := db.Exec(`ALTER TABLE DEPARTMENTS ADD PROJECTS.STATUS STRING`); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("st", "DEPARTMENTS", []string{"PROJECTS", "STATUS"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS: y.STATUS = 'active'`)
	if err != nil || got.Len() != 0 {
		t.Fatalf("before population: %v, %v", got, err)
	}
	if _, err := db.Exec(`
UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET STATUS = 'active' WHERE y.PNO = 25`); err != nil {
		t.Fatal(err)
	}
	got, _, err = db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS: y.STATUS = 'active'`)
	if err != nil || got.Len() != 1 || got.Tuples[0][0].(model.Int) != 218 {
		t.Fatalf("after population: %v, %v", got, err)
	}
}

// Flat-table DML through SQL maintains flat indexes and text indexes.
func TestFlatDMLWithIndexes(t *testing.T) {
	db := openOffice(t)
	if err := db.CreateIndex("lname", "EMPLOYEES_1NF", []string{"LNAME"}, "DATA"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT e.EMPNO FROM e IN EMPLOYEES_1NF WHERE e.LNAME = 'Schmidt'`
	before, _, _ := db.queryPair(q)
	if before.Len() != 1 {
		t.Fatalf("before = %d", before.Len())
	}
	if _, err := db.Exec(`UPDATE e IN EMPLOYEES_1NF SET LNAME = 'Schmitt' WHERE e.EMPNO = 56194`); err != nil {
		t.Fatal(err)
	}
	after, _, _ := db.queryPair(q)
	if after.Len() != 0 {
		t.Errorf("index kept stale entry after flat update")
	}
	renamed, _, _ := db.queryPair(`SELECT e.EMPNO FROM e IN EMPLOYEES_1NF WHERE e.LNAME = 'Schmitt'`)
	if renamed.Len() != 1 {
		t.Errorf("updated entry missing from index")
	}
	if _, err := db.Exec(`DELETE e FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 56194`); err != nil {
		t.Fatal(err)
	}
	gone, _, _ := db.queryPair(`SELECT e.EMPNO FROM e IN EMPLOYEES_1NF WHERE e.LNAME = 'Schmitt'`)
	if gone.Len() != 0 {
		t.Errorf("deleted tuple still indexed")
	}
	if _, err := db.Exec(`INSERT INTO EMPLOYEES_1NF VALUES (77, 'Schmitt', 'Neu', 'male')`); err != nil {
		t.Fatal(err)
	}
	back, _, _ := db.queryPair(`SELECT e.EMPNO FROM e IN EMPLOYEES_1NF WHERE e.LNAME = 'Schmitt'`)
	if back.Len() != 1 {
		t.Errorf("fresh insert not indexed")
	}
}

// Versioned FLAT tables answer ASOF scans.
func TestFlatVersionedASOF(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE V (A INT, B STRING) VERSIONED`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO V VALUES (1, 'one'), (2, 'two')`); err != nil {
		t.Fatal(err)
	}
	mark := ts
	if _, err := db.Exec(`UPDATE v IN V SET B = 'ONE' WHERE v.A = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE v FROM v IN V WHERE v.A = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO V VALUES (3, 'three')`); err != nil {
		t.Fatal(err)
	}
	old, _, err := db.Query(fmt.Sprintf(`SELECT v.A, v.B FROM v IN V ASOF %d ORDER BY v.A`, mark))
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 2 || old.Tuples[0][1].(model.Str) != "one" || old.Tuples[1][0].(model.Int) != 2 {
		t.Errorf("flat ASOF = %v", old)
	}
	cur, _, _ := db.queryPair(`SELECT v.A FROM v IN V ORDER BY v.A`)
	if cur.Len() != 2 { // 1 and 3
		t.Errorf("current = %v", cur)
	}
}

// DROP TABLE removes everything and frees the name for reuse.
func TestDropTableAndRecreate(t *testing.T) {
	db := openOffice(t)
	if err := db.CreateIndex("fn", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DROP TABLE DEPARTMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(`SELECT * FROM x IN DEPARTMENTS`); err == nil {
		t.Error("query against dropped table succeeded")
	}
	if _, ok := db.IndexByName("fn"); ok {
		t.Error("index survived table drop")
	}
	if _, err := db.Exec(`CREATE TABLE DEPARTMENTS (DNO INT)`); err != nil {
		t.Fatalf("recreate: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO DEPARTMENTS VALUES (1)`); err != nil {
		t.Fatal(err)
	}
}

// Checkpoint flushes; buffer stats reflect the write-back.
func TestCheckpointWritesBack(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE T (A INT); INSERT INTO T VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	db.Pool().ResetStats()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Pool().Stats().Writes == 0 {
		t.Error("checkpoint wrote nothing")
	}
}

// Regression: ASOF scans must still see versions written before an
// ALTER TABLE ADD (they have fewer atoms than the current schema).
func TestFlatASOFAfterAlter(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE V (A INT) VERSIONED; INSERT INTO V VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	mark := ts
	if _, err := db.Exec(`ALTER TABLE V ADD B STRING`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO V VALUES (2, 'post-alter')`); err != nil {
		t.Fatal(err)
	}
	old, _, err := db.Query(fmt.Sprintf(`SELECT v.A, v.B FROM v IN V ASOF %d`, mark))
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 1 || old.Tuples[0][0].(model.Int) != 1 || !model.IsNull(old.Tuples[0][1]) {
		t.Errorf("ASOF after ALTER = %v", old)
	}
	cur, _, _ := db.queryPair(`SELECT v.A FROM v IN V`)
	if cur.Len() != 2 {
		t.Errorf("current rows = %d", cur.Len())
	}
}
