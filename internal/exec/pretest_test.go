package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sql"
)

// scanColdStatements is the statement cycle of the scan_cold workload
// (bench/scan.go) with the Fig 7 statement on project pno.
func scanColdStatements(pno int) []string {
	return []string{
		`SELECT x.DNO, x.MGRNO, PROJECTS = (SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS), x.BUDGET, EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP) FROM x IN DEPARTMENTS`,
		`SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`,
		`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`,
		`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Consultant'`,
		`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: y.PNAME CONTAINS '*VLSI*'`,
		fmt.Sprintf(`SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: (y.PNO = %d AND EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant')`, pno),
	}
}

// What compiles into a pre-test and what does not: literal operands of a
// kind Compare accepts (negative numbers and Int against Float
// included), CONTAINS, AND/OR/NOT and quantifiers over the item's own
// subtables — per top-level conjunct, onto the item the conjunct names.
func TestPreTestCompiles(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE F (A INT, B STRING)`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, want string }{
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314 AND x.BUDGET > x.MGRNO`, "test DNO = 314"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE 314 < x.DNO`, "test DNO > 314"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO >= -5 AND x.BUDGET <> 3.5`, "test DNO >= -5 AND BUDGET <> 3.5"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 'abc'`, "no test"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = NULL`, "no test"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`, "no test"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE NOT (x.DNO = 1 OR x.DNO = 2)`, "test NOT (DNO = 1 OR DNO = 2)"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE (x.DNO = 1 AND x.MGRNO = 2) OR x.BUDGET = 3`, "test (DNO = 1 AND MGRNO = 2) OR BUDGET = 3"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: y.PNO = x.DNO`, "no test"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: y.PNAME CONTAINS 'it''s'`, "test EXISTS PROJECTS (PNAME CONTAINS 'it''s')"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: y.PNO CONTAINS 'a'`, "no test"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS x IN x.PROJECTS: x.PNO = 1`, "test EXISTS PROJECTS (PNO = 1)"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE y.PNO = 1 AND x.DNO = 2`, "test DNO = 2"},
		{`SELECT x.PNO FROM x IN DEPARTMENTS, x IN x.PROJECTS WHERE x.PNO = 1`, "no test"},
		{`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS d IN DEPARTMENTS: d.DNO = 1`, "no test"},
		{`SELECT f.A FROM f IN F WHERE f.A = 1`, "no test"},
		{`DELETE x FROM x IN DEPARTMENTS WHERE x.BUDGET >= 100`, "test BUDGET >= 100"},
		{`UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET PNAME = 'p' WHERE x.DNO = 1`, "test DNO = 1"},
	} {
		st, err := sql.ParseOne(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		blk, err := db.Executor().Bind(st)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got := blk.Paths[0].DescribeTest(); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.q, got, c.want)
		}
	}
}

// EXPLAIN renders each FROM item's pre-test next to its access path and
// fetch set. Pinned for the seven scan_cold statements, over the same
// indexes the workload creates, and for the whole block tree of the first
// and of a correlated sub-block.
func TestExplainShowsPreTest(t *testing.T) {
	db := openDB(t)
	if err := db.CreateIndex("DEPT_FUNCTION", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTextIndex("DEPT_PNAME", "DEPARTMENTS", []string{"PROJECTS", "PNAME"}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`x IN DEPARTMENTS: full table scan, fetch {atoms, PROJECTS: {atoms, MEMBERS: {atoms}}, EQUIP: {atoms}}, no test`,
		`x IN DEPARTMENTS: full table scan, fetch {atoms, PROJECTS: {atoms, MEMBERS: {atoms}}}, no test`,
		`x IN DEPARTMENTS: full table scan, fetch {atoms, EQUIP: {atoms}}, test EXISTS EQUIP (TYPE = 'PC/AT')`,
		`x IN DEPARTMENTS: full table scan, fetch {atoms, PROJECTS: {MEMBERS: {atoms}}}, test ALL PROJECTS ALL MEMBERS (FUNCTION = 'Consultant')`,
		`x IN DEPARTMENTS: full table scan, fetch {atoms}, no test`,
		`x IN DEPARTMENTS: full table scan, fetch {atoms, PROJECTS: {atoms}}, test EXISTS PROJECTS (PNAME CONTAINS '*VLSI*')`,
		`x IN DEPARTMENTS: full table scan, fetch {atoms, PROJECTS: {atoms, MEMBERS: {atoms}}}, test EXISTS PROJECTS (PNO = 17 AND EXISTS MEMBERS (FUNCTION = 'Consultant'))`,
	}
	for i, q := range scanColdStatements(17) {
		res, err := db.Exec(`EXPLAIN ` + q)
		if err != nil {
			t.Fatalf("statement %d: %v", i+1, err)
		}
		if got := strings.Split(res[0].Message, "\n")[0]; got != want[i] {
			t.Errorf("statement %d:\n got %s\nwant %s", i+1, got, want[i])
		}
	}

	// The whole block tree: each sub-block's FROM items indented under the
	// select item that owns it — a path iteration, or a stored scan with
	// its fetch set and pre-test — and the fetch set and pre-test of each
	// quantifier over a stored table, in the block whose expression holds
	// it. An identity sub-block the row takes says so on its own line. The
	// prepared plan renders the same tree, with the access path chosen at
	// bind time.
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		want []string
	}{
		{scanColdStatements(17)[0], []string{
			`x IN DEPARTMENTS: full table scan, fetch {atoms, PROJECTS: {atoms, MEMBERS: {atoms}}, EQUIP: {atoms}}, no test`,
			`PROJECTS = (SELECT …): fetched subtable, not rebuilt`,
			`  y IN x.PROJECTS: iterate subtable of outer binding`,
			`  MEMBERS = (SELECT …):`,
			`    z IN y.MEMBERS: iterate subtable of outer binding`,
			`EQUIP = (SELECT …): fetched subtable, not rebuilt`,
			`  v IN x.EQUIP: iterate subtable of outer binding`,
		}},
		{`SELECT x.DNO, PEERS = (SELECT d.DNO, d.BUDGET FROM d IN DEPARTMENTS WHERE d.MGRNO <> x.MGRNO AND d.BUDGET > 100 AND EXISTS r IN REPORTS: EXISTS a IN r.AUTHORS: a.NAME = 'Jones') FROM x IN DEPARTMENTS WHERE x.DNO = 314`, []string{
			`x IN DEPARTMENTS: index DEPT_DNO(DNO)=314 -> 1 candidate object(s), fetch {atoms}, test DNO = 314`,
			`PEERS = (SELECT …):`,
			`  d IN DEPARTMENTS: full table scan, fetch {atoms}, test BUDGET > 100`,
			`  EXISTS r IN REPORTS: full table scan, fetch {AUTHORS: {atoms}}, test EXISTS AUTHORS (NAME = 'Jones')`,
		}},
	} {
		res, err := db.Exec(`EXPLAIN ` + c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		lines := strings.Split(res[0].Message, "\n")
		if got := strings.Join(lines[:min(len(lines), len(c.want))], "\n"); got != strings.Join(c.want, "\n") {
			t.Errorf("%s:\n got %s\nwant %s", c.q, res[0].Message, strings.Join(c.want, "\n"))
		}
		if strings.Contains(lines[len(c.want)], " IN ") {
			t.Errorf("%s: more plan lines than the tree has:\n%s", c.q, res[0].Message)
		}
		ps, err := db.Prepare(c.q)
		if err != nil {
			t.Fatal(err)
		}
		bound, _, err := ps.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(bound[1:], "\n"), strings.Join(c.want[1:], "\n"); got != want {
			t.Errorf("%s: prepared plan:\n got %s\nwant %s", c.q, got, want)
		}
	}
}
