package engine

import (
	"strings"
	"testing"

	"repro/internal/testdata"
)

// nestedPoint is the nested projection of one department that the
// point_warm benchmark workload prepares: three blocks, the two inner
// ones iterating subtables of the outer binding.
const nestedPoint = `SELECT x.DNO, PROJECTS = (SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS) FROM x IN DEPARTMENTS WHERE x.DNO = ?`

// TestNestedSelectAllocBudget holds the nested projection of one
// department of 8 projects × 12 members to an allocation budget, prepared
// and ad hoc, streamed to the end through Rows. The statement is bound
// once per execution at most, each sub-block's cursor is opened once and
// rewound for every later outer row, and a nested result is one table, one
// slice of rows and one slab of values; what is left is the object read
// (one slab per subtable), the 104 result tuples' share of those slabs and
// a fixed handful per statement. A change that binds, opens a cursor or
// allocates a tuple per row again breaks the budget.
func TestNestedSelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), TableOptions{}); err != nil {
		t.Fatal(err)
	}
	dept := testdata.GenDepartments(testdata.GenConfig{Departments: 1, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4, Seed: 1}).Tuples[0]
	if err := db.Insert("DEPARTMENTS", dept); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(nestedPoint)
	if err != nil {
		t.Fatal(err)
	}
	adhoc := strings.Replace(nestedPoint, "?", dept[0].String(), 1)
	for _, c := range []struct {
		name   string
		budget float64
		open   func() (*Rows, error)
	}{
		{"prepared", 121, func() (*Rows, error) { return ps.QueryRows(dept[0]) }},
		{"ad hoc", 210, func() (*Rows, error) { return db.QueryRows(adhoc) }},
	} {
		got := testing.AllocsPerRun(200, func() {
			rows, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Close(); err != nil || n != 1 {
				t.Fatalf("%s: %d rows, %v", c.name, n, err)
			}
		})
		if got > c.budget {
			t.Errorf("%s: the nested statement allocates %.0f times, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: the nested statement allocates %.0f times (budget %.0f)", c.name, got, c.budget)
		}
	}
}
