package plan_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/testdata"
)

// openIndexed builds an office database with hierarchical indexes on
// FUNCTION and PNO plus a text index on report titles.
func openIndexed(t testing.TB) *engine.DB {
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
	if err := db.CreateIndex("fn", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("dno", "DEPARTMENTS", []string{"DNO"}, "ROOT"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTextIndex("title", "REPORTS", []string{"TITLE"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// choose binds q as an ad hoc statement and evaluates its access
// choices against the auto-commit runtime.
func choose(t *testing.T, db *engine.DB, q string) map[int]*exec.Candidates {
	t.Helper()
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Bind(st, db.Executor())
	if err != nil {
		t.Fatal(err)
	}
	return p.Candidates(db.Runtime(), nil)
}

func TestChooseDirectEquality(t *testing.T) {
	db := openIndexed(t)
	cands := choose(t, db, `SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
	if cands == nil || cands[0] == nil {
		t.Fatal("no access path chosen for DNO = 314")
	}
	if len(cands[0].Refs) != 1 {
		t.Errorf("candidates = %d, want 1", len(cands[0].Refs))
	}
}

func TestChooseExistsChain(t *testing.T) {
	db := openIndexed(t)
	cands := choose(t, db, `
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
	if cands == nil || cands[0] == nil {
		t.Fatal("no access path for the EXISTS chain")
	}
	if len(cands[0].Refs) != 2 { // departments 314 and 218
		t.Errorf("candidates = %d, want 2", len(cands[0].Refs))
	}
}

func TestChooseConjunctionIntersects(t *testing.T) {
	db := openIndexed(t)
	cands := choose(t, db, `
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE x.DNO = 218
  AND EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
	if cands == nil || cands[0] == nil {
		t.Fatal("no access path for the conjunction")
	}
	if len(cands[0].Refs) != 1 {
		t.Errorf("intersection = %d candidates, want 1", len(cands[0].Refs))
	}
}

func TestChooseTextPredicate(t *testing.T) {
	db := openIndexed(t)
	cands := choose(t, db, `
SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*concurrency*'`)
	if cands == nil || cands[0] == nil {
		t.Fatal("no access path for CONTAINS")
	}
	if len(cands[0].Refs) != 1 {
		t.Errorf("text candidates = %d, want 1", len(cands[0].Refs))
	}
}

func TestChooseDeclinesUnindexable(t *testing.T) {
	db := openIndexed(t)
	cases := []string{
		// No index on BUDGET.
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET = 320000`,
		// Inequality is not an index-eq predicate.
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO <> 314`,
		// OR is not a conjunct.
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314 OR x.DNO = 218`,
		// ALL cannot use an existence index.
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS: y.PNO = 17`,
		// No WHERE at all.
		`SELECT x.DNO FROM x IN DEPARTMENTS`,
	}
	for _, q := range cases {
		cands := choose(t, db, q)
		if cands != nil && cands[0] != nil {
			t.Errorf("planner chose an index for %q: %v", q, cands[0].Why)
		}
	}
}

func TestChooseIgnoresASOFItems(t *testing.T) {
	// ASOF state may differ from the index (which reflects now), so
	// the planner must not use indexes for ASOF items.
	ts := int64(0)
	db, err := engine.Open(engine.Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{Versioned: true}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Departments().Tuples {
		db.Insert("DEPARTMENTS", tup)
	}
	if err := db.CreateIndex("dno", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	cands := choose(t, db, `SELECT x.DNO FROM x IN DEPARTMENTS ASOF 1 WHERE x.DNO = 314`)
	if cands != nil && cands[0] != nil {
		t.Error("planner used an index for an ASOF item")
	}
}

func TestChooseSkipsDataTIDIndexes(t *testing.T) {
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Departments().Tuples {
		db.Insert("DEPARTMENTS", tup)
	}
	if err := db.CreateIndex("fn_data", "DEPARTMENTS", []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "DATA"); err != nil {
		t.Fatal(err)
	}
	cands := choose(t, db, `
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`)
	if cands != nil && cands[0] != nil {
		t.Error("planner chose a DATA-TID index, which cannot locate objects (§4.2)")
	}
}

// Whatever the planner chooses must be a superset of the true result:
// indexed and unindexed evaluation agree on a battery of queries.
func TestPlannerSoundness(t *testing.T) {
	queries := []string{
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 999`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Nobody'`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314 AND EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant'`,
		`SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*edit*'`,
	}
	plain, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{})
	plain.CreateTable("REPORTS", testdata.ReportsType(), engine.TableOptions{})
	for _, tup := range testdata.Departments().Tuples {
		plain.Insert("DEPARTMENTS", tup)
	}
	for _, tup := range testdata.Reports().Tuples {
		plain.Insert("REPORTS", tup)
	}
	indexed := openIndexed(t)
	for _, q := range queries {
		a, _, err := plain.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, _, err := indexed.Query(q)
		if err != nil {
			t.Fatalf("%s (indexed): %v", q, err)
		}
		if !model.TableEqual(a, b) {
			t.Errorf("indexed evaluation differs for %q:\nplain   %v\nindexed %v", q, a, b)
		}
	}
}

// Range predicates use inclusive B-tree scans; exclusive bounds
// over-approximate and the executor filters, so results match scans.
func TestChooseRangePredicates(t *testing.T) {
	db := openIndexed(t)
	if err := db.CreateIndex("budget", "DEPARTMENTS", []string{"BUDGET"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	cands := choose(t, db, `SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 330000`)
	if cands == nil || cands[0] == nil || !strings.Contains(cands[0].Why, "range") {
		t.Fatalf("no range access path: %+v", cands)
	}
	// 440000 and 360000 qualify; 320000 does not (boundary superset ok).
	if len(cands[0].Refs) > 3 || len(cands[0].Refs) < 2 {
		t.Errorf("range candidates = %d", len(cands[0].Refs))
	}
	// Result equivalence against an index-less database.
	plain, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{})
	for _, tup := range testdata.Departments().Tuples {
		plain.Insert("DEPARTMENTS", tup)
	}
	for _, q := range []string{
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 330000`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= 360000`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET < 330000`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE 330000 < x.BUDGET`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET <= 320000`,
	} {
		a, _, err := plain.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, _, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s (indexed): %v", q, err)
		}
		if !model.TableEqual(a, b) {
			t.Errorf("range query %q differs:\nplain %v\nindexed %v", q, a, b)
		}
	}
}
