package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/page"
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

// choice is the candidate list of one FROM item with its EXPLAIN text.
type choice struct {
	Refs []page.TID
	Why  string
}

// choose binds q as an ad hoc statement and evaluates its access
// choices against the auto-commit runtime, keyed by FROM item.
func choose(t *testing.T, db *engine.DB, q string) map[int]*choice {
	t.Helper()
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Bind(st, db.Executor())
	if err != nil {
		t.Fatal(err)
	}
	var out map[int]*choice
	for i, c := range p.Candidates(db.Runtime(), nil) {
		if c.Used == 0 {
			continue
		}
		if out == nil {
			out = make(map[int]*choice)
		}
		out[i] = &choice{Refs: c.Refs, Why: p.Access[i].Why(c.Used, c.Own, nil, db.Runtime())}
	}
	return out
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

// TestChooseASOFByWatermark: an item read at an explicit ASOF instant
// uses its index from the index's watermark on and is scanned before it.
// The watermark starts at the index's build and rises past every
// key-changing write, so an ASOF before the build or before the last
// such write scans, and one after it uses the index.
func TestChooseASOFByWatermark(t *testing.T) {
	ts := int64(0)
	db, err := engine.Open(engine.Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{Versioned: true}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Departments().Tuples {
		if err := db.Insert("DEPARTMENTS", tup); err != nil {
			t.Fatal(err)
		}
	}
	beforeIndex := db.Now()
	if err := db.CreateIndex("dno", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	ix, _ := db.IndexByName("dno")
	afterIndex := db.Now()
	// at evaluates the one item of an ASOF point query: its candidate
	// list (nil when it is scanned) and its EXPLAIN text.
	at := func(instant int64, dno int) ([]page.TID, bool, string) {
		t.Helper()
		q := fmt.Sprintf(`SELECT x.DNO FROM x IN DEPARTMENTS ASOF %d WHERE x.DNO = %d`, instant, dno)
		st, err := sql.ParseOneStmt(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Bind(st, db.Executor())
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Access) != 1 || len(p.Access[0]) != 1 || p.Access[0][0].AsOf != instant {
			t.Fatalf("%s: access choices %+v, want one at %d", q, p.Access, instant)
		}
		var c exec.Candidates
		if cs := p.Candidates(db.Runtime(), nil); cs != nil {
			c = cs[0]
		}
		return c.Refs, c.Used != 0, p.Access[0].Why(c.Used, c.Own, nil, db.Runtime())
	}
	scans := func(instant int64, dno int) {
		t.Helper()
		w := ix.Watermark()
		if _, used, why := at(instant, dno); used || why != fmt.Sprintf("scan: index dno holds no entries before %d", w) {
			t.Errorf("ASOF %d (watermark %d): used %v, %q; want a scan", instant, w, used, why)
		}
	}
	uses := func(instant int64, dno int, want int) {
		t.Helper()
		refs, used, why := at(instant, dno)
		if !used || len(refs) != want || why != fmt.Sprintf("index dno(DNO)=%d at %d", dno, instant) {
			t.Errorf("ASOF %d (watermark %d): used %v, %d candidates, %q; want the index, %d candidates", instant, ix.Watermark(), used, len(refs), why, want)
		}
	}

	if w := ix.Watermark(); w <= beforeIndex || w >= afterIndex {
		t.Fatalf("watermark %d after a build between %d and %d", w, beforeIndex, afterIndex)
	}
	scans(beforeIndex, 314)
	uses(afterIndex, 314, 1)

	// A write that keeps the key removes no entry: the watermark stays.
	if _, err := db.Exec(`UPDATE x IN DEPARTMENTS SET BUDGET = 1 WHERE x.DNO = 314`); err != nil {
		t.Fatal(err)
	}
	uses(afterIndex, 314, 1)

	// A key-changing write removes the old entry after its stamp.
	if _, err := db.Exec(`UPDATE x IN DEPARTMENTS SET DNO = 999 WHERE x.DNO = 314`); err != nil {
		t.Fatal(err)
	}
	afterUpdate := db.Now()
	scans(afterIndex, 314)
	uses(afterUpdate, 314, 0)
	uses(afterUpdate, 999, 1)
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
