package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/lorie"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/segment"
	"repro/internal/sql"
	"repro/internal/subtuple"
)

// Re-executing a PreparedStmt performs zero parser and zero planner
// work: parse happened once in Prepare, bind once per catalog epoch,
// and every subsequent execution reuses both. The planning counters
// count what the benchmark says they count: ChooseCount one per ad hoc
// statement with a FROM list, PrepareCount one per plan-cache miss.
func TestPreparedZeroParsePlanWork(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(`SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// First execution settles any lazy work.
	if _, _, err := ps.Query(model.Int(314)); err != nil {
		t.Fatal(err)
	}

	parsed0 := sql.StatementsParsed()
	prepares0 := plan.PrepareCount()
	chooses0 := plan.ChooseCount()
	for i := 0; i < 50; i++ {
		dno := model.Int([]int64{314, 218, 417}[i%3])
		tbl, _, err := ps.Query(dno)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 || tbl.Tuples[0][0] != dno {
			t.Fatalf("iteration %d: got %v for DNO %v", i, tbl.Tuples, dno)
		}
	}
	if d := sql.StatementsParsed() - parsed0; d != 0 {
		t.Errorf("re-execution parsed %d statement(s), want 0", d)
	}
	if d := plan.PrepareCount() - prepares0; d != 0 {
		t.Errorf("re-execution ran the bind phase %d time(s), want 0", d)
	}
	if d := plan.ChooseCount() - chooses0; d != 0 {
		t.Errorf("re-execution planned ad hoc %d time(s), want 0", d)
	}

	// The plan actually uses the index (not a full scan that happens
	// to be correct).
	lines, _, err := ps.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "DEPT_DNO") {
		t.Errorf("prepared plan does not use DEPT_DNO:\n%s", strings.Join(lines, "\n"))
	}

	// Prepared DML plans once too — in auto-commit and in a transaction —
	// and explains the access path and fetch set of its FROM list.
	dml := []struct {
		q     string
		fetch string // the bound fetch set of x
		args  func(i int, dno, pno model.Int) []model.Value
	}{
		{`UPDATE x IN DEPARTMENTS SET BUDGET = ? WHERE x.DNO = ?`, "fetch {atoms}",
			func(i int, dno, _ model.Int) []model.Value { return []model.Value{model.Int(100000 + i), dno} }},
		{`INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = ? AND y.PNO = ? VALUES (?, ?)`,
			"fetch {atoms, PROJECTS: {atoms, MEMBERS: {members}}}",
			func(i int, dno, pno model.Int) []model.Value {
				return []model.Value{dno, pno, model.Int(1000 + i), model.Str("Temp")}
			}},
		{`DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE x.DNO = ? AND z.EMPNO = ?`,
			"fetch {atoms, PROJECTS: {MEMBERS: {atoms}}}",
			func(i int, dno, _ model.Int) []model.Value { return []model.Value{dno, model.Int(1000 + i)} }},
	}
	stmts := make([]*PreparedStmt, len(dml))
	for j, d := range dml {
		if stmts[j], err = db.Prepare(d.q); err != nil {
			t.Fatal(err)
		}
		lines, _, err := stmts[j].Explain()
		if err != nil {
			t.Fatal(err)
		}
		if plan := strings.Join(lines, "\n"); !strings.Contains(plan, "index DEPT_DNO") || !strings.Contains(plan, d.fetch) {
			t.Errorf("%s: plan %q lacks the DEPT_DNO access path or %q", d.q, plan, d.fetch)
		}
	}
	ctx := context.Background()
	runDML := func(i int, tx *Txn) {
		t.Helper()
		dno, pno := []model.Int{314, 218, 417}[i%3], []model.Int{17, 25, 37}[i%3]
		for j, d := range dml {
			var res Result
			var err error
			if tx != nil {
				res, err = tx.ExecPrepared(ctx, stmts[j], d.args(i, dno, pno)...)
			} else {
				res, err = stmts[j].Exec(d.args(i, dno, pno)...)
			}
			if err != nil || res.Count != 1 {
				t.Fatalf("iteration %d, txn %v: %s: %d affected, %v", i, tx != nil, d.q, res.Count, err)
			}
		}
	}
	inTxn := func(i int) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		runDML(i, tx)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	runDML(0, nil)
	inTxn(1)
	parsed0, prepares0, chooses0 = sql.StatementsParsed(), plan.PrepareCount(), plan.ChooseCount()
	for i := 2; i < 32; i++ {
		if i%2 == 0 {
			runDML(i, nil)
		} else {
			inTxn(i)
		}
	}
	if d := sql.StatementsParsed() - parsed0; d != 0 {
		t.Errorf("DML re-execution parsed %d statement(s), want 0", d)
	}
	if d := plan.PrepareCount() - prepares0; d != 0 {
		t.Errorf("DML re-execution ran the bind phase %d time(s), want 0", d)
	}
	if d := plan.ChooseCount() - chooses0; d != 0 {
		t.Errorf("DML re-execution planned ad hoc %d time(s), want 0", d)
	}

	// The counters the benchmark reads. An ad hoc statement with a FROM
	// list is one planning run (ChooseCount) in any scope, never a Prepare
	// and never a plan-cache lookup; INSERT … VALUES plans nothing.
	cache0 := db.PlanCacheStats()
	for _, c := range []struct {
		what    string
		chooses uint64
		run     func() error
	}{
		{"ad hoc SELECT", 1, func() error {
			_, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
			return err
		}},
		{"ad hoc UPDATE in a Txn", 1, func() error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			if _, err := tx.Exec(`UPDATE x IN DEPARTMENTS SET BUDGET = 1 WHERE x.DNO = 314`); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		}},
		{"ad hoc EXPLAIN", 1, func() error {
			_, err := db.Exec(`EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314`)
			return err
		}},
		{"INSERT … VALUES", 0, func() error {
			_, err := db.Exec(`INSERT INTO DEPARTMENTS VALUES (999, 1, {}, 0, {})`)
			return err
		}},
	} {
		prepares0, chooses0 = plan.PrepareCount(), plan.ChooseCount()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if d := plan.ChooseCount() - chooses0; d != c.chooses {
			t.Errorf("%s ticked ChooseCount by %d, want %d", c.what, d, c.chooses)
		}
		if d := plan.PrepareCount() - prepares0; d != 0 {
			t.Errorf("%s ticked PrepareCount by %d, want 0", c.what, d)
		}
	}
	if got := db.PlanCacheStats(); got != cache0 {
		t.Errorf("ad hoc statements moved the plan cache: %+v, was %+v", got, cache0)
	}

	// PrepareCount ticks on a cache miss only: the first Prepare of a text
	// binds, a second Prepare of the same text is served by the cache.
	const fresh = `SELECT x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	for i, want := range []uint64{1, 0} {
		prepares0, chooses0 = plan.PrepareCount(), plan.ChooseCount()
		if _, err := db.Prepare(fresh); err != nil {
			t.Fatal(err)
		}
		if d := plan.PrepareCount() - prepares0; d != want {
			t.Errorf("Prepare #%d ticked PrepareCount by %d, want %d", i+1, d, want)
		}
		if d := plan.ChooseCount() - chooses0; d != 0 {
			t.Errorf("Prepare #%d ticked ChooseCount by %d, want 0", i+1, d)
		}
	}
}

// Two PreparedStmts over the same normalized SQL share one cached
// plan: the second Prepare is a cache hit, and executing it (a plan
// bound from a different parse's AST) produces the same rows.
func TestPreparedPlanCacheSharing(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	ps1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	hits0 := db.PlanCacheStats().Hits
	// Different surface text, same normalized SQL.
	ps2, err := db.Prepare("SELECT x.DNO,\n   x.MGRNO  FROM x IN DEPARTMENTS WHERE x.DNO=?")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheStats().Hits; got != hits0+1 {
		t.Errorf("second Prepare: cache hits = %d, want %d", got, hits0+1)
	}
	for _, ps := range []*PreparedStmt{ps1, ps2} {
		tbl, _, err := ps.Query(model.Int(218))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 || tbl.Tuples[0][0] != model.Int(218) {
			t.Fatalf("shared-plan query returned %v", tbl.Tuples)
		}
	}
	// The shared plan must still drive the index, not fall back to a
	// scan because the ASTs differ.
	lines, fromCache, err := ps2.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Errorf("ps2 plan should have come from the shared cache")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "DEPT_DNO") {
		t.Errorf("shared plan does not use DEPT_DNO:\n%s", strings.Join(lines, "\n"))
	}
}

// DDL bumps the catalog epoch: the next execution of an existing
// PreparedStmt transparently re-binds (counted as a cache
// invalidation) and keeps returning correct results.
func TestPreparedDDLInvalidates(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	ps, err := db.Prepare(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ps.Query(model.Int(314)); err != nil {
		t.Fatal(err)
	}
	// Before the index exists the plan is a full scan.
	lines, _, err := ps.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "full table scan") {
		t.Fatalf("pre-index plan should be a scan:\n%s", strings.Join(lines, "\n"))
	}

	epoch0 := db.CatalogEpoch()
	inv0 := db.PlanCacheStats().Invalidations
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	if db.CatalogEpoch() == epoch0 {
		t.Fatalf("CreateIndex did not bump the catalog epoch")
	}

	// Re-execution re-binds and picks up the new index.
	tbl, _, err := ps.Query(model.Int(314))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("post-DDL query returned %d rows, want 1", tbl.Len())
	}
	lines, _, err = ps.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "DEPT_DNO") {
		t.Errorf("post-DDL plan does not use the new index:\n%s", strings.Join(lines, "\n"))
	}
	if got := db.PlanCacheStats().Invalidations; got <= inv0 {
		t.Errorf("invalidations = %d, want > %d", got, inv0)
	}

	// Unrelated DDL invalidates too (the epoch is coarse by design)
	// and execution stays correct.
	if _, err := db.Exec(`CREATE TABLE SCRATCH (N INT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _, err = ps.Query(model.Int(218))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Tuples[0][0] != model.Int(218) {
		t.Fatalf("post-CREATE TABLE query returned %v", tbl.Tuples)
	}
}

// A degraded (quarantined) index detaches cached plans: the next
// execution re-binds to a plan that no longer names the index, and a
// stale plan never touches it — results stay correct throughout.
func TestPreparedQuarantinedIndexInvalidates(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = ?`)
	if err != nil {
		t.Fatal(err)
	}
	lines, _, err := ps.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "DEPT_DNO") {
		t.Fatalf("plan should use DEPT_DNO before degradation:\n%s", strings.Join(lines, "\n"))
	}

	db.DegradeIndex("DEPT_DNO", dberr.Corruptf("test: injected corruption"))

	// Execution after the degradation: correct rows via a widened plan.
	tbl, _, err := ps.Query(model.Int(314))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Tuples[0][0] != model.Int(314) {
		t.Fatalf("post-degrade query returned %v", tbl.Tuples)
	}
	lines, _, err = ps.Explain()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if strings.Contains(joined, "DEPT_DNO") {
		t.Errorf("plan still names the quarantined index:\n%s", joined)
	}
	if !strings.Contains(joined, "full table scan") {
		t.Errorf("post-degrade plan should be a scan:\n%s", joined)
	}

	// Rebuilding restores the index and the plan follows.
	if err := db.RebuildIndex("DEPT_DNO"); err != nil {
		t.Fatal(err)
	}
	lines, _, err = ps.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "DEPT_DNO") {
		t.Errorf("plan does not return to the rebuilt index:\n%s", strings.Join(lines, "\n"))
	}
}

// Prepared DML: placeholders in INSERT values, UPDATE SET/WHERE and
// DELETE WHERE, re-executed with different arguments.
func TestPreparedDML(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE NOTES (ID INT, BODY STRING)`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO NOTES VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := ins.Exec(model.Int(i), model.Str(fmt.Sprintf("note-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	upd, err := db.Prepare(`UPDATE x IN NOTES SET BODY = ? WHERE x.ID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := upd.Exec(model.Str("edited"), model.Int(2)); err != nil || res.Count != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
	del, err := db.Prepare(`DELETE x FROM x IN NOTES WHERE x.ID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := del.Exec(model.Int(1)); err != nil || res.Count != 1 {
		t.Fatalf("delete: %v %v", res, err)
	}
	tbl, _, err := db.Query(`SELECT n.ID, n.BODY FROM n IN NOTES WHERE n.ID = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Tuples[0][1] != model.Str("edited") {
		t.Fatalf("after DML: %v", tbl.Tuples)
	}
}

// Argument-count mismatches fail before touching the engine.
func TestPreparedArgCount(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	ps, err := db.Prepare(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = ? AND x.BUDGET > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", ps.NumParams())
	}
	if _, err := ps.Exec(model.Int(1)); err == nil {
		t.Fatal("Exec with 1 of 2 args should fail")
	}
	if _, err := ps.Exec(model.Int(1), model.Int(2), model.Int(3)); err == nil {
		t.Fatal("Exec with 3 of 2 args should fail")
	}
	if _, err := db.Prepare(`BEGIN`); err == nil {
		t.Fatal("Prepare(BEGIN) should fail")
	}
}

// Property matrix: prepared execution with bound arguments is
// observationally identical to unprepared execution with the literals
// inlined, and both to execution without projection pushdown, over
// seeded random nested schemas and values, with the rounds spread over
// the SS1, SS2 and SS3 layouts.
func TestPreparedMatchesUnpreparedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layouts := []object.Layout{object.SS1, object.SS2, object.SS3}
	for round := 0; round < 5; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			runPreparedMatrixRound(t, rand.New(rand.NewSource(int64(100+round))), rng.Intn(2) == 0, layouts[round%len(layouts)])
		})
	}
}

// matrixQuery is one statement of the prepared-vs-unprepared matrix: its
// prepared text, a generator of arguments, the same statement with the
// arguments inlined as literals, for a statement with sub-blocks its
// answer computed here from the rows of T read whole (K, NAME, KIDS of
// (N, TAG, GK of (G)), W), which no sub-block took part in, and a twin:
// a statement that must answer the same, prepared with the same
// arguments.
type matrixQuery struct {
	sql     string
	argf    func() []model.Value
	inlinef func(args []model.Value) string
	oracle  func(all []model.Tuple, args []model.Value) *model.Table
	twin    string
}

// twinned is the matrix entry of a statement of one `?` that projects
// subtables, written as a format: %[1]s marks where each sub-block
// without a WHERE may take one, %[2]s the end of an existing WHERE. The
// statement leaves both empty; its twin fills them with a condition every
// member passes, so that it rebuilds every nested result the statement
// may take as fetched.
func twinned(format string, argf func() []model.Value, oracle func([]model.Tuple, []model.Value) *model.Table) matrixQuery {
	q := oneArg(fmt.Sprintf(format, "", ""), argf, oracle)
	q.twin = fmt.Sprintf(format, " WHERE TRUE", " AND TRUE")
	return q
}

// lorieRows stores the rows of a nested table as Lorie's linked tuples
// (internal/lorie) and returns them as that baseline reads them back.
func lorieRows(t *testing.T, tt *model.TableType, rows []model.Tuple) []model.Tuple {
	t.Helper()
	pool := buffer.NewPool(256)
	pool.Register(1, segment.NewMemStore())
	ls := lorie.New(subtuple.New(subtuple.Config{Pool: pool, Seg: 1}), tt)
	out := make([]model.Tuple, len(rows))
	for i, tup := range rows {
		root, err := ls.Insert(tup)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = ls.Read(root); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// members returns the member tuples of a table value.
func members(v model.Value) []model.Tuple { return v.(*model.Table).Tuples }

// relation builds an unordered table of the rows for which keep holds,
// each shaped by row.
func relation[T any](items []T, keep func(T) bool, row func(T) model.Tuple) *model.Table {
	out := &model.Table{}
	for _, it := range items {
		if keep(it) {
			out.Append(row(it))
		}
	}
	return out
}

func always[T any](T) bool { return true }

// unnested builds an unordered table of the rows each item yields.
func unnested[T any](items []T, yield func(T) []model.Tuple) *model.Table {
	out := &model.Table{}
	for _, it := range items {
		for _, row := range yield(it) {
			out.Append(row)
		}
	}
	return out
}

// oneArg is the matrix entry of a statement of one integer `?`.
func oneArg(q string, argf func() []model.Value, oracle func([]model.Tuple, []model.Value) *model.Table) matrixQuery {
	return matrixQuery{
		sql:     q,
		argf:    argf,
		inlinef: func(a []model.Value) string { return strings.Replace(q, "?", a[0].String(), 1) },
		oracle:  oracle,
	}
}

// unnestGK answers Example 4's shape over T,
// SELECT x.K, y.N, y.TAG, g.G FROM x IN T, y IN x.KIDS, g IN y.GK WHERE x.W < a.
func unnestGK(all []model.Tuple, a []model.Value) *model.Table {
	return unnested(all, func(x model.Tuple) []model.Tuple {
		if x[3].(model.Int) >= a[0].(model.Int) {
			return nil
		}
		return unnested(members(x[2]), func(y model.Tuple) []model.Tuple {
			return relation(members(y[2]), always, func(g model.Tuple) model.Tuple { return model.Tuple{x[0], y[0], y[1], g[0]} }).Tuples
		}).Tuples
	})
}

// runPreparedMatrixRound builds one random three-level schema in two
// identical databases, then drives the prepared API against one and
// the literal-inlined unprepared API against the other; after every
// statement both databases must agree exactly, and the unprepared
// statement must return the same under FullPaths.
func runPreparedMatrixRound(t *testing.T, rng *rand.Rand, indexed bool, layout object.Layout) {
	open := func() *DB {
		ts := int64(0)
		db, err := Open(Options{Clock: func() int64 { ts++; return ts }, DefaultLayout: layout})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dbP, dbU := open(), open()
	defer dbP.Close()
	defer dbU.Close()

	// T is versioned for the ASOF shapes; F is a flat table.
	schema := `CREATE TABLE T (K INT, NAME STRING, KIDS TABLE OF (N INT, TAG STRING, GK TABLE OF (G INT)), W INT) VERSIONED; CREATE TABLE F (A INT, B STRING, C INT)`
	var flatRows []model.Tuple
	for i := range 12 {
		flatRows = append(flatRows, model.Tuple{model.Int(i % 8), model.Str(fmt.Sprint("f", i)), model.Int(i * 37 % 11)})
	}
	for _, db := range []*DB{dbP, dbU} {
		if _, err := db.Exec(schema); err != nil {
			t.Fatal(err)
		}
		for _, f := range flatRows {
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO F VALUES (%d, '%s', %d)`, f[0], f[1], f[2])); err != nil {
				t.Fatal(err)
			}
		}
		if indexed {
			if err := db.CreateIndex("T_K", "T", []string{"K"}, "HIERARCHICAL"); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateIndex("T_KID_N", "T", []string{"KIDS", "N"}, "HIERARCHICAL"); err != nil {
				t.Fatal(err)
			}
		}
	}

	tags := []string{"red", "green", "blue", "amber"}
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}

	ins, err := dbP.Prepare(`INSERT INTO T VALUES (?, ?, {}, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	insKid, err := dbP.Prepare(`INSERT INTO x.KIDS FROM x IN T WHERE x.K = ? AND x.NAME = ? VALUES (?, ?, {})`)
	if err != nil {
		t.Fatal(err)
	}
	insGrandkid, err := dbP.Prepare(`INSERT INTO y.GK FROM x IN T, y IN x.KIDS WHERE x.K = ? AND x.NAME = ? AND y.N = ? VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := 5 + rng.Intn(10)
	for i := 0; i < rows; i++ {
		k := model.Int(rng.Intn(8))
		name := names[rng.Intn(len(names))]
		w := model.Int(rng.Intn(1000))
		if _, err := ins.Exec(k, model.Str(name), w); err != nil {
			t.Fatal(err)
		}
		if _, err := dbU.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, '%s', {}, %d)`, k, name, w)); err != nil {
			t.Fatal(err)
		}
		// Grow the nested levels through both APIs too; some objects and
		// some members keep an empty subtable.
		for j := rng.Intn(4); j > 0; j-- {
			n := model.Int(rng.Intn(5))
			tag := tags[rng.Intn(len(tags))]
			if _, err := insKid.Exec(k, model.Str(name), n, model.Str(tag)); err != nil {
				t.Fatal(err)
			}
			if _, err := dbU.Exec(fmt.Sprintf(
				`INSERT INTO x.KIDS FROM x IN T WHERE x.K = %d AND x.NAME = '%s' VALUES (%d, '%s', {})`, k, name, n, tag)); err != nil {
				t.Fatal(err)
			}
			for g := rng.Intn(3); g > 0; g-- {
				gv := model.Int(rng.Intn(10))
				if _, err := insGrandkid.Exec(k, model.Str(name), n, gv); err != nil {
					t.Fatal(err)
				}
				if _, err := dbU.Exec(fmt.Sprintf(
					`INSERT INTO y.GK FROM x IN T, y IN x.KIDS WHERE x.K = %d AND x.NAME = '%s' AND y.N = %d VALUES (%d)`, k, name, n, gv)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	anInt := func(n int) func() []model.Value {
		return func() []model.Value { return []model.Value{model.Int(rng.Intn(n))} }
	}
	aTag := func() model.Value { return model.Str(tags[rng.Intn(len(tags))]) }
	queries := []matrixQuery{
		{
			sql:  `SELECT x.K, x.NAME, x.W FROM x IN T WHERE x.K = ?`,
			argf: anInt(8),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, x.NAME, x.W FROM x IN T WHERE x.K = %d`, a[0])
			},
		},
		{
			sql:  `SELECT x.K, x.W FROM x IN T WHERE x.W < ?`,
			argf: anInt(1000),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, x.W FROM x IN T WHERE x.W < %d`, a[0])
			},
		},
		{
			sql:  `SELECT x.K, x.NAME FROM x IN T WHERE EXISTS y IN x.KIDS: y.N = ?`,
			argf: anInt(5),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, x.NAME FROM x IN T WHERE EXISTS y IN x.KIDS: y.N = %d`, a[0])
			},
		},
		{
			sql: `SELECT x.K, KIDS = (SELECT y.N, y.TAG FROM y IN x.KIDS WHERE y.TAG = ?) FROM x IN T WHERE x.K >= ?`,
			argf: func() []model.Value {
				return []model.Value{aTag(), model.Int(rng.Intn(8))}
			},
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(
					`SELECT x.K, KIDS = (SELECT y.N, y.TAG FROM y IN x.KIDS WHERE y.TAG = '%s') FROM x IN T WHERE x.K >= %d`,
					a[0], a[1])
			},
		},
		// Three nesting levels, empty subtables at the second and third.
		{
			sql:  `SELECT x.K, KIDS = (SELECT y.N, GK = (SELECT g.G FROM g IN y.GK WHERE g.G > ?) FROM y IN x.KIDS) FROM x IN T`,
			argf: anInt(10),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, KIDS = (SELECT y.N, GK = (SELECT g.G FROM g IN y.GK WHERE g.G > %d) FROM y IN x.KIDS) FROM x IN T`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, always, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], relation(members(x[2]), always, func(y model.Tuple) model.Tuple {
						return model.Tuple{y[0], relation(members(y[2]),
							func(g model.Tuple) bool { return g[0].(model.Int) > a[0].(model.Int) },
							func(g model.Tuple) model.Tuple { return model.Tuple{g[0]} })}
					})}
				})
			},
		},
		// DISTINCT, ORDER BY and a `?` WHERE inside a sub-block.
		{
			sql:  `SELECT x.K, x.NAME, TAGS = (SELECT DISTINCT y.TAG FROM y IN x.KIDS WHERE y.N <> ? ORDER BY y.TAG DESC) FROM x IN T ORDER BY x.K, x.NAME`,
			argf: anInt(5),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, x.NAME, TAGS = (SELECT DISTINCT y.TAG FROM y IN x.KIDS WHERE y.N <> %d ORDER BY y.TAG DESC) FROM x IN T ORDER BY x.K, x.NAME`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				out := relation(all, always, func(x model.Tuple) model.Tuple {
					var tags []string
					for _, y := range members(x[2]) {
						if tag := string(y[1].(model.Str)); y[0] != a[0] && !slices.Contains(tags, tag) {
							tags = append(tags, tag)
						}
					}
					sort.Sort(sort.Reverse(sort.StringSlice(tags)))
					sub := &model.Table{Ordered: true}
					for _, tag := range tags {
						sub.Append(model.Tuple{model.Str(tag)})
					}
					return model.Tuple{x[0], x[1], sub}
				})
				out.Ordered = true
				sort.SliceStable(out.Tuples, func(i, j int) bool {
					a, b := out.Tuples[i], out.Tuples[j]
					return a[0].(model.Int) < b[0].(model.Int) || a[0] == b[0] && a[1].(model.Str) < b[1].(model.Str)
				})
				return out
			},
		},
		// A sub-block over the stored table, correlated with the outer
		// variable, with a sub-block of its own.
		{
			sql:  `SELECT x.K, x.W, PEERS = (SELECT u.NAME, u.W, NS = (SELECT v.N FROM v IN u.KIDS) FROM u IN T WHERE u.K = x.K AND u.W <> ?) FROM x IN T WHERE x.K < ?`,
			argf: func() []model.Value { return []model.Value{model.Int(rng.Intn(1000)), model.Int(rng.Intn(8))} },
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, x.W, PEERS = (SELECT u.NAME, u.W, NS = (SELECT v.N FROM v IN u.KIDS) FROM u IN T WHERE u.K = x.K AND u.W <> %d) FROM x IN T WHERE x.K < %d`, a[0], a[1])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, func(x model.Tuple) bool { return x[0].(model.Int) < a[1].(model.Int) }, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], x[3], relation(all,
						func(u model.Tuple) bool { return u[0] == x[0] && u[3] != a[0] },
						func(u model.Tuple) model.Tuple {
							return model.Tuple{u[1], u[3], relation(members(u[2]), always, func(v model.Tuple) model.Tuple { return model.Tuple{v[0]} })}
						})}
				})
			},
		},
		// A quantifier over the stored table inside a sub-block.
		{
			sql:  `SELECT x.K, KIDS = (SELECT y.N FROM y IN x.KIDS WHERE EXISTS u IN T: (u.K = y.N AND u.W > ?)) FROM x IN T`,
			argf: anInt(1000),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, KIDS = (SELECT y.N FROM y IN x.KIDS WHERE EXISTS u IN T: (u.K = y.N AND u.W > %d)) FROM x IN T`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, always, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], relation(members(x[2]),
						func(y model.Tuple) bool {
							return slices.ContainsFunc(all, func(u model.Tuple) bool { return u[0] == y[0] && u[3].(model.Int) > a[0].(model.Int) })
						},
						func(y model.Tuple) model.Tuple { return model.Tuple{y[0]} })}
				})
			},
		},
		// A sub-block that rebinds the outer variable's name: its FROM
		// path is evaluated before its own x is bound, on every outer row.
		{
			sql:  `SELECT x.K, KIDS = (SELECT x.N, x.TAG FROM x IN x.KIDS WHERE x.N >= ?), x.W FROM x IN T`,
			argf: anInt(5),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, KIDS = (SELECT x.N, x.TAG FROM x IN x.KIDS WHERE x.N >= %d), x.W FROM x IN T`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, always, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], relation(members(x[2]),
						func(y model.Tuple) bool { return y[0].(model.Int) >= a[0].(model.Int) },
						func(y model.Tuple) model.Tuple { return model.Tuple{y[0], y[1]} }), x[3]}
				})
			},
		},
		// SELECT * and COUNT in sub-blocks: two sub-blocks after a plain
		// item, so each is found by its own item's position.
		{
			sql:  `SELECT x.K, ALLK = (SELECT * FROM y IN x.KIDS WHERE y.TAG <> ?), NGK = (SELECT y.N, COUNT(y.GK) AS C FROM y IN x.KIDS) FROM x IN T`,
			argf: func() []model.Value { return []model.Value{aTag()} },
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, ALLK = (SELECT * FROM y IN x.KIDS WHERE y.TAG <> '%s'), NGK = (SELECT y.N, COUNT(y.GK) AS C FROM y IN x.KIDS) FROM x IN T`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, always, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0],
						relation(members(x[2]), func(y model.Tuple) bool { return y[1] != a[0] }, func(y model.Tuple) model.Tuple { return y }),
						relation(members(x[2]), always, func(y model.Tuple) model.Tuple {
							return model.Tuple{y[0], model.Int(len(members(y[2])))}
						})}
				})
			},
		},
		// A null subtable: the second member's grandchildren, where there
		// is no second member.
		{
			sql:  `SELECT x.K, SECOND = (SELECT g.G FROM g IN x.KIDS[2].GK WHERE g.G <> ?) FROM x IN T`,
			argf: anInt(10),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, SECOND = (SELECT g.G FROM g IN x.KIDS[2].GK WHERE g.G <> %d) FROM x IN T`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, always, func(x model.Tuple) model.Tuple {
					var gks []model.Tuple
					if kids := members(x[2]); len(kids) >= 2 {
						gks = members(kids[1][2])
					}
					return model.Tuple{x[0], relation(gks,
						func(g model.Tuple) bool { return g[0] != a[0] },
						func(g model.Tuple) model.Tuple { return model.Tuple{g[0]} })}
				})
			},
		},
	}
	below := func(x model.Tuple, a []model.Value) bool { return x[3].(model.Int) < a[0].(model.Int) }
	identityGK := `GK = (SELECT g.G FROM g IN y.GK%[1]s)`
	queries = append(queries,
		// Every subtable projected whole, at both levels: the row takes
		// KIDS as fetched.
		twinned(`SELECT x.K, KIDS = (SELECT y.N, y.TAG, `+identityGK+` FROM y IN x.KIDS%[1]s), x.W FROM x IN T WHERE x.W < ?`, anInt(1000),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, func(x model.Tuple) bool { return below(x, a) }, func(x model.Tuple) model.Tuple { return model.Tuple{x[0], x[2], x[3]} })
			}),
		// A path item takes the subtable too; its twin rebuilds it.
		matrixQuery{
			sql:  `SELECT x.K, x.KIDS FROM x IN T WHERE x.W < ?`,
			argf: anInt(1000),
			inlinef: func(a []model.Value) string {
				return fmt.Sprintf(`SELECT x.K, x.KIDS FROM x IN T WHERE x.W < %d`, a[0])
			},
			oracle: func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, func(x model.Tuple) bool { return below(x, a) }, func(x model.Tuple) model.Tuple { return model.Tuple{x[0], x[2]} })
			},
			twin: `SELECT x.K, KIDS = (SELECT y.N, y.TAG, y.GK FROM y IN x.KIDS WHERE TRUE) FROM x IN T WHERE x.W < ?`,
		},
		// Near-identity shapes, rebuilt: a subset of the attributes,
		// reordered, renamed, a WHERE, DISTINCT, ORDER BY; and a null
		// subtable.
		twinned(`SELECT x.K, KIDS = (SELECT y.N, y.TAG FROM y IN x.KIDS%[1]s) FROM x IN T WHERE x.W < ?`, anInt(1000), nil),
		twinned(`SELECT x.K, KIDS = (SELECT y.TAG, y.N, `+identityGK+` FROM y IN x.KIDS%[1]s) FROM x IN T WHERE x.W < ?`, anInt(1000), nil),
		twinned(`SELECT x.K, KIDS = (SELECT y.N AS M, y.TAG, `+identityGK+` FROM y IN x.KIDS%[1]s) FROM x IN T WHERE x.W < ?`, anInt(1000), nil),
		twinned(`SELECT x.K, KIDS = (SELECT y.N, y.TAG, `+identityGK+` FROM y IN x.KIDS WHERE y.N >= ?%[2]s) FROM x IN T`, anInt(5), nil),
		twinned(`SELECT x.K, KIDS = (SELECT DISTINCT y.N, y.TAG, `+identityGK+` FROM y IN x.KIDS%[1]s) FROM x IN T WHERE x.W < ?`, anInt(1000), nil),
		twinned(`SELECT x.K, KIDS = (SELECT y.N, y.TAG, `+identityGK+` FROM y IN x.KIDS%[1]s ORDER BY y.N DESC) FROM x IN T WHERE x.W < ?`, anInt(1000), nil),
		twinned(`SELECT x.K, SECOND = (SELECT g.G FROM g IN x.KIDS[2].GK%[1]s) FROM x IN T WHERE x.W < ?`, anInt(1000), nil),
	)
	// Items a row copies from its binding at a position fixed at bind
	// (every plain v.A of a variable of the block's own FROM list) next
	// to items evaluated: computed ones, [k] steps, outer variables.
	withK := func(x model.Tuple, a []model.Value) bool { return x[3].(model.Int) < a[0].(model.Int) }
	kid1 := func(x model.Tuple, i int) model.Value {
		if kids := members(x[2]); len(kids) > 0 {
			return kids[0][i]
		}
		return model.Null{}
	}
	queries = append(queries,
		// A shadowed variable: x is the member, bound by the last FROM item.
		oneArg(`SELECT x.N, x.TAG FROM x IN T, x IN x.KIDS WHERE x.N >= ?`, anInt(5),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return unnested(all, func(x model.Tuple) []model.Tuple {
					return relation(members(x[2]), func(y model.Tuple) bool { return y[0].(model.Int) >= a[0].(model.Int) },
						func(y model.Tuple) model.Tuple { return model.Tuple{y[0], y[1]} }).Tuples
				})
			}),
		oneArg(`SELECT x.K, x.W + 1, x.NAME, x.K * 2, x.W FROM x IN T WHERE x.W < ?`, anInt(1000),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, func(x model.Tuple) bool { return withK(x, a) }, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], x[3].(model.Int) + 1, x[1], x[0].(model.Int) * 2, x[3]}
				})
			}),
		oneArg(`SELECT x.K, x.KIDS[1].N, x.KIDS[1].TAG, x.W FROM x IN T WHERE x.W < ?`, anInt(1000),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, func(x model.Tuple) bool { return withK(x, a) }, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], kid1(x, 0), kid1(x, 1), x[3]}
				})
			}),
		// Outer variables in a correlated sub-block are evaluated.
		oneArg(`SELECT x.K, KIDS = (SELECT x.NAME, y.N, x.W FROM y IN x.KIDS WHERE y.N >= ?) FROM x IN T`, anInt(5),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return relation(all, always, func(x model.Tuple) model.Tuple {
					return model.Tuple{x[0], relation(members(x[2]), func(y model.Tuple) bool { return y[0].(model.Int) >= a[0].(model.Int) },
						func(y model.Tuple) model.Tuple { return model.Tuple{x[1], y[0], x[3]} })}
				})
			}),
		// Example 4's shape: three levels unnested, the innermost flat,
		// many of its subtables empty.
		oneArg(`SELECT x.K, y.N, y.TAG, g.G FROM x IN T, y IN x.KIDS, g IN y.GK WHERE x.W < ?`, anInt(1000), unnestGK),
		// Null subtables under flat members: most objects have no second
		// kid.
		oneArg(`SELECT x.K, g.G FROM x IN T, g IN x.KIDS[2].GK WHERE g.G <> ?`, anInt(10),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return unnested(all, func(x model.Tuple) []model.Tuple {
					kids := members(x[2])
					if len(kids) < 2 {
						return nil
					}
					return relation(members(kids[1][2]), func(g model.Tuple) bool { return g[0] != a[0] },
						func(g model.Tuple) model.Tuple { return model.Tuple{x[0], g[0]} }).Tuples
				})
			}),
		// A flat table, alone and beside T.
		oneArg(`SELECT f.C, f.A, f.B FROM f IN F WHERE f.A < ?`, anInt(8),
			func(_ []model.Tuple, a []model.Value) *model.Table {
				return relation(flatRows, func(f model.Tuple) bool { return f[0].(model.Int) < a[0].(model.Int) },
					func(f model.Tuple) model.Tuple { return model.Tuple{f[2], f[0], f[1]} })
			}),
		oneArg(`SELECT f.B, x.NAME, f.A, x.W FROM f IN F, x IN T WHERE f.A = x.K AND x.W < ?`, anInt(1000),
			func(all []model.Tuple, a []model.Value) *model.Table {
				return unnested(flatRows, func(f model.Tuple) []model.Tuple {
					return relation(all, func(x model.Tuple) bool { return x[0] == f[0] && withK(x, a) },
						func(x model.Tuple) model.Tuple { return model.Tuple{f[1], x[1], f[0], x[3]} }).Tuples
				})
			}),
	)
	reread := func(q interface {
		Query(string) (*model.Table, *model.TableType, error)
	}) []model.Tuple {
		t.Helper()
		whole, tt, err := q.Query(`SELECT * FROM x IN T`)
		if err != nil {
			t.Fatal(err)
		}
		// The oracles read T's rows as Lorie's linked tuples, the on-top
		// baseline of §4.1, materialize them.
		all := lorieRows(t, tt, whole.Tuples)
		if !model.TableEqual(&model.Table{Tuples: all}, whole) {
			t.Fatalf("Lorie's linked tuples read back differently:\n%v\n%v", all, whole.Tuples)
		}
		return all
	}
	all := reread(dbP)
	prepare := func(q string) *PreparedStmt {
		t.Helper()
		ps, err := dbP.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return ps
	}
	// check runs a prepared statement of dbP against q on dbU, inlined,
	// with and without pushdown, against its twin and against its oracle
	// over all.
	check := func(label string, ps *PreparedStmt, q matrixQuery, all []model.Tuple) {
		t.Helper()
		var twin *PreparedStmt
		if q.twin != "" {
			twin = prepare(q.twin)
		}
		for rep := 0; rep < 4; rep++ {
			args := q.argf()
			gotP, ttP, err := ps.Query(args...)
			if err != nil {
				t.Fatalf("%s prepared: %v", label, err)
			}
			gotU, ttU, err := dbU.Query(q.inlinef(args))
			if err != nil {
				t.Fatalf("%s unprepared: %v", label, err)
			}
			dbU.exec.FullPaths = true
			gotF, ttF, err := dbU.Query(q.inlinef(args))
			dbU.exec.FullPaths = false
			if err != nil {
				t.Fatalf("%s without pushdown: %v", label, err)
			}
			if !ttP.Equal(ttU) || !ttU.Equal(ttF) {
				t.Fatalf("%s args %v: schema mismatch: %s vs %s vs %s", label, args, ttP, ttU, ttF)
			}
			if !model.TableEqual(gotP, gotU) {
				t.Fatalf("%s args %v: prepared and unprepared disagree:\n%s\n%s",
					label, args,
					model.FormatTable("prepared", ttP, gotP),
					model.FormatTable("unprepared", ttU, gotU))
			}
			if !model.TableEqual(gotU, gotF) {
				t.Fatalf("%s args %v: pushdown and full objects disagree:\n%s\n%s",
					label, args,
					model.FormatTable("pushdown", ttU, gotU),
					model.FormatTable("full objects", ttF, gotF))
			}
			if twin != nil {
				gotT, _, err := twin.Query(args...)
				if err != nil {
					t.Fatalf("%s twin: %v", label, err)
				}
				if !model.TableEqual(gotP, gotT) {
					t.Fatalf("%s args %v: differs from its twin %s:\n%v\n%v", label, args, q.twin, gotP, gotT)
				}
			}
			if q.oracle == nil {
				continue
			}
			if want := q.oracle(all, args); !model.TableEqual(gotP, want) {
				t.Fatalf("%s args %v: result differs from the oracle:\n%s\n%s",
					label, args,
					model.FormatTable("prepared", ttP, gotP),
					model.FormatTable("oracle", ttP, want))
			}
		}
	}
	for qi, q := range queries {
		check(fmt.Sprint("query ", qi), prepare(q.sql), q, all)
	}

	// The same shapes while the data, the schema and the snapshot move.
	// ASOF an instant of each database before an update: the oracle reads
	// the rows of then.
	asof := `SELECT x.K, y.N, y.TAG, g.G FROM x IN T ASOF %d, y IN x.KIDS, g IN y.GK WHERE x.W < ?`
	atP, atU := dbP.Now(), dbU.Now()
	for _, db := range []*DB{dbP, dbU} {
		if _, err := db.Exec(`UPDATE x IN T SET W = x.W + 1 WHERE x.K < 4; DELETE y FROM x IN T, y IN x.KIDS WHERE y.N = 2`); err != nil {
			t.Fatal(err)
		}
	}
	q := oneArg(fmt.Sprintf(asof, atU), anInt(1000), unnestGK)
	check("ASOF", prepare(fmt.Sprintf(asof, atP)), q, all)
	all = reread(dbP)
	check("after the update", prepare(strings.Replace(asof, " ASOF %d", "", 1)), oneArg(strings.Replace(asof, " ASOF %d", "", 1), anInt(1000), unnestGK), all)

	// One prepared statement before and after ALTER TABLE ADD, and the
	// added attributes, null in every subtuple written before.
	byW := oneArg(`SELECT x.K, x.NAME, x.W FROM x IN T WHERE x.W < ?`, anInt(1000),
		func(all []model.Tuple, a []model.Value) *model.Table {
			return relation(all, func(x model.Tuple) bool { return withK(x, a) }, func(x model.Tuple) model.Tuple { return model.Tuple{x[0], x[1], x[3]} })
		})
	psW := prepare(byW.sql)
	check("before ALTER TABLE ADD", psW, byW, all)
	for _, db := range []*DB{dbP, dbU} {
		if _, err := db.Exec(`ALTER TABLE T ADD V INT; ALTER TABLE T ADD KIDS.X STRING; INSERT INTO T VALUES (3, 'zeta', {(1, 'red', {(4), (5)}, 'new')}, 5, 6)`); err != nil {
			t.Fatal(err)
		}
	}
	all = reread(dbP)
	check("after ALTER TABLE ADD", psW, byW, all)
	added := oneArg(`SELECT x.K, x.V, y.N, y.X, x.W FROM x IN T, y IN x.KIDS WHERE x.W < ?`, anInt(1000),
		func(all []model.Tuple, a []model.Value) *model.Table {
			return unnested(all, func(x model.Tuple) []model.Tuple {
				if !withK(x, a) {
					return nil
				}
				return relation(members(x[2]), always, func(y model.Tuple) model.Tuple { return model.Tuple{x[0], x[4], y[0], y[3], x[3]} }).Tuples
			})
		})
	check("ALTER-added attributes", prepare(added.sql), added, all)

	// A transaction over a pending object: its rows come from the
	// transaction's own writes.
	ctx := context.Background()
	txP, err := dbP.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txU, err := dbU.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*Txn{txP, txU} {
		if _, err := tx.Exec(`INSERT INTO T VALUES (2, 'eta', {(3, 'blue', {}, 'p'), (4, 'amber', {(7), (8)}, 'q')}, 1, 8)`); err != nil {
			t.Fatal(err)
		}
	}
	pending := reread(txP)
	psA := prepare(added.sql)
	for rep := 0; rep < 4; rep++ {
		args := added.argf()
		rows, err := txP.QueryRowsPrepared(ctx, psA, args...)
		if err != nil {
			t.Fatal(err)
		}
		gotP := &model.Table{Ordered: rows.Type().Ordered}
		for rows.Next() {
			gotP.Append(rows.Tuple())
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			t.Fatalf("in a transaction: %v %v", err, rows.Err())
		}
		gotU, _, err := txU.Query(added.inlinef(args))
		if err != nil {
			t.Fatal(err)
		}
		if want := added.oracle(pending, args); !model.TableEqual(gotP, gotU) || !model.TableEqual(gotP, want) {
			t.Fatalf("in a transaction, args %v:\nprepared   %v\nunprepared %v\noracle     %v", args, gotP.Tuples, gotU.Tuples, want.Tuples)
		}
	}
	for _, tx := range []*Txn{txP, txU} {
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}

	// Final state check: both databases hold identical data.
	finP, ttP, err := dbP.Query(`SELECT * FROM x IN T`)
	if err != nil {
		t.Fatal(err)
	}
	finU, ttU, err := dbU.Query(`SELECT * FROM x IN T`)
	if err != nil {
		t.Fatal(err)
	}
	if !ttP.Equal(ttU) || !model.TableEqual(finP, finU) {
		t.Fatalf("final states diverge:\n%s\n%s",
			model.FormatTable("prepared", ttP, finP),
			model.FormatTable("unprepared", ttU, finU))
	}
}

// Concurrent Prepare/execute against concurrent DDL and index
// degradation: no stale plan output, no lost updates to the cache,
// and (under -race) no data races.
func TestPreparedConcurrentDDL(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	want := map[model.Int]model.Int{314: 56194, 218: 71349, 417: 91093}
	// Example 4, the hierarchy read as a flat table: every item is copied
	// from its binding at a position fixed at bind, and the churn below
	// adds attributes at both ends of the path it unnests.
	const unnest = `SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`
	db.Executor().FullPaths = true
	wantUnnest, _, err := db.Query(unnest)
	db.Executor().FullPaths = false
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantHash := wantUnnest.Len(), rowsHash(wantUnnest)
	if wantRows != 17 {
		t.Fatalf("Example 4 has %d rows, want 17", wantRows)
	}

	stop := make(chan struct{})
	var wg, warm sync.WaitGroup
	errCh := make(chan error, 16)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		warm.Add(1)
		go func(c int) {
			defer wg.Done()
			warmed := false
			defer func() {
				if !warmed {
					warm.Done()
				}
			}()
			dnos := []model.Int{314, 218, 417}
			// One prepared Example 4 for the client's whole run, so that
			// its plan lives across the churn.
			ups, err := db.Prepare(unnest)
			if err != nil {
				errCh <- err
				return
			}
			for i := 0; ; i++ {
				if i > 0 && !warmed {
					// First Prepare+executions done; let the churn start.
					warmed = true
					warm.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				ps, err := db.Prepare(q)
				if err != nil {
					errCh <- err
					return
				}
				tbl, _, err := ups.Query()
				if err != nil {
					errCh <- err
					return
				}
				if tbl.Len() != wantRows || rowsHash(tbl) != wantHash {
					errCh <- fmt.Errorf("client %d: Example 4 returned %d rows, hash %x; want %d, %x", c, tbl.Len(), rowsHash(tbl), wantRows, wantHash)
					return
				}
				for j := 0; j < 10; j++ {
					dno := dnos[(i+j)%len(dnos)]
					tbl, _, err := ps.QueryContext(context.Background(), dno)
					if err != nil {
						errCh <- err
						return
					}
					if tbl.Len() != 1 || tbl.Tuples[0][1] != want[dno] {
						errCh <- fmt.Errorf("client %d: DNO %v returned %v", c, dno, tbl.Tuples)
						return
					}
				}
			}
		}(c)
	}
	// Churn the catalog: create/drop an unrelated table, degrade and
	// rebuild the index the queries want to use, and add attributes to
	// the root and the innermost level of the table the queries read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Wait until every client has bound and executed at least once,
		// so the churn is guaranteed to invalidate live plans.
		warm.Wait()
		for i := 0; i < 25; i++ {
			if _, err := db.Exec(fmt.Sprintf(`CREATE TABLE CHURN%d (N INT)`, i)); err != nil {
				errCh <- err
				return
			}
			db.DegradeIndex("DEPT_DNO", dberr.Corruptf("test: churn"))
			if err := db.RebuildIndex("DEPT_DNO"); err != nil {
				errCh <- err
				return
			}
			if _, err := db.Exec(fmt.Sprintf(`DROP TABLE CHURN%d`, i)); err != nil {
				errCh <- err
				return
			}
			if _, err := db.Exec(fmt.Sprintf(`ALTER TABLE DEPARTMENTS ADD C%d INT; ALTER TABLE DEPARTMENTS ADD PROJECTS.MEMBERS.M%d STRING`, i, i)); err != nil {
				errCh <- err
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Deterministic invalidation check: bind once more (the cache now
	// holds a plan), bump the epoch with one more DDL, and re-execute —
	// the stale entry must be evicted and counted.
	ps, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE CHURN_FINAL (N INT)`); err != nil {
		t.Fatal(err)
	}
	inv0 := db.PlanCacheStats().Invalidations
	if tbl, _, err := ps.Query(model.Int(314)); err != nil || tbl.Len() != 1 {
		t.Fatalf("post-churn query: %v (%d rows)", err, tbl.Len())
	}
	if s := db.PlanCacheStats(); s.Invalidations <= inv0 {
		t.Errorf("final DDL produced no plan-cache invalidation: %+v", s)
	}

	// One prepared statement with sub-blocks, executed by eight
	// goroutines while an index is created and dropped over and over:
	// every epoch bump binds the block tree again under the running
	// executions, which keep their own tree and sub-block cursors. The
	// answers must equal the full-object oracle computed up front.
	const nested = `SELECT x.DNO, PROJECTS = (SELECT y.PNO, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS WHERE z.FUNCTION <> 'Staff') FROM y IN x.PROJECTS), EQUIP = (SELECT e.TYPE FROM e IN x.EQUIP) FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	dnos := []model.Int{314, 218, 417}
	oracle := map[model.Int]*model.Table{}
	db.Executor().FullPaths = true
	for _, dno := range dnos {
		tbl, _, err := db.Query(strings.Replace(nested, "?", dno.String(), 1))
		if err != nil || tbl.Len() != 1 {
			t.Fatalf("oracle for DNO %v: %v", dno, err)
		}
		oracle[dno] = tbl
	}
	db.Executor().FullPaths = false
	nps, err := db.Prepare(nested)
	if err != nil {
		t.Fatal(err)
	}
	stop = make(chan struct{})
	errCh = make(chan error, 16)
	var readers sync.WaitGroup
	for c := 0; c < 8; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dno := dnos[(c+i)%len(dnos)]
				tbl, _, err := nps.Query(dno)
				if err != nil {
					errCh <- err
					return
				}
				if !model.TableEqual(tbl, oracle[dno]) {
					errCh <- fmt.Errorf("reader %d: DNO %v returned %v, want %v", c, dno, tbl.Tuples, oracle[dno].Tuples)
					return
				}
			}
		}(c)
	}
	epoch0 := db.CatalogEpoch()
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(`CREATE INDEX DEPT_BUDGET ON DEPARTMENTS (BUDGET) USING HIERARCHICAL; DROP INDEX DEPT_BUDGET`); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if db.CatalogEpoch() == epoch0 {
		t.Errorf("creating and dropping an index did not move the catalog epoch")
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Errorf("%d pages pinned after the nested readers finished", n)
	}
}

// rowsHash fingerprints the rows of a table in any order: an FNV-1a
// hash of their canonical encodings, sorted.
func rowsHash(tbl *model.Table) uint64 {
	keys := make([]string, len(tbl.Tuples))
	for i, tup := range tbl.Tuples {
		keys[i] = model.CanonicalTuple(tup)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Prepared statements inside transactions: arguments bind against the
// transaction's snapshot-reading executor, writes stay buffered until
// commit, and a prepared read inside the transaction sees them.
func TestPreparedInTransaction(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE LOG (ID INT, MSG STRING)`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO LOG VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := db.Prepare(`SELECT l.ID, l.MSG FROM l IN LOG WHERE l.ID = ?`)
	if err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := tx.ExecPrepared(ctx, ins, model.Int(1), model.Str("inside")); err != nil {
		t.Fatal(err)
	}
	// The transaction sees its own buffered write through the prepared
	// select...
	rows, err := tx.QueryRowsPrepared(ctx, sel, model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("tx sees %d rows, want 1", n)
	}
	// ...while the outside world does not, until commit.
	tbl, _, err := sel.Query(model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("uncommitted write visible outside: %v", tbl.Tuples)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _, err = sel.Query(model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Tuples[0][1] != model.Str("inside") {
		t.Fatalf("after commit: %v", tbl.Tuples)
	}
}
