package crashsim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/model"
)

// stmtCount is the length of the generated DML sequence per workload.
const stmtCount = 40

// snapshot records the visible HIST rows at a logical instant of the
// faulted run; after recovery the same ASOF query must reproduce it.
type snapshot struct {
	ts   int64
	rows *model.Table
}

// openSession opens an engine over a disk session with a small buffer
// pool, so eviction steals uncommitted dirty pages and the recovery
// path has to cope with them.
func openSession(s *Session, clock func() int64, poolPages int) (*engine.DB, error) {
	return engine.Open(engine.Options{
		PoolPages:   poolPages,
		Clock:       clock,
		OpenStore:   s.OpenStore,
		OpenWALFile: s.OpenWALFile,
	})
}

// TotalOps runs the workload to completion with no crash and returns
// how many mutating I/O operations it issues; the crash matrix sweeps
// budgets across this range.
func TotalOps(wseed int64) (int64, error) {
	w := NewWorkload(wseed, stmtCount)
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }
	d := NewDisk()
	s := d.Open(1, -1)
	eng, err := openSession(s, clock, 8)
	if err != nil {
		return 0, err
	}
	for _, stmt := range append(append([]string{}, w.Setup...), w.Stmts...) {
		if _, err := eng.Exec(stmt); err != nil {
			return 0, fmt.Errorf("crashsim: probe statement failed: %w\n%s", err, stmt)
		}
	}
	if err := eng.Close(); err != nil {
		return 0, err
	}
	return s.Ops(), nil
}

// RunCrash executes one crash-recover-verify cycle: run the seeded
// workload until the injected crash at the budget-th mutating I/O
// operation, settle the disk with seeded torn/lost-write outcomes,
// recover (with recBudget >= 0 the recovery itself is crashed once and
// retried), and verify every invariant plus state equivalence against
// a clean replay of the committed statements. Budget < 0 exercises the
// crash-free path (clean close, settle, reopen).
func RunCrash(wseed, budget, recBudget int64) error {
	w := NewWorkload(wseed, stmtCount)
	all := append(append([]string{}, w.Setup...), w.Stmts...)
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }

	d := NewDisk()
	s := d.Open(wseed*31+budget, budget)
	committed := 0
	inFlight := false
	var snaps []snapshot
	eng, err := openSession(s, clock, 8)
	if err != nil {
		if !s.Crashed() {
			return fmt.Errorf("crashsim: initial open failed without a crash: %w", err)
		}
	} else {
	loop:
		for i, stmt := range all {
			if _, err := eng.Exec(stmt); err != nil {
				if !s.Crashed() {
					return fmt.Errorf("crashsim: statement %d failed without a crash: %w\n%s", i, err, stmt)
				}
				inFlight = true
				break
			}
			committed++
			// Tick the clock for the snapshot instant so ASOF ts is
			// never 0 ("current") and strictly precedes later versions.
			switch snap, err := histSnapshot(eng, clk.Add(1)); {
			case err != nil:
				if !s.Crashed() {
					return fmt.Errorf("crashsim: snapshot after statement %d failed without a crash: %w", i, err)
				}
				break loop
			case snap != nil:
				snaps = append(snaps, *snap)
			}
		}
		if !s.Crashed() {
			if err := eng.Close(); err != nil && !s.Crashed() {
				return fmt.Errorf("crashsim: clean close failed: %w", err)
			}
		}
	}

	// Recover. With recBudget >= 0 the first recovery attempt is
	// itself crashed (wherever its budget lands) and retried on a
	// clean session — recovery must be idempotent.
	var eng2 *engine.DB
	if recBudget >= 0 {
		rs := d.Open(wseed*57+budget+1, recBudget)
		if _, err := openSession(rs, clock, 8); err != nil && !rs.Crashed() {
			return fmt.Errorf("crashsim: budgeted recovery failed without a crash: %w", err)
		}
	}
	rs := d.Open(wseed*91+budget+7, -1)
	eng2, err = openSession(rs, clock, 64)
	if err != nil {
		return fmt.Errorf("crashsim: recovery failed: %w", err)
	}

	if err := CheckInvariants(eng2); err != nil {
		return err
	}

	// State equivalence: the recovered database must equal a clean
	// replay of the committed prefix — or, when the crash interrupted
	// a statement whose commit record may or may not have reached the
	// durable log, the replay including that statement.
	refA, err := replayEngine(all[:committed], clock)
	if err != nil {
		return err
	}
	diffA := compareState(eng2, refA)
	if diffA != "" {
		if !inFlight {
			return fmt.Errorf("crashsim: recovered state differs from committed replay: %s", diffA)
		}
		refB, err := replayEngine(all[:committed+1], clock)
		if err != nil {
			return err
		}
		if diffB := compareState(eng2, refB); diffB != "" {
			return fmt.Errorf("crashsim: recovered state matches neither replay\nwithout in-flight: %s\nwith in-flight: %s", diffA, diffB)
		}
	}

	// ASOF: history rebuilt from the log must reproduce the snapshots
	// the faulted run saw. Every recorded snapshot followed a
	// successfully committed statement, so all of them must hold.
	for _, sn := range snaps {
		t, ok := eng2.Catalog().Table("HIST")
		if !ok {
			return fmt.Errorf("crashsim: HIST vanished despite a recorded snapshot")
		}
		rows, err := tableRows(eng2, t, sn.ts)
		if err != nil {
			return fmt.Errorf("crashsim: ASOF %d scan: %w", sn.ts, err)
		}
		if !model.TableEqual(rows, sn.rows) {
			return fmt.Errorf("crashsim: HIST ASOF %d differs from the snapshot taken before the crash", sn.ts)
		}
	}

	// The recovered database must remain fully usable: run new DML,
	// close cleanly, reopen, and re-audit. Early crash points recover
	// to a state from before CREATE TABLE EMP committed.
	if _, ok := eng2.Catalog().Table("EMP"); !ok {
		if _, err := eng2.Exec(w.Setup[0]); err != nil {
			return fmt.Errorf("crashsim: post-recovery create: %w", err)
		}
	}
	if _, err := eng2.Exec(`INSERT INTO EMP VALUES (999999, 'POST', 1)`); err != nil {
		return fmt.Errorf("crashsim: post-recovery insert: %w", err)
	}
	if err := eng2.Close(); err != nil {
		return fmt.Errorf("crashsim: post-recovery close: %w", err)
	}
	fs := d.Open(wseed*101+budget+11, -1)
	eng3, err := openSession(fs, clock, 64)
	if err != nil {
		return fmt.Errorf("crashsim: reopen after recovery: %w", err)
	}
	if err := CheckInvariants(eng3); err != nil {
		return fmt.Errorf("crashsim: after clean reopen: %w", err)
	}
	t, _ := eng3.Catalog().Table("EMP")
	rows, err := tableRows(eng3, t, 0)
	if err != nil {
		return err
	}
	for _, tup := range rows.Tuples {
		if v, ok := tup[0].(model.Int); ok && int64(v) == 999999 {
			return nil
		}
	}
	return fmt.Errorf("crashsim: post-recovery insert not visible after reopen")
}

// histSnapshot captures the current HIST rows (nil before the table
// exists) together with the logical timestamp ts.
func histSnapshot(eng *engine.DB, ts int64) (*snapshot, error) {
	t, ok := eng.Catalog().Table("HIST")
	if !ok {
		return nil, nil
	}
	rows, err := tableRows(eng, t, 0)
	if err != nil {
		return nil, err
	}
	return &snapshot{ts: ts, rows: rows}, nil
}

// tableRows materializes a stored table (optionally as of an instant)
// into a table value for comparison.
func tableRows(eng *engine.DB, t *catalog.Table, asof int64) (*model.Table, error) {
	sc, err := eng.Runtime().OpenScan(t, asof, nil)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	tbl := &model.Table{Ordered: t.Type.Ordered}
	for {
		_, tup, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return tbl, nil
		}
		tbl.Tuples = append(tbl.Tuples, tup)
	}
}

// replayEngine executes the statements on a fresh in-memory engine:
// the oracle for what the recovered database must contain.
func replayEngine(stmts []string, clock func() int64) (*engine.DB, error) {
	ref, err := engine.Open(engine.Options{Clock: clock})
	if err != nil {
		return nil, err
	}
	for i, stmt := range stmts {
		if _, err := ref.Exec(stmt); err != nil {
			return nil, fmt.Errorf("crashsim: oracle replay statement %d failed: %w\n%s", i, err, stmt)
		}
	}
	return ref, nil
}

// CompareState reports a human-readable difference between two
// engines' logical states ("" when equal); the soft-chaos harness
// (internal/faultsim) reuses it to compare a live engine against its
// oracle after an aborted statement.
func CompareState(got, want *engine.DB) string { return compareState(got, want) }

// compareState reports a human-readable difference between the two
// engines' logical states ("" when equal): same table set, and every
// table equal as a (multi)set of deeply-compared tuples.
func compareState(got, want *engine.DB) string {
	gn := tableNames(got)
	wn := tableNames(want)
	if fmt.Sprint(gn) != fmt.Sprint(wn) {
		return fmt.Sprintf("table sets differ: recovered %v, replay %v", gn, wn)
	}
	for _, name := range gn {
		gt, _ := got.Catalog().Table(name)
		wt, _ := want.Catalog().Table(name)
		grows, err := tableRows(got, gt, 0)
		if err != nil {
			return fmt.Sprintf("scan recovered %s: %v", name, err)
		}
		wrows, err := tableRows(want, wt, 0)
		if err != nil {
			return fmt.Sprintf("scan replay %s: %v", name, err)
		}
		if !model.TableEqual(grows, wrows) {
			return fmt.Sprintf("table %s differs: recovered %d rows, replay %d rows",
				name, len(grows.Tuples), len(wrows.Tuples))
		}
	}
	return ""
}

func tableNames(eng *engine.DB) []string {
	var names []string
	for _, t := range eng.Catalog().Tables() {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
