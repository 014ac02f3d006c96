// Package crashsim is a deterministic crash harness for the storage
// stack. It runs an engine on an in-memory disk model whose stores and
// log segment files are wrapped by one simkit.Injector per process
// lifetime, crashes the "machine" at a seeded budget of mutating I/O
// operations, models what an operating system may do to unsynced
// writes at a crash (survive, vanish, or tear at sector granularity; a
// new log segment may vanish, a removed one may come back), and checks
// that recovery restores exactly the committed state.
//
// The pieces:
//
//   - Disk models durable storage across simulated reboots, Session is
//     one process lifetime with its injector; its unsynced writes are
//     settled with seeded outcomes when the next session opens
//     (disk.go, walstorage.go);
//   - Workload generates seeded NF² DDL/DML scripts covering flat
//     tables, all three complex-object layouts, ordered subtables,
//     overflow-length fields and versioned history (workload.go);
//   - CheckInvariants audits a recovered engine: page checksums and
//     LSN bounds, Mini-Directory walks, index round-trips (check.go);
//   - RunCrash drives one crash-recover-verify cycle against a replay
//     oracle, in the log and checkpoint shape a Config names, with an
//     optional burst of soft faults on the same injector (harness.go);
//     RunTxnCrash and RunGroupCommitCrash check transaction atomicity
//     and the group-commit acknowledgement contract (txncrash.go,
//     gccrash.go). At budget -1 each runs crash-free and returns the
//     operation count a matrix sweeps.
package crashsim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simkit"
)

// stmtCount is the length of the generated DML sequence per workload.
const stmtCount = 40

// snapshot records the visible HIST rows at a logical instant of the
// faulted run; after recovery the same ASOF query must reproduce it.
type snapshot struct {
	ts   int64
	rows *model.Table
}

// Config is the engine shape a crash cycle runs on. Every shape opens
// the production segmented log, over the session's fault-injecting
// segment files.
type Config struct {
	// SegmentBytes is engine.Options.WALSegmentBytes: zero for the
	// production default, tiny to make segment rolls frequent.
	SegmentBytes int64
	// CkptEvery writes a fuzzy checkpoint after every CkptEvery
	// statements (zero: never). After recovery a checkpointing run
	// also checks that a fresh checkpoint leaves a one-segment chain
	// whose replay tail starts at the checkpoint record.
	CkptEvery int
	// GroupCommitWait is engine.Options.GroupCommitWait.
	GroupCommitWait time.Duration
	// Burst is armed on the faulted session's injector beside the
	// crash budget. A statement, snapshot or checkpoint it fails is
	// rolled back live and the run goes on; the oracle skips it.
	Burst simkit.Burst
}

// Plain is the production log shape without checkpoints: the crash
// matrix lands inside statements, commits and recovery.
var Plain = Config{}

// Checkpointing splits the log into tiny segments (so rolls are
// frequent) and checkpoints at a fixed statement cadence. Because
// segment creation, removal, every log write and every sync are all
// failpoints, the budget sweep lands inside segment switches, inside
// the checkpoint's flush and record write, and inside recycling — the
// recovered database must be indistinguishable from a clean replay of
// the committed statements no matter which of those the crash
// interrupts.
var Checkpointing = Config{SegmentBytes: 8 << 10, CkptEvery: 6}

// open opens an engine over a disk session. The faulted runs use a
// small buffer pool, so eviction steals uncommitted dirty pages and
// the recovery path has to cope with them.
func (c Config) open(s *Session, clock func() int64, poolPages int) (*engine.DB, error) {
	return engine.Open(engine.Options{
		PoolPages:       poolPages,
		Clock:           clock,
		OpenStore:       s.OpenStore,
		OpenWALStorage:  s.OpenWALStorage,
		WALSegmentBytes: c.SegmentBytes,
		GroupCommitWait: c.GroupCommitWait,
	})
}

// RunCrash executes one crash-recover-verify cycle in the shape c: run
// the seeded workload (checkpointing every c.CkptEvery statements, with
// c.Burst armed) until the injected crash at the budget-th mutating I/O
// operation, settle the disk with seeded torn/lost-write outcomes,
// recover (with recBudget >= 0 the recovery itself is crashed once and
// retried), and verify every invariant plus state equivalence against a
// clean replay of the committed statements, the ASOF history, the
// checkpoint bookkeeping and continued usability. Budget < 0 exercises
// the crash-free path (clean close, settle, reopen); it is the matrix's
// probe. The returned count is the mutating I/O operations of the
// faulted session, the range a matrix sweeps crash budgets across. A
// point that arms both a burst and a budget fails unless both fire.
func RunCrash(c Config, wseed, budget, recBudget int64) (int64, error) {
	w := NewWorkload(wseed, stmtCount)
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }

	d := NewDisk()
	s := d.Open(wseed*31+budget, budget)
	s.Arm(c.Burst)
	// An error of the faulted run is expected once a fault has fired.
	injected := func() bool { return s.Crashed() || s.Faults() > 0 }
	var done, inFlight []string // committed statements; the one the crash interrupted
	var snaps []snapshot
	eng, err := c.open(s, clock, 8)
	if err != nil {
		if !injected() {
			return 0, fmt.Errorf("crashsim: initial open failed without an injected fault: %w", err)
		}
	} else {
		for i, stmt := range append(append([]string{}, w.Setup...), w.Stmts...) {
			if _, err := eng.Exec(stmt); err != nil {
				if !injected() {
					return 0, fmt.Errorf("crashsim: statement %d failed without an injected fault: %w\n%s", i, err, stmt)
				}
				if s.Crashed() {
					inFlight = []string{stmt}
					break
				}
				continue // a burst aborted it and it rolled back
			}
			done = append(done, stmt)
			// Tick the clock for the snapshot instant so ASOF ts is
			// never 0 ("current") and strictly precedes later versions.
			snap, err := histSnapshot(eng, clk.Add(1))
			if snap != nil {
				snaps = append(snaps, *snap)
			}
			if err == nil && c.CkptEvery > 0 && (i+1)%c.CkptEvery == 0 {
				// A crash inside the checkpoint interrupts no statement:
				// the state to recover is exactly the committed prefix.
				err = eng.WALCheckpoint()
			}
			if err != nil {
				if !injected() {
					return 0, fmt.Errorf("crashsim: snapshot or checkpoint after statement %d failed without an injected fault: %w", i, err)
				}
				if s.Crashed() {
					break
				}
			}
		}
		if !s.Crashed() {
			if err := eng.Close(); err != nil && !injected() {
				return 0, fmt.Errorf("crashsim: clean close failed: %w", err)
			}
		}
	}
	if c.Burst.At > 0 && budget >= 0 && (s.Faults() == 0 || !s.Crashed()) {
		return 0, fmt.Errorf("crashsim: composite point fired %d burst faults, crashed %v: it tests no combination", s.Faults(), s.Crashed())
	}

	// Recover. With recBudget >= 0 the first recovery attempt is
	// itself crashed (wherever its budget lands) and retried on a
	// clean session — recovery must be idempotent.
	if recBudget >= 0 {
		rs := d.Open(wseed*57+budget+1, recBudget)
		if _, err := c.open(rs, clock, 8); err != nil && !rs.Crashed() {
			return 0, fmt.Errorf("crashsim: budgeted recovery failed without a crash: %w", err)
		}
	}
	rs := d.Open(wseed*91+budget+7, -1)
	eng2, err := c.open(rs, clock, 64)
	if err != nil {
		return 0, fmt.Errorf("crashsim: recovery failed: %w", err)
	}

	if err := CheckInvariants(eng2); err != nil {
		return 0, err
	}

	// State equivalence: the recovered database must equal a clean
	// replay of the committed statements — or, when the crash
	// interrupted a statement whose commit record may or may not have
	// reached the durable log, the replay including that statement.
	refA, err := Replay(clock, done)
	if err != nil {
		return 0, err
	}
	diffA := CompareState(eng2, refA)
	if diffA != "" {
		if inFlight == nil {
			return 0, fmt.Errorf("crashsim: recovered state differs from committed replay: %s", diffA)
		}
		refB, err := Replay(clock, done, inFlight)
		if err != nil {
			return 0, err
		}
		if diffB := CompareState(eng2, refB); diffB != "" {
			return 0, fmt.Errorf("crashsim: recovered state matches neither replay\nwithout in-flight: %s\nwith in-flight: %s", diffA, diffB)
		}
	}

	// ASOF: history rebuilt from the log must reproduce the snapshots
	// the faulted run saw. Every recorded snapshot followed a
	// successfully committed statement, so all of them must hold —
	// recycling must never eat versions a snapshot needs (versions
	// live in pages, not in the log).
	for _, sn := range snaps {
		t, ok := eng2.Catalog().Table("HIST")
		if !ok {
			return 0, fmt.Errorf("crashsim: HIST vanished despite a recorded snapshot")
		}
		rows, err := TableRows(eng2, t, sn.ts)
		if err != nil {
			return 0, fmt.Errorf("crashsim: ASOF %d scan: %w", sn.ts, err)
		}
		if !model.TableEqual(rows, sn.rows) {
			return 0, fmt.Errorf("crashsim: HIST ASOF %d differs from the snapshot taken before the crash", sn.ts)
		}
	}

	// Checkpoint bookkeeping on the recovered handle: a fresh
	// checkpoint must leave a one-segment chain whose replay tail is
	// the checkpoint record.
	if c.CkptEvery > 0 {
		if err := eng2.WALCheckpoint(); err != nil {
			return 0, fmt.Errorf("crashsim: post-recovery checkpoint: %w", err)
		}
		ws := eng2.WALStats()
		if ws.End > 0 && ws.CheckpointLSN == 0 {
			return 0, fmt.Errorf("crashsim: post-recovery checkpoint left no checkpoint LSN (stats %+v)", ws)
		}
		if ws.CheckpointLSN > 0 {
			if ws.TailStart != ws.CheckpointLSN-1 {
				return 0, fmt.Errorf("crashsim: replay tail %d does not start at the checkpoint record %d", ws.TailStart, ws.CheckpointLSN)
			}
			if ws.Segments != 1 {
				return 0, fmt.Errorf("crashsim: %d segments retained after checkpoint, want 1", ws.Segments)
			}
		}
	}

	// The recovered database must remain fully usable: run new DML,
	// close cleanly, reopen, and re-audit. Early crash points recover
	// to a state from before CREATE TABLE EMP committed.
	if _, ok := eng2.Catalog().Table("EMP"); !ok {
		if _, err := eng2.Exec(w.Setup[0]); err != nil {
			return 0, fmt.Errorf("crashsim: post-recovery create: %w", err)
		}
	}
	if _, err := eng2.Exec(`INSERT INTO EMP VALUES (999999, 'POST', 1)`); err != nil {
		return 0, fmt.Errorf("crashsim: post-recovery insert: %w", err)
	}
	if err := eng2.Close(); err != nil {
		return 0, fmt.Errorf("crashsim: post-recovery close: %w", err)
	}
	fs := d.Open(wseed*101+budget+11, -1)
	eng3, err := c.open(fs, clock, 64)
	if err != nil {
		return 0, fmt.Errorf("crashsim: reopen after recovery: %w", err)
	}
	if err := CheckInvariants(eng3); err != nil {
		return 0, fmt.Errorf("crashsim: after clean reopen: %w", err)
	}
	t, _ := eng3.Catalog().Table("EMP")
	rows, err := TableRows(eng3, t, 0)
	if err != nil {
		return 0, err
	}
	for _, tup := range rows.Tuples {
		if v, ok := tup[0].(model.Int); ok && int64(v) == 999999 {
			return s.Ops(simkit.Mutating), nil
		}
	}
	return 0, fmt.Errorf("crashsim: post-recovery insert not visible after reopen")
}

// histSnapshot captures the current HIST rows (nil before the table
// exists) together with the logical timestamp ts.
func histSnapshot(eng *engine.DB, ts int64) (*snapshot, error) {
	t, ok := eng.Catalog().Table("HIST")
	if !ok {
		return nil, nil
	}
	rows, err := TableRows(eng, t, 0)
	if err != nil {
		return nil, err
	}
	return &snapshot{ts: ts, rows: rows}, nil
}

// The oracle helpers below are shared with the other simulators:
// Replay builds the reference engine, TableRows reads a table through
// the production cursor, CompareState diffs two engines.

// TableRows materializes a stored table (optionally as of an instant)
// into a table value for comparison.
func TableRows(eng *engine.DB, t *catalog.Table, asof int64) (*model.Table, error) {
	sc, err := eng.Runtime().OpenScan(t, asof, nil, false)
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

// Replay executes the statement groups in order on a fresh in-memory
// engine (clock nil: the engine's own): the oracle for what a
// recovered or live faulted database must contain.
func Replay(clock func() int64, stmts ...[]string) (*engine.DB, error) {
	ref, err := engine.Open(engine.Options{Clock: clock})
	if err != nil {
		return nil, err
	}
	for _, group := range stmts {
		for _, stmt := range group {
			if _, err := ref.Exec(stmt); err != nil {
				return nil, fmt.Errorf("crashsim: oracle replay failed: %w\n%s", err, stmt)
			}
		}
	}
	return ref, nil
}

// CompareState reports a human-readable difference between the two
// engines' logical states ("" when equal): same table set, and every
// table equal as a (multi)set of deeply-compared tuples.
func CompareState(got, want *engine.DB) string {
	gn := tableNames(got)
	wn := tableNames(want)
	if fmt.Sprint(gn) != fmt.Sprint(wn) {
		return fmt.Sprintf("table sets differ: recovered %v, replay %v", gn, wn)
	}
	for _, name := range gn {
		gt, _ := got.Catalog().Table(name)
		wt, _ := want.Catalog().Table(name)
		grows, err := TableRows(got, gt, 0)
		if err != nil {
			return fmt.Sprintf("scan recovered %s: %v", name, err)
		}
		wrows, err := TableRows(want, wt, 0)
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
