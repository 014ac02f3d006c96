// Package crashsim is a deterministic fault harness for the storage
// stack. It runs an engine on an in-memory disk model whose stores and
// log segment files are wrapped by one simkit.Injector per process
// lifetime, crashes the "machine" at a seeded budget of mutating I/O
// operations and fails single operations in burst windows, models what
// an operating system may do to unsynced writes at a crash (survive,
// vanish, or tear at sector granularity; a new log segment may vanish,
// a removed one may come back), and checks that recovery restores
// exactly the committed state.
//
// The pieces:
//
//   - Disk models durable storage across simulated reboots, Session is
//     one process lifetime with its injector; its unsynced writes are
//     settled with seeded outcomes when the next session opens
//     (disk.go, walstorage.go);
//   - Workload generates seeded NF² DDL/DML scripts covering flat
//     tables, all three complex-object layouts, ordered subtables,
//     overflow-length fields and versioned history, optionally ending
//     in a transaction block (workload.go);
//   - CheckInvariants audits a recovered engine: page checksums and
//     LSN bounds, Mini-Directory walks, index round-trips (check.go);
//   - RunCrash is the one crash-recover-verify runner of every ordered
//     workload, on the engine shape and burst a Config names, with or
//     without a crash budget (harness.go); the soft-fault matrices of
//     package faultsim are its runs with a burst and no budget.
//     RunGroupCommitCrash checks the acknowledgement contract of
//     concurrent committers, whose interleaving has no replay order
//     (gccrash.go). Fault-free, each returns the operation counts a
//     matrix sweeps.
package crashsim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/scrub"
	"repro/internal/segment"
	"repro/internal/simkit"
)

// RetryTries is the retry budget every session opens with. A transient
// burst shorter than it is absorbed invisibly; a longer one fails its
// unit after RetryTries faulted attempts and leaves at most
// RetryTries-1 window operations for the rollback's own retries.
const RetryTries = 4

// MaxTransientBurst is the longest transient burst RunCrash accepts:
// beyond it the window could exhaust the rollback's retries too, and a
// failed rollback legitimately poisons the database. A persistent
// fault is never retried, so a persistent burst spans one operation.
const MaxTransientBurst = 2*RetryTries - 1

// snapshot records the visible HIST rows at a logical instant of the
// faulted run; after recovery the same ASOF query must reproduce it.
type snapshot struct {
	ts   int64
	rows *model.Table
}

// Config is the engine shape and fault plan a cycle runs on. Every
// shape opens the production segmented log, over the session's
// fault-injecting segment files.
type Config struct {
	// SegmentBytes is engine.Options.WALSegmentBytes: zero for the
	// production default, tiny to make segment rolls frequent.
	SegmentBytes int64
	// CkptEvery writes a fuzzy checkpoint after every CkptEvery units
	// (zero: never). After recovery a checkpointing run also checks
	// that a fresh checkpoint leaves a one-segment chain whose replay
	// tail starts at the checkpoint record.
	CkptEvery int
	// Burst is armed on the faulted session's injector beside the
	// crash budget. A unit, snapshot or checkpoint it fails is rolled
	// back live and the run goes on; the oracle skips it.
	Burst simkit.Burst
}

// Plain is the production log shape without checkpoints: the crash
// matrix lands inside statements, commits and recovery.
var Plain = Config{}

// Checkpointing splits the log into tiny segments (so rolls are
// frequent) and checkpoints at a fixed unit cadence. Because segment
// creation, removal, every log write and every sync are all
// failpoints, the budget sweep lands inside segment switches, inside
// the checkpoint's flush and record write, and inside recycling — the
// recovered database must be indistinguishable from a clean replay of
// the committed units no matter which of those the crash interrupts.
var Checkpointing = Config{SegmentBytes: 8 << 10, CkptEvery: 6}

// Open opens an engine over a disk session, with bounded retries and
// no backoff. Faulted sessions use a small pool (8 pages), so eviction
// steals uncommitted dirty pages; recovery uses 64.
func (c Config) Open(s *Session, clock func() int64, poolPages int) (*engine.DB, error) {
	return engine.Open(engine.Options{
		PoolPages:       poolPages,
		Clock:           clock,
		OpenStore:       s.OpenStore,
		OpenWALStorage:  s.OpenWALStorage,
		WALSegmentBytes: c.SegmentBytes,
		Retry:           segment.RetryPolicy{Tries: RetryTries},
	})
}

// Ops counts the faulted session's I/O operations. A probe's counts
// size a matrix: crash budgets sweep Mutating, burst windows DataPath.
// TxnAt is the DataPath count when the transaction block began (zero
// without one), so a window can be aimed at its commit.
type Ops struct{ Mutating, DataPath, TxnAt int64 }

// sessionSeed seeds session k of a cycle: 0 the faulted run, 1 a
// crashed recovery attempt, 2 the recovery, 3 the reopen after it.
// point (crash budget and burst position) separates matrix points.
func sessionSeed(wseed, point int64, k int) int64 {
	return wseed*[...]int64{31, 57, 91, 101}[k] + point + [...]int64{0, 1, 7, 11}[k]
}

// cycle is the state of one RunCrash run.
type cycle struct {
	c        Config
	w        *Workload
	s        *Session // the faulted session
	clk      atomic.Int64
	oracle   *engine.DB // replays the committed units as they commit
	inFlight []string   // the crash's unit, once its commit may have reached the log
	txnAt    int64
	snaps    []snapshot
	surfaced bool // an injected fault failed an open, unit, snapshot or checkpoint
}

func (r *cycle) clock() int64 { return r.clk.Add(1) }

// injected reports whether a fault fired: from then on an error of
// the faulted run is expected.
func (r *cycle) injected() bool { return r.s.Crashed() || r.s.Faults() > 0 }

// RunCrash executes one crash-recover-verify cycle of workload w in
// the shape c. It runs w's units — each statement in auto-commit, then
// the transaction block if w has one — with c.Burst armed, until they
// end or the crash fires at the budget-th mutating I/O operation. It
// snapshots HIST after every committed unit and checkpoints every
// c.CkptEvery units; after a unit the burst aborted, the live state
// must equal the committed units. A point that arms both a burst and a
// budget fails unless both fire. A burst without a budget must be
// absorbed if shorter than RetryTries and surface otherwise; then the
// disarmed engine must run new DML with its indexes equal to their
// rebuild, and the power is cut.
//
// The disk settles with seeded torn/lost-write outcomes and recovers
// (with recBudget >= 0 the recovery is first crashed once), and must
// pass every invariant and equal the committed units — plus the
// interrupted one if its commit may have reached the log — reproduce
// the HIST snapshots, keep its checkpoint bookkeeping, and take new
// DML that survives a clean reopen. Budget < 0 without a burst is the
// matrix's probe: a clean close instead of a crash.
func RunCrash(c Config, w *Workload, budget, recBudget int64) (Ops, error) {
	b := c.Burst
	if b.At > 0 && (b.N < 1 || b.N > MaxTransientBurst || !b.Transient && b.N != 1) {
		return Ops{}, fmt.Errorf("crashsim: burst of %d (transient %v): a transient burst spans 1..%d operations, a persistent one 1",
			b.N, b.Transient, MaxTransientBurst)
	}
	oracle, err := engine.Open(engine.Options{})
	if err != nil {
		return Ops{}, err
	}
	defer oracle.Close()
	r := &cycle{c: c, w: w, oracle: oracle}
	d := NewDisk()
	point := budget + b.At<<20
	r.s = d.Open(sessionSeed(w.Seed, point, 0), budget)
	r.s.Arm(b)
	eng, err := r.openFaulted()
	if eng != nil {
		err = r.drive(eng)
		if err == nil && b.At > 0 && budget < 0 {
			err = r.afterBurst(eng)
			// Power cut on top of the soft faults: every unit either
			// committed or rolled back.
			r.s.Kill()
		}
		if cerr := eng.Close(); err == nil && cerr != nil && !r.injected() {
			err = fmt.Errorf("crashsim: clean close failed: %w", cerr)
		}
	}
	if err != nil {
		return Ops{}, err
	}
	ops := Ops{r.s.Ops(simkit.Mutating), r.s.Ops(simkit.DataPath), r.txnAt}
	if b.At > 0 && budget >= 0 && (r.s.Faults() == 0 || !r.s.Crashed()) {
		return Ops{}, fmt.Errorf("crashsim: composite point fired %d burst faults, crashed %v: it tests no combination", r.s.Faults(), r.s.Crashed())
	}

	// A crashed first recovery attempt, retried on a clean session:
	// recovery must be idempotent.
	if recBudget >= 0 {
		rs := d.Open(sessionSeed(w.Seed, point, 1), recBudget)
		if eng, err := c.Open(rs, r.clock, 8); err == nil {
			eng.Close()
		} else if !rs.Crashed() {
			return Ops{}, fmt.Errorf("crashsim: budgeted recovery failed without a crash: %w", err)
		}
	}
	if eng, err = recoverAudited(c, d, sessionSeed(w.Seed, point, 2), r.clock); err != nil {
		return Ops{}, err
	}
	err = r.audit(eng)
	if cerr := eng.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("crashsim: post-recovery close: %w", cerr)
	}
	if err != nil {
		return Ops{}, err
	}
	if eng, err = recoverAudited(c, d, sessionSeed(w.Seed, point, 3), r.clock); err != nil {
		return Ops{}, fmt.Errorf("crashsim: after clean reopen: %w", err)
	}
	defer eng.Close()
	if diff := CompareState(eng, oracle); diff != "" {
		return Ops{}, fmt.Errorf("crashsim: reopened state differs from the recovered one: %s", diff)
	}
	return ops, nil
}

// recoverAudited opens a clean session on d, recovering whatever the
// previous one left, and audits the result with CheckInvariants.
func recoverAudited(c Config, d *Disk, seed int64, clock func() int64) (*engine.DB, error) {
	eng, err := c.Open(d.Open(seed, -1), clock, 64)
	if err != nil {
		return nil, fmt.Errorf("crashsim: recovery failed: %w", err)
	}
	if err := CheckInvariants(eng); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// openFaulted opens the faulted session's engine, retrying past a
// burst window: a failed open consumes at least one window operation.
// A nil engine with a nil error means the crash fired in the open.
func (r *cycle) openFaulted() (*engine.DB, error) {
	for attempt := 0; ; attempt++ {
		eng, err := r.c.Open(r.s, r.clock, 8)
		switch {
		case err == nil:
			return eng, nil
		case r.s.Crashed():
			return nil, nil
		case r.s.Faults() == 0:
			return nil, fmt.Errorf("crashsim: initial open failed without an injected fault: %w", err)
		case attempt >= 4:
			return nil, fmt.Errorf("crashsim: open kept failing after the fault window: %w", err)
		}
		r.surfaced = true
	}
}

// drive runs the workload's units on eng until they end or the crash
// fires.
func (r *cycle) drive(eng *engine.DB) error {
	units := r.w.units()
	for i, u := range units {
		txn := r.w.Txn != nil && i == len(units)-1
		if txn {
			r.txnAt = r.s.Ops(simkit.DataPath)
		}
		committing, err := runUnit(eng, u, txn)
		if err != nil {
			if !r.injected() {
				return fmt.Errorf("crashsim: unit %d failed without an injected fault: %w\n%s", i, err, strings.Join(u, "\n"))
			}
			if r.s.Crashed() {
				if committing {
					r.inFlight = u
				}
				return nil
			}
			// A burst aborted the unit: it must have rolled back
			// completely, live, without a reopen.
			r.surfaced = true
			diff := CompareState(eng, r.oracle)
			if r.s.Crashed() {
				return nil
			}
			if diff != "" {
				return fmt.Errorf("crashsim: after aborting unit %d (%v) live state differs from the committed units: %s", i, err, diff)
			}
			continue
		}
		if err := r.committed(u); err != nil {
			return err
		}
		// Tick the clock for the snapshot instant so ASOF ts is never
		// 0 ("current") and strictly precedes later versions.
		ts := r.clock()
		if t, ok := eng.Catalog().Table("HIST"); ok {
			var rows *model.Table
			if rows, err = TableRows(eng, t, 0); err == nil {
				r.snaps = append(r.snaps, snapshot{ts, rows})
			}
		}
		if err == nil && r.c.CkptEvery > 0 && (i+1)%r.c.CkptEvery == 0 {
			// A crash inside the checkpoint interrupts no unit: the
			// state to recover is exactly the committed prefix.
			err = eng.WALCheckpoint()
		}
		if err != nil {
			if !r.injected() {
				return fmt.Errorf("crashsim: snapshot or checkpoint after unit %d failed without an injected fault: %w", i, err)
			}
			if r.s.Crashed() {
				return nil
			}
			r.surfaced = true
		}
	}
	return nil
}

// runUnit executes one unit on eng: a statement in auto-commit, or
// the transaction block. committing reports whether the unit got as
// far as its commit, from where it may have reached the log.
func runUnit(eng *engine.DB, u []string, txn bool) (committing bool, err error) {
	if !txn {
		_, err := eng.Exec(u[0])
		return true, err
	}
	tx, err := eng.Begin()
	if err != nil {
		return false, err
	}
	for _, stmt := range u {
		if _, err := tx.Exec(stmt); err != nil {
			tx.Rollback()
			return false, err
		}
	}
	return true, tx.Commit()
}

// committed applies a unit the database committed to the oracle.
func (r *cycle) committed(u []string) error {
	for _, stmt := range u {
		if _, err := r.oracle.Exec(stmt); err != nil {
			return fmt.Errorf("crashsim: oracle rejected a committed statement: %w\n%s", err, stmt)
		}
	}
	return nil
}

// afterBurst checks a run that outlived its burst without a crash
// budget: the burst was absorbed if shorter than the retry budget and
// surfaced otherwise, and the disarmed engine takes new DML with its
// live indexes — kept up across the faults, aborts and rollbacks —
// equal to their rebuild from base data.
func (r *cycle) afterBurst(eng *engine.DB) error {
	b := r.c.Burst
	if b.Transient && b.N < RetryTries && r.surfaced {
		return fmt.Errorf("crashsim: transient burst %d < %d retries should have been absorbed", b.N, RetryTries)
	}
	if (!b.Transient || b.N >= RetryTries) && r.s.Faults() > 0 && !r.surfaced {
		return fmt.Errorf("crashsim: unabsorbable burst fired (%d faults) yet nothing failed", r.s.Faults())
	}
	r.s.Arm(simkit.Burst{})
	err := r.postDML(eng)
	if err == nil {
		err = scrub.IndexesAgree(eng)
	}
	if err != nil {
		return fmt.Errorf("crashsim: after the faults: %w", err)
	}
	return nil
}

// audit checks the recovered engine against what the faulted run
// committed, then proves it usable with new DML.
func (r *cycle) audit(eng *engine.DB) error {
	if diffA := CompareState(eng, r.oracle); diffA != "" {
		if r.inFlight == nil {
			return fmt.Errorf("crashsim: recovered state differs from the committed units: %s", diffA)
		}
		// Else the in-flight unit's commit may have reached the log.
		if err := r.committed(r.inFlight); err != nil {
			return err
		}
		if diffB := CompareState(eng, r.oracle); diffB != "" {
			return fmt.Errorf("crashsim: recovered state matches neither replay\nwithout in-flight: %s\nwith in-flight: %s", diffA, diffB)
		}
	}

	// ASOF: history rebuilt from the log must reproduce the snapshots
	// the faulted run saw. Every one followed a committed unit, so all
	// must hold — recycling must never eat versions a snapshot needs
	// (versions live in pages, not in the log).
	for _, sn := range r.snaps {
		t, ok := eng.Catalog().Table("HIST")
		if !ok {
			return fmt.Errorf("crashsim: HIST vanished despite a recorded snapshot")
		}
		rows, err := TableRows(eng, t, sn.ts)
		if err != nil {
			return fmt.Errorf("crashsim: ASOF %d scan: %w", sn.ts, err)
		}
		if !model.TableEqual(rows, sn.rows) {
			return fmt.Errorf("crashsim: HIST ASOF %d differs from the snapshot taken before the crash", sn.ts)
		}
	}

	// Checkpoint bookkeeping: a fresh checkpoint must leave a
	// one-segment chain whose replay tail is the checkpoint record.
	if r.c.CkptEvery > 0 {
		if err := eng.WALCheckpoint(); err != nil {
			return fmt.Errorf("crashsim: post-recovery checkpoint: %w", err)
		}
		ws := eng.WALStats()
		if ws.End > 0 && ws.CheckpointLSN == 0 {
			return fmt.Errorf("crashsim: post-recovery checkpoint left no checkpoint LSN (stats %+v)", ws)
		}
		if ws.CheckpointLSN > 0 {
			if ws.TailStart != ws.CheckpointLSN-1 {
				return fmt.Errorf("crashsim: replay tail %d does not start at the checkpoint record %d", ws.TailStart, ws.CheckpointLSN)
			}
			if ws.Segments != 1 {
				return fmt.Errorf("crashsim: %d segments retained after checkpoint, want 1", ws.Segments)
			}
		}
	}
	if err := r.postDML(eng); err != nil {
		return fmt.Errorf("crashsim: after recovery: %w", err)
	}
	return nil
}

// postDML runs new DML on eng and the oracle, which must agree after
// it: one insert into EMP, created first if a fault took its CREATE.
func (r *cycle) postDML(eng *engine.DB) error {
	post := []string{`INSERT INTO EMP VALUES (999999, 'POST', 1)`}
	if _, ok := eng.Catalog().Table("EMP"); !ok {
		post = append([]string{r.w.Setup[0]}, post...)
	}
	for _, stmt := range post {
		if _, err := eng.Exec(stmt); err != nil {
			return fmt.Errorf("new DML failed: %w\n%s", err, stmt)
		}
		if err := r.committed([]string{stmt}); err != nil {
			return err
		}
	}
	if diff := CompareState(eng, r.oracle); diff != "" {
		return fmt.Errorf("state after new DML differs from the oracle: %s", diff)
	}
	return nil
}

// The oracle helpers below are shared with the other simulators:
// TableRows reads a table through the production cursor, CompareState
// diffs two engines.

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
