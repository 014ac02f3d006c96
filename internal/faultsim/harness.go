// Package faultsim is a deterministic soft-fault harness for the
// storage stack: where crashsim kills the whole "machine", faultsim
// arms a burst window on the same session's simkit.Injector so that
// individual I/O operations fail, and checks that the engine contains
// the damage at the statement boundary — transient bursts are absorbed
// by bounded retries, harder faults abort exactly one statement and
// roll it back, and the database keeps serving committed data without
// a reopen. RunFaults drives one workload with a burst at a chosen
// operation, compares the live engine against a clean oracle after
// every aborted statement, then kills the session and re-verifies the
// crash-recovery invariants. With no burst it runs crash-free and
// returns the operation count the matrix sweeps.
package faultsim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/crashsim"
	"repro/internal/engine"
	"repro/internal/scrub"
	"repro/internal/segment"
	"repro/internal/simkit"
)

// stmtCount is the length of the generated DML sequence per workload
// (the same seeded generator as the crash matrix).
const stmtCount = 40

// retryTries is the retry budget the harness configures. The burst
// arithmetic below depends on it: a transient burst shorter than
// retryTries is absorbed invisibly, a longer one fails the statement
// after retryTries faulted attempts and leaves at most
// retryTries-1 window operations to be drained by the rollback's own
// retries — so any transient burst up to 2*retryTries-1 must never
// poison the engine.
const retryTries = 4

// MaxTransientBurst is the longest transient burst RunFaults accepts:
// beyond 2*retryTries-1 the remainder of the window could exhaust the
// rollback's retries too, and a failed rollback legitimately poisons
// the database.
const MaxTransientBurst = 2*retryTries - 1

// openLive opens an engine on the session, with the bounded-retry
// layer over its injector-wrapped stores and log and a small pool so
// eviction steals uncommitted dirty pages mid-statement.
func openLive(s *crashsim.Session, clock func() int64, pool int) (*engine.DB, error) {
	return engine.Open(engine.Options{
		PoolPages:      pool,
		Clock:          clock,
		OpenStore:      s.OpenStore,
		OpenWALStorage: s.OpenWALStorage,
		Retry:          segment.RetryPolicy{Tries: retryTries},
	})
}

// RunFaults executes one soft-chaos cycle: run the seeded workload
// with a fault burst armed at the at-th DataPath operation of the
// session's injector, and check statement-level containment against a
// clean in-memory oracle executing the same statements:
//
//   - a statement that fails must leave the live engine exactly equal
//     to the oracle (which skips the failed statement) — without a
//     reopen;
//   - a transient burst shorter than the retry budget must be
//     absorbed: no open failure, no aborted statement;
//   - a burst hard enough to fail (persistent, or transient spanning
//     the whole retry budget) must surface somewhere — an aborted
//     statement or a failed open — never a wrong answer;
//   - after the workload the engine must still accept new statements.
//
// Finally the session is killed mid-flight (power cut on top of the
// soft faults), the disk settles with seeded torn/lost-write
// outcomes, and the recovered engine must pass every crash-recovery
// invariant and again equal the oracle. With at <= 0 no burst is armed
// and the run ends with a clean close instead: it is the matrix's
// probe, and the returned count is the session's DataPath operations,
// the range a matrix sweeps windows across.
func RunFaults(wseed, at, burst int64, transient bool) (int64, error) {
	if at > 0 && transient && (burst < 1 || burst > MaxTransientBurst) {
		return 0, fmt.Errorf("faultsim: transient burst %d out of range [1,%d]", burst, MaxTransientBurst)
	}
	if at > 0 && !transient && burst != 1 {
		// A persistent fault is never retried, so a window wider than
		// the faulted statement could also fail the rollback — which
		// correctly poisons the engine, but then there is no
		// containment left to verify.
		return 0, fmt.Errorf("faultsim: persistent bursts must have length 1, got %d", burst)
	}

	w := crashsim.NewWorkload(wseed, stmtCount)
	all := append(append([]string{}, w.Setup...), w.Stmts...)
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }

	// The oracle runs the statements the live engine manages to
	// commit, on a clean in-memory engine sharing the logical clock.
	oracle, err := engine.Open(engine.Options{Clock: clock})
	if err != nil {
		return 0, err
	}

	d := crashsim.NewDisk()
	s := d.Open(wseed*131+at, -1)
	s.Arm(simkit.Burst{At: at, N: burst, Transient: transient, Mask: simkit.DataPath})

	// The window can land inside the initial open (recovery I/O); a
	// failed open consumes at least one window operation, so retrying
	// a handful of times must get past it.
	var eng *engine.DB
	openFailed := false
	for attempt := 0; ; attempt++ {
		eng, err = openLive(s, clock, 8)
		if err == nil {
			break
		}
		openFailed = true
		if s.Faults() == 0 {
			return 0, fmt.Errorf("faultsim: open failed without an injected fault: %w", err)
		}
		if attempt >= 4 {
			return 0, fmt.Errorf("faultsim: open kept failing after the fault window: %w", err)
		}
	}

	aborted := 0
	for i, stmt := range all {
		if _, err := eng.Exec(stmt); err != nil {
			if s.Faults() == 0 {
				return 0, fmt.Errorf("faultsim: statement %d failed without an injected fault: %w\n%s", i, err, stmt)
			}
			aborted++
			// Containment: the failed statement must have been rolled
			// back completely, live, without a reopen.
			if diff := crashsim.CompareState(eng, oracle); diff != "" {
				return 0, fmt.Errorf("faultsim: after aborting statement %d (%v) live state differs from oracle: %s", i, err, diff)
			}
			continue
		}
		if _, err := oracle.Exec(stmt); err != nil {
			return 0, fmt.Errorf("faultsim: oracle rejected statement %d: %w\n%s", i, err, stmt)
		}
	}

	if transient && burst < retryTries && (openFailed || aborted > 0) {
		return 0, fmt.Errorf("faultsim: transient burst %d < %d retries should have been absorbed (openFailed=%v aborted=%d)",
			burst, retryTries, openFailed, aborted)
	}
	if (!transient || burst >= retryTries) && s.Faults() > 0 && !openFailed && aborted == 0 {
		return 0, fmt.Errorf("faultsim: unabsorbable burst fired (%d faults) yet nothing failed", s.Faults())
	}

	if at > 0 {
		// The engine must remain fully usable after the faults: disarm
		// and run fresh DML. Early windows can abort the setup itself,
		// so recreate EMP if its CREATE was the victim.
		s.Arm(simkit.Burst{})
		post := []string{`INSERT INTO EMP VALUES (999999, 'POST', 1)`}
		if _, ok := eng.Catalog().Table("EMP"); !ok {
			post = append([]string{w.Setup[0]}, post...)
		}
		for _, stmt := range post {
			for _, e := range []*engine.DB{eng, oracle} {
				if _, err := e.Exec(stmt); err != nil {
					return 0, fmt.Errorf("faultsim: post-fault statement failed: %w\n%s", err, stmt)
				}
			}
		}
		if diff := crashsim.CompareState(eng, oracle); diff != "" {
			return 0, fmt.Errorf("faultsim: final live state differs from oracle: %s", diff)
		}
		// The indexes the live engine kept up across the faults, the
		// aborts and their rollbacks must equal their rebuild from base
		// data.
		if err := scrub.IndexesAgree(eng); err != nil {
			return 0, fmt.Errorf("faultsim: after the faults: %w", err)
		}
		// Power cut on top of the soft faults: every statement either
		// committed (synced) or rolled back, so the recovered state
		// must equal the oracle exactly, with every invariant intact.
		s.Kill()
	} else if err := eng.Close(); err != nil {
		return 0, fmt.Errorf("faultsim: clean close failed: %w", err)
	}
	ops := s.Ops(simkit.DataPath)

	rs := d.Open(wseed*91+at+7, -1)
	eng2, err := engine.Open(engine.Options{
		PoolPages: 64, Clock: clock,
		OpenStore: rs.OpenStore, OpenWALStorage: rs.OpenWALStorage,
	})
	if err != nil {
		return 0, fmt.Errorf("faultsim: recovery failed: %w", err)
	}
	if err := crashsim.CheckInvariants(eng2); err != nil {
		return 0, fmt.Errorf("faultsim: after recovery: %w", err)
	}
	if diff := crashsim.CompareState(eng2, oracle); diff != "" {
		return 0, fmt.Errorf("faultsim: recovered state differs from oracle: %s", diff)
	}
	return ops, nil
}
