// Package crashsim is a deterministic fault-injection harness for the
// storage stack. It wraps the segment stores and the write-ahead log's
// segment files of an engine in fault-injecting implementations that
// crash the "machine" after a seeded budget of mutating I/O operations,
// models what an operating system may do to unsynced writes at a crash
// (survive, vanish, or tear at sector granularity; a new log segment
// may vanish, a removed one may come back), and checks that recovery
// restores exactly the committed state.
//
// The pieces:
//
//   - Injector counts mutating I/O and fires the crash (fault.go);
//   - Disk models durable storage across simulated reboots, Session is
//     one "process lifetime" whose unsynced writes are settled with
//     seeded outcomes when the next session opens (disk.go);
//   - Workload generates seeded NF² DDL/DML scripts covering flat
//     tables, all three complex-object layouts, ordered subtables,
//     overflow-length fields and versioned history (workload.go);
//   - CheckInvariants audits a recovered engine: page checksums and
//     LSN bounds, Mini-Directory walks, index round-trips (check.go);
//   - RunCrash drives one crash-recover-verify cycle against a replay
//     oracle, in the log and checkpoint shape a Config names
//     (harness.go); RunTxnCrash and RunGroupCommitCrash check
//     transaction atomicity and the group-commit acknowledgement
//     contract (txncrash.go, gccrash.go). At budget -1 each runs
//     crash-free and returns the operation count a matrix sweeps.
package crashsim

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrCrashed is returned by every I/O operation of a session after its
// simulated crash point: the process is "dead" and nothing it attempts
// afterwards reaches storage.
var ErrCrashed = errors.New("crashsim: simulated crash")

// Injector decides when the crash happens. Every mutating I/O
// operation (page write, store sync, log append, log sync, log segment
// creation and removal) consumes one unit of budget; the operation
// that exhausts the budget is applied partially (torn) and fails with
// ErrCrashed, and every operation after it fails immediately.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	budget  int64 // remaining ops before the crash; < 0 means never
	ops     int64 // mutating ops observed
	crashed bool
}

// NewInjector returns an injector that crashes on the budget-th
// mutating operation (1-based); budget < 0 never crashes.
func NewInjector(seed int64, budget int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), budget: budget}
}

// step accounts one mutating operation. It returns crashNow=true for
// the operation on which the crash fires (the caller applies a torn
// prefix and returns ErrCrashed) and err=ErrCrashed for every
// operation after the crash.
func (in *Injector) step() (crashNow bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return false, ErrCrashed
	}
	in.ops++
	if in.budget >= 0 && in.ops >= in.budget {
		in.crashed = true
		return true, nil
	}
	return false, nil
}

// intn returns a seeded value in [0, n); used by the crashing
// operation to choose how much of it tears.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Kill fires the crash point immediately: every subsequent I/O
// operation of the session fails with ErrCrashed. The soft-chaos
// harness uses it to cut power at an arbitrary moment after live
// fault containment has been verified, composing with the crash
// recovery checks.
func (in *Injector) Kill() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashed = true
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Ops returns the number of mutating operations observed so far; a
// probe run with a negative budget uses it to size the crash matrix.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}
