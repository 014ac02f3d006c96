// Package faultsim is a deterministic soft-fault injection harness
// for the storage stack: unlike its sibling crashsim, which kills the
// whole "machine", faultsim makes individual I/O operations fail and
// checks that the engine contains the damage at the statement
// boundary — transient bursts are absorbed by bounded retries, harder
// faults abort exactly one statement and roll it back, and the
// database keeps serving committed data without a reopen.
//
// The pieces:
//
//   - Injector counts I/O operations flowing through the wrappers and
//     fails the ones inside a seeded burst window (faultsim.go);
//   - WrapStore and WrapWAL interpose the injector between the engine
//     and a backing segment.Store / wal.Storage — typically a crashsim
//     Session, so a run can end with a power cut on top of the soft
//     faults (wrap.go);
//   - RunFaults drives one workload with a fault burst at a chosen
//     operation, comparing the live engine against a clean oracle
//     after every aborted statement, then kills the session and
//     re-verifies the crash-recovery invariants (harness.go).
package faultsim

import (
	"fmt"
	"strings"
	"sync"
)

// OpKind classifies the I/O operations the wrappers intercept; Arm
// takes a bitmask of kinds so a test can, for example, fault only the
// write side and leave concurrent readers untouched.
type OpKind uint32

const (
	// OpRead is a segment page read.
	OpRead OpKind = 1 << iota
	// OpWrite is a segment page write.
	OpWrite
	// OpSync is a segment sync.
	OpSync
	// OpWALWrite is a log append reaching the file.
	OpWALWrite
	// OpWALSync is a log sync.
	OpWALSync
	// OpWALRead is a log read (recovery and rollback replay).
	OpWALRead
)

// OpAll masks every intercepted operation.
const OpAll = OpRead | OpWrite | OpSync | OpWALWrite | OpWALSync | OpWALRead

// OpMutate masks the mutating operations only: the kinds a read-only
// statement never needs unless it evicts a dirty page.
const OpMutate = OpWrite | OpSync | OpWALWrite | OpWALSync

func (k OpKind) String() string {
	names := []struct {
		bit  OpKind
		name string
	}{
		{OpRead, "read"}, {OpWrite, "write"}, {OpSync, "sync"},
		{OpWALWrite, "walwrite"}, {OpWALSync, "walsync"}, {OpWALRead, "walread"},
	}
	var parts []string
	for _, n := range names {
		if k&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Error is an injected I/O fault. It implements
// segment.TransientError, so the engine's retry layer distinguishes
// bursts that should be absorbed from faults that must abort the
// statement.
type Error struct {
	// Kind is the faulted operation.
	Kind OpKind
	// Op is the 1-based position of the faulted operation in the
	// injector's sequence.
	Op int64
	// Persistent marks a fault the retry layer must not absorb.
	Persistent bool
}

func (e *Error) Error() string {
	kind := "transient"
	if e.Persistent {
		kind = "persistent"
	}
	return fmt.Sprintf("faultsim: injected %s %s fault at op %d", kind, e.Kind, e.Op)
}

// Transient reports whether bounded retries may absorb this fault.
func (e *Error) Transient() bool { return !e.Persistent }

// Injector fails the I/O operations inside an armed burst window.
// Operations are counted across every wrapper sharing the injector;
// the window covers positions [at, at+burst) of that sequence, and an
// operation in the window whose kind is in the mask fails. A freshly
// constructed injector is unarmed and merely counts.
type Injector struct {
	mu        sync.Mutex
	ops       int64
	at        int64 // 1-based window start; 0 = unarmed
	burst     int64
	transient bool
	mask      OpKind
	faults    int64
}

// NewInjector returns an unarmed injector.
func NewInjector() *Injector { return &Injector{} }

// Arm schedules a fault burst: the burst operations starting at the
// at-th (1-based) subsequent position of the op sequence fail, when
// their kind is in mask. transient selects whether the injected
// errors admit retry. at <= 0 disarms. Arm may be called while the
// engine is running; the window applies from the current position.
func (in *Injector) Arm(at, burst int64, transient bool, mask OpKind) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if at <= 0 {
		in.at = 0
		return
	}
	in.at = at
	in.burst = burst
	in.transient = transient
	in.mask = mask
}

// step accounts one operation and decides whether it faults.
func (in *Injector) step(kind OpKind) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.at > 0 && in.ops >= in.at && in.ops < in.at+in.burst && in.mask&kind != 0 {
		in.faults++
		return &Error{Kind: kind, Op: in.ops, Persistent: !in.transient}
	}
	return nil
}

// Ops returns the number of operations observed so far.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Faults returns the number of operations failed so far.
func (in *Injector) Faults() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults
}
