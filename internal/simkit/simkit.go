// Package simkit is the one fault injector of the storage simulators.
// An Injector counts every I/O operation an engine issues through the
// store and log wrappers it hands out (WrapStore, WrapWAL) and makes
// every fault decision, from one plan that may combine:
//
//   - a crash at the budget-th mutating operation: a crashing page
//     write tears at sector granularity, a crashing log write keeps a
//     seeded prefix, and every later operation fails with ErrCrashed;
//   - a burst window: the operations at a run of positions fail with a
//     transient or persistent *Error (segment.TransientError), so the
//     engine's retry layer and statement rollback are exercised;
//   - page faults aimed at one page each (lost, misdirected, bit-flip,
//     zero), which fire on the next write of that page.
//
// The simulators are configurations of it: crashsim runs it over an
// in-memory disk model that settles unsynced writes after a crash,
// faultsim arms bursts on the same sessions, and corruptsim arms page
// faults over real segment files.
package simkit

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/segment"
)

// OpKind is the kind of one intercepted I/O operation; masks of kinds
// select what a burst faults and what a counter counts.
type OpKind uint32

const (
	PageRead OpKind = 1 << iota
	PageWrite
	PageSync
	LogCreate // a log segment file is created
	LogRemove // a log segment file is removed
	LogWrite
	LogSync
	LogRead
)

// Mutating masks the kinds a crash budget counts: everything that may
// change what survives a power cut.
const Mutating = PageWrite | PageSync | LogCreate | LogRemove | LogWrite | LogSync

// DataPath masks the kinds a burst window counts and may fault: every
// kind but the two log-directory operations, which are crash points
// only.
const DataPath = PageRead | PageWrite | PageSync | LogWrite | LogSync | LogRead

var kindNames = [...]string{"read", "write", "sync", "create", "remove", "walwrite", "walsync", "walread"}

func (k OpKind) String() string {
	var parts []string
	for i, name := range kindNames {
		if k&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ErrCrashed is returned by the crashing operation and by every
// operation after it: the process is "dead" and nothing it attempts
// reaches storage.
var ErrCrashed = errors.New("simkit: simulated crash")

// Error is a fault injected by a burst window. It implements
// segment.TransientError, so the engine's retry layer tells bursts it
// should absorb from faults that must abort the statement.
type Error struct {
	Kind OpKind
	// Op is the operation's 1-based position among the DataPath kinds.
	Op int64
	// Persistent marks a fault the retry layer must not absorb.
	Persistent bool
}

func (e *Error) Error() string {
	kind := "transient"
	if e.Persistent {
		kind = "persistent"
	}
	return fmt.Sprintf("simkit: injected %s %s fault at op %d", kind, e.Kind, e.Op)
}

// Transient reports whether bounded retries may absorb this fault.
func (e *Error) Transient() bool { return !e.Persistent }

// Burst is a fault window: the DataPath operations at positions
// [At, At+N) whose kind is in Mask fail. At <= 0 is no window.
type Burst struct {
	At, N     int64
	Transient bool
	Mask      OpKind
}

// PageFaultKind is a silent page corruption.
type PageFaultKind int

const (
	BitFlip          PageFaultKind = iota // one byte of the page flips
	ZeroPage                              // the page reads back as zeroes
	LostWrite                             // the device acks a write and drops it
	MisdirectedWrite                      // the write lands on another page
)

var pageFaultNames = [...]string{"bit-flip", "zero-page", "lost-write", "misdirected-write"}

func (k PageFaultKind) String() string {
	if k >= 0 && int(k) < len(pageFaultNames) {
		return pageFaultNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// PageFault is one corruption aimed at one page.
type PageFault struct {
	Seg  segment.ID
	Page uint32
	Kind PageFaultKind
	// Off is the in-page byte offset a BitFlip corrupts.
	Off int
	// Target is the page a MisdirectedWrite lands on.
	Target uint32
}

func (f PageFault) String() string {
	s := fmt.Sprintf("%v@%d.%d", f.Kind, f.Seg, f.Page)
	switch f.Kind {
	case BitFlip:
		s += "+" + strconv.Itoa(f.Off)
	case MisdirectedWrite:
		s += "->" + strconv.Itoa(int(f.Target))
	}
	return s
}

type pageKey struct {
	seg segment.ID
	no  uint32
}

// Injector makes every fault decision of one simulated process. All
// wrappers sharing it count one operation sequence; the crash budget
// counts its Mutating operations, a burst window its DataPath ones.
// After the crash nothing is counted any more.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	budget  int64 // crash at this Mutating op (1-based); < 0 never
	crashed bool
	ops     [len(kindNames)]int64 // per kind
	burst   Burst
	faults  int64
	armed   map[pageKey][]PageFault
	fired   []PageFault
}

// NewInjector returns an injector that crashes on the budget-th
// mutating operation (budget < 0: never), drawing how much of the
// crashing operation survives from seed.
func NewInjector(seed, budget int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), budget: budget, armed: make(map[pageKey][]PageFault)}
}

// Arm replaces the burst window; Arm(Burst{}) disarms. Positions are
// absolute, so a window armed at Ops(DataPath)+k starts k operations
// from now.
func (in *Injector) Arm(b Burst) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.burst = b
}

// ArmPage schedules a page fault: the next write of f's page fires it.
func (in *Injector) ArmPage(f PageFault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := pageKey{f.Seg, f.Page}
	in.armed[k] = append(in.armed[k], f)
}

// step accounts one operation. crashNow is set on the operation that
// fires the crash (the caller applies what survives of it and returns
// ErrCrashed); err is ErrCrashed after the crash, or the burst's
// *Error. The crash wins over a burst at the same operation.
func (in *Injector) step(kind OpKind) (crashNow bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return false, ErrCrashed
	}
	in.ops[bits.TrailingZeros32(uint32(kind))]++
	if kind&Mutating != 0 && in.budget >= 0 && in.count(Mutating) >= in.budget {
		in.crashed = true
		return true, nil
	}
	b := in.burst
	if kind&DataPath != 0 && b.At > 0 && kind&b.Mask != 0 {
		if pos := in.count(DataPath); pos >= b.At && pos < b.At+b.N {
			in.faults++
			return false, &Error{Kind: kind, Op: pos, Persistent: !b.Transient}
		}
	}
	return false, nil
}

// pageFault pops the next page fault armed at (seg, no).
func (in *Injector) pageFault(seg segment.ID, no uint32) (PageFault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := pageKey{seg, no}
	pending := in.armed[k]
	if len(pending) == 0 {
		return PageFault{}, false
	}
	if len(pending) == 1 {
		delete(in.armed, k)
	} else {
		in.armed[k] = pending[1:]
	}
	in.fired = append(in.fired, pending[0])
	return pending[0], true
}

// intn draws how much of a crashing operation survives.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

func (in *Injector) count(mask OpKind) int64 {
	var n int64
	for i, c := range in.ops {
		if mask&(1<<i) != 0 {
			n += c
		}
	}
	return n
}

// Kill fires the crash now: every later operation fails with
// ErrCrashed.
func (in *Injector) Kill() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashed = true
}

// Crashed reports whether the crash has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Ops returns how many operations of the kinds in mask were counted;
// a probe run sizes a crash matrix with Ops(Mutating) and a burst
// matrix with Ops(DataPath).
func (in *Injector) Ops(mask OpKind) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count(mask)
}

// Faults returns how many operations a burst window failed.
func (in *Injector) Faults() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults
}

// Fired returns the page faults that fired, in order.
func (in *Injector) Fired() []PageFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]PageFault(nil), in.fired...)
}
