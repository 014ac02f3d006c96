package simkit

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// op is one operation issued through the wrappers: a page operation on
// page no (a write fills the page with fill), or a log operation: a
// create makes a new log file, a write or read goes to the last one
// created.
type op struct {
	kind OpKind
	no   uint32
	fill byte
	want string // "ok", "crashed", "transient" or "persistent"
}

func fill(b byte) []byte { return bytes.Repeat([]byte{b}, page.Size) }

// TestInjector pins every fault decision of the injector through its
// wrappers: crash budget and death afterwards, the sector-granular tear
// of the crashing write, burst window and mask positions with the
// transient flag the retry layer reads, page faults that fire exactly
// once, and a burst and a crash armed together.
func TestInjector(t *testing.T) {
	for _, tc := range []struct {
		name             string
		budget           int64
		burst            Burst
		pages            []PageFault
		ops              []op
		mutating, faults int64 // counters after the sequence
		dataPath         int64 // DataPath positions taken, when nonzero
		fired            int
		check            func(t *testing.T, st *segment.MemStore)
	}{
		{
			// Ops before the budget succeed, the budget-th tears, and
			// everything after fails — reads included.
			name: "crash budget", budget: 4,
			ops: []op{
				{kind: LogCreate, want: "ok"},
				{kind: PageWrite, no: 1, fill: 0x11, want: "ok"},
				{kind: LogWrite, want: "ok"},
				{kind: PageWrite, no: 1, fill: 0x22, want: "crashed"},
				{kind: PageRead, no: 1, want: "crashed"},
				{kind: PageSync, want: "crashed"},
				{kind: LogRead, want: "crashed"},
			},
			mutating: 4,
			check: func(t *testing.T, st *segment.MemStore) {
				got := make([]byte, page.Size)
				st.ReadPage(1, got)
				newPrefix := true
				for off := 0; off < page.Size; off += SectorSize {
					sec := got[off : off+SectorSize]
					switch {
					case bytes.Equal(sec, fill(0x22)[:SectorSize]) && newPrefix:
					case bytes.Equal(sec, fill(0x11)[:SectorSize]):
						newPrefix = false
					default:
						t.Fatalf("sector at %d is not a new prefix over the old page", off)
					}
				}
			},
		},
		{
			// A crash on a sync kills the session as a torn write does:
			// page writes and log segment creation fail after it, and
			// no dead operation is counted.
			name: "crash on a sync", budget: 3,
			ops: []op{
				{kind: LogCreate, want: "ok"},
				{kind: PageWrite, no: 1, fill: 0x11, want: "ok"},
				{kind: PageSync, want: "crashed"},
				{kind: PageWrite, no: 1, fill: 0x22, want: "crashed"},
				{kind: LogCreate, want: "crashed"},
			},
			mutating: 3,
		},
		{
			// Positions count every DataPath kind; only masked kinds in
			// [At, At+N) fail, and log-directory operations take no
			// position at all.
			name: "window and mask", budget: -1,
			burst: Burst{At: 3, N: 2, Transient: true, Mask: PageWrite},
			ops: []op{
				{kind: LogCreate, want: "ok"},
				{kind: PageWrite, no: 1, fill: 1, want: "ok"},
				{kind: PageRead, no: 1, want: "ok"},
				{kind: PageRead, no: 1, want: "ok"},                  // position 3: unmasked
				{kind: PageWrite, no: 1, fill: 2, want: "transient"}, // position 4
				{kind: PageWrite, no: 1, fill: 3, want: "ok"},        // position 5: past the window
			},
			mutating: 4, faults: 1, dataPath: 5,
		},
		{
			name: "persistent burst", budget: -1,
			burst:    Burst{At: 1, N: 1, Mask: DataPath},
			ops:      []op{{kind: PageSync, want: "persistent"}, {kind: PageSync, want: "ok"}},
			mutating: 2, faults: 1,
		},
		{
			// The lost write is acked and dropped, the misdirected one
			// lands on its target; the next writes of both pages pass.
			name: "page faults fire once", budget: -1,
			pages: []PageFault{
				{Seg: 7, Page: 1, Kind: LostWrite},
				{Seg: 7, Page: 2, Kind: MisdirectedWrite, Target: 3},
				{Seg: 8, Page: 1, Kind: LostWrite}, // another segment: never fires
			},
			ops: []op{
				{kind: PageWrite, no: 1, fill: 0xA1, want: "ok"},
				{kind: PageWrite, no: 2, fill: 0xA2, want: "ok"},
				{kind: PageWrite, no: 1, fill: 0xB1, want: "ok"},
				{kind: PageWrite, no: 2, fill: 0xB2, want: "ok"},
			},
			mutating: 4, fired: 2,
			check: func(t *testing.T, st *segment.MemStore) {
				got := make([]byte, page.Size)
				for no, want := range map[uint32]byte{1: 0xB1, 2: 0xB2, 3: 0xA2} {
					if st.ReadPage(no, got); !bytes.Equal(got, fill(want)) {
						t.Fatalf("page %d holds %#x, want %#x", no, got[0], want)
					}
				}
			},
		},
		{
			// Faulted operations still spend crash budget, and the crash
			// wins over the window at the same operation.
			name: "burst and crash together", budget: 3,
			burst: Burst{At: 2, N: 5, Transient: true, Mask: DataPath},
			ops: []op{
				{kind: PageWrite, no: 1, fill: 1, want: "ok"},
				{kind: PageSync, want: "transient"},
				{kind: PageWrite, no: 1, fill: 2, want: "crashed"},
				{kind: PageRead, no: 1, want: "crashed"},
			},
			mutating: 3, faults: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInjector(42, tc.budget)
			in.Arm(tc.burst)
			for _, f := range tc.pages {
				in.ArmPage(f)
			}
			mem := segment.NewMemStore()
			st := in.WrapStore(7, mem)
			log := in.WrapWAL(wal.NewDirStorage(t.TempDir()))
			var f wal.File // the last log file created
			creates := 0
			do := func(o op) (err error) {
				switch o.kind {
				case PageRead:
					return st.ReadPage(o.no, make([]byte, page.Size))
				case PageWrite:
					return st.WritePage(o.no, fill(o.fill))
				case PageSync:
					return st.Sync()
				case LogCreate:
					creates++
					f, err = log.Open(fmt.Sprintf("wal-%d.log", creates))
					return err
				case LogWrite:
					_, err = f.Write([]byte("record"))
					return err
				case LogRead:
					_, err = f.ReadAt(make([]byte, 1), 0)
					return err
				}
				t.Fatalf("no driver for %v", o.kind)
				return nil
			}
			for i, o := range tc.ops {
				err := do(o)
				var e *Error
				got := "ok"
				switch {
				case errors.Is(err, ErrCrashed):
					got = "crashed"
				case errors.As(err, &e) && segment.IsTransient(err):
					got = "transient"
				case errors.As(err, &e):
					got = "persistent"
				case err != nil:
					t.Fatalf("op %d (%v): %v", i, o.kind, err)
				}
				if got != o.want {
					t.Fatalf("op %d (%v): %s, want %s", i, o.kind, got, o.want)
				}
			}
			if got := in.Crashed(); got != (tc.budget > 0) {
				t.Fatalf("crashed %v with budget %d", got, tc.budget)
			}
			if in.Ops(Mutating) != tc.mutating || in.Faults() != tc.faults {
				t.Fatalf("mutating ops %d, faults %d; want %d and %d", in.Ops(Mutating), in.Faults(), tc.mutating, tc.faults)
			}
			if tc.dataPath != 0 && in.Ops(DataPath) != tc.dataPath {
				t.Fatalf("data-path positions %d, want %d", in.Ops(DataPath), tc.dataPath)
			}
			if fired := in.Fired(); len(fired) != tc.fired {
				t.Fatalf("fired %v, want %d faults", fired, tc.fired)
			}
			if tc.check != nil {
				tc.check(t, mem)
			}
		})
	}
}
