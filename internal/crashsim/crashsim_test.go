package crashsim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/page"
	"repro/internal/simkit"
	"repro/internal/wal"
)

// stmtCount is the length of the generated DML sequence per workload.
const stmtCount = 40

// TestCrashMatrix sweeps seeded crash points across the whole
// workload: for each workload seed it measures the total number of
// mutating I/O operations, then crashes runs at budgets striding that
// range, recovering and verifying every invariant after each crash. A
// subset of iterations also crashes the recovery itself and recovers
// again.
func TestCrashMatrix(t *testing.T) {
	iterations := 200
	if testing.Short() {
		iterations = 25
	}
	var total int64
	var w *Workload
	for i := 0; i < iterations; i++ {
		wseed := int64(1 + i/8) // fresh workload every 8 crash points
		if w == nil || w.Seed != wseed {
			w = NewWorkload(wseed, stmtCount)
			ops, err := RunCrash(Plain, w, -1, -1)
			if err != nil {
				t.Fatalf("workload %d probe: %v", wseed, err)
			}
			if total = ops.Mutating; total < 20 {
				t.Fatalf("workload %d issues only %d mutating ops; harness miswired", wseed, total)
			}
		}
		budget := 1 + (int64(i)*2654435761)%total
		recBudget := int64(-1)
		if i%9 == 3 {
			recBudget = 1 + int64(i)%23 // also crash the recovery run
		}
		if _, err := RunCrash(Plain, w, budget, recBudget); err != nil {
			t.Fatalf("workload %d budget %d/%d recBudget %d: %v", wseed, budget, total, recBudget, err)
		}
	}
}

// TestCleanRun exercises the no-crash path: run everything, close,
// settle, recover, and the state must equal the full replay.
func TestCleanRun(t *testing.T) {
	if _, err := RunCrash(Plain, NewWorkload(12, stmtCount), -1, -1); err != nil {
		t.Fatal(err)
	}
}

// TestFaultStoreCrash verifies that the crashing write applies only a
// sector prefix and that all subsequent I/O on the session fails.
func TestFaultStoreCrash(t *testing.T) {
	d := NewDisk()
	s := d.Open(42, 2)
	st, err := s.OpenStore(5)
	if err != nil {
		t.Fatal(err)
	}
	no, _ := st.Allocate()
	ones := bytes.Repeat([]byte{0xAA}, page.Size)
	if err := st.WritePage(no, ones); err != nil {
		t.Fatalf("first write: %v", err)
	}
	twos := bytes.Repeat([]byte{0xBB}, page.Size)
	if err := st.WritePage(no, twos); !errors.Is(err, simkit.ErrCrashed) {
		t.Fatalf("second write: err=%v, want ErrCrashed", err)
	}
	if err := st.ReadPage(no, make([]byte, page.Size)); !errors.Is(err, simkit.ErrCrashed) {
		t.Fatalf("read after crash: err=%v, want ErrCrashed", err)
	}
	if err := st.Sync(); !errors.Is(err, simkit.ErrCrashed) {
		t.Fatalf("sync after crash: err=%v, want ErrCrashed", err)
	}
	// The torn image mixes whole sectors of old and new content.
	s2 := d.Open(43, -1)
	st2, _ := s2.OpenStore(5)
	got := make([]byte, page.Size)
	if st2.PageCount() >= no {
		if err := st2.ReadPage(no, got); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < page.Size; off += simkit.SectorSize {
			sec := got[off : off+simkit.SectorSize]
			if !bytes.Equal(sec, ones[:simkit.SectorSize]) && !bytes.Equal(sec, twos[:simkit.SectorSize]) &&
				!bytes.Equal(sec, make([]byte, simkit.SectorSize)) {
				t.Fatalf("sector at %d is neither old, new, nor zero", off)
			}
		}
	}
}

// openWAL opens, creating it if need be, a segment file of the
// session's log.
func openWAL(s *Session, name string) (wal.File, error) {
	st, err := s.OpenWALStorage()
	if err != nil {
		return nil, err
	}
	return st.Open(name)
}

// TestSettleDeterminism: identical seeds and operations must settle to
// identical durable state — pages, log segment contents, segment
// creations and removals — or crash points would not be reproducible.
func TestSettleDeterminism(t *testing.T) {
	build := func() *Disk {
		d := NewDisk()
		s := d.Open(98, -1)
		old, _ := openWAL(s, "wal.log")
		old.Write([]byte("durable head"))
		old.Sync()
		s = d.Open(99, 9) // crashes in the middle of the fourth log write
		st, _ := s.OpenStore(3)
		ws, _ := s.OpenWALStorage()
		f, err := ws.Open("wal-00000000000000000012.log")
		for i := 0; err == nil && i < 10; i++ {
			no, _ := st.Allocate()
			buf := bytes.Repeat([]byte{byte(i + 1)}, page.Size)
			if err = st.WritePage(no, buf); err != nil {
				break
			}
			if i%3 == 0 {
				if _, err = f.Write([]byte(fmt.Sprintf("record-%d", i))); err != nil {
					break
				}
			}
			if i%4 == 0 {
				err = f.Sync()
			}
			if i == 2 {
				err = ws.Remove("wal.log")
			}
		}
		d.Open(100, -1) // settle
		return d
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.walSegs, b.walSegs) {
		t.Fatalf("durable log segments differ between identical runs")
	}
	if len(a.segs) != len(b.segs) {
		t.Fatalf("segment sets differ")
	}
	for id, ia := range a.segs {
		ib := b.segs[id]
		if ib == nil || ia.count != ib.count || len(ia.pages) != len(ib.pages) {
			t.Fatalf("segment %d images differ", id)
		}
		for no, pa := range ia.pages {
			if !bytes.Equal(pa, ib.pages[no]) {
				t.Fatalf("segment %d page %d differs", id, no)
			}
		}
	}
}

// TestWALPrefixSettlement: a log segment file after a crash always
// holds a prefix of what was written, never shorter than the synced
// boundary — whether the crash hits a write (torn), a sync, or the
// file's creation.
func TestWALPrefixSettlement(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := NewDisk()
		s := d.Open(seed, 1+seed%7)
		f, err := openWAL(s, "wal.log")
		var written []byte
		var synced int
		for i := 0; err == nil; i++ {
			chunk := bytes.Repeat([]byte{byte(i + 1)}, 64)
			var n int
			n, err = f.Write(chunk)
			written = append(written, chunk[:n]...)
			if err == nil {
				if err = f.Sync(); err == nil {
					synced = len(written)
				}
			}
		}
		d.Open(seed+1000, -1) // settle
		got, ok := d.walSegs["wal.log"]
		if !ok {
			if synced > 0 {
				t.Fatalf("seed %d: a synced segment file vanished", seed)
			}
			continue
		}
		if len(got) < synced || len(got) > len(written) {
			t.Fatalf("seed %d: durable log %d bytes, want between the synced %d and the written %d", seed, len(got), synced, len(written))
		}
		if !bytes.Equal(got, written[:len(got)]) {
			t.Fatalf("seed %d: durable log is not a prefix of the written bytes", seed)
		}
	}
}

// TestWALSegmentSettlement pins what a crash may leave of log segment
// files beyond the synced prefix: a file created and never synced
// vanishes or keeps a prefix of its bytes, a pending removal either
// reached the directory or left the durable file intact, and a clean
// exit makes everything durable. (TestSettleDeterminism covers that
// the same seed settles the same way.)
func TestWALSegmentSettlement(t *testing.T) {
	written := make([]byte, 300)
	for i := range written {
		written[i] = byte(i)
	}

	t.Run("created_unsynced", func(t *testing.T) {
		var gone, kept int
		for seed := int64(0); seed < 40; seed++ {
			d := NewDisk()
			s := d.Open(seed, -1)
			f, err := openWAL(s, "wal.log")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(written); err != nil {
				t.Fatal(err)
			}
			s.Kill()
			d.Open(seed+1000, -1) // settle
			got, ok := d.walSegs["wal.log"]
			if !ok {
				gone++
				continue
			}
			kept++
			if len(got) > len(written) || !bytes.Equal(got, written[:len(got)]) {
				t.Fatalf("seed %d: unsynced new file settled to %d bytes that are not a prefix of what was written", seed, len(got))
			}
		}
		if gone == 0 || kept == 0 {
			t.Fatalf("over 40 seeds the unsynced file vanished %d times and survived %d times; want both outcomes", gone, kept)
		}
	})

	t.Run("pending_remove", func(t *testing.T) {
		var gone, kept int
		for seed := int64(0); seed < 40; seed++ {
			d := NewDisk()
			s := d.Open(seed, -1)
			f, _ := openWAL(s, "wal.log")
			f.Write(written)
			f.Sync()
			s = d.Open(seed+500, -1) // clean settle: the file is durable
			f, _ = openWAL(s, "wal.log")
			f.Write([]byte("unsynced tail"))
			st, _ := s.OpenWALStorage()
			if err := st.Remove("wal.log"); err != nil {
				t.Fatal(err)
			}
			s.Kill()
			d.Open(seed+1000, -1) // settle
			got, ok := d.walSegs["wal.log"]
			switch {
			case !ok:
				gone++
			case bytes.Equal(got, written):
				kept++
			default:
				t.Fatalf("seed %d: removed file settled to %d bytes, neither gone nor its durable %d", seed, len(got), len(written))
			}
		}
		if gone == 0 || kept == 0 {
			t.Fatalf("over 40 seeds the removal persisted %d times and was lost %d times; want both outcomes", gone, kept)
		}
	})

	t.Run("clean_close", func(t *testing.T) {
		d := NewDisk()
		s := d.Open(1, -1)
		st, _ := s.OpenWALStorage()
		head, _ := st.Open("wal.log")
		head.Write(written[:100])
		head.Sync()
		head.Write(written[100:]) // never synced
		next, _ := st.Open("wal-00000000000000000300.log")
		next.Write([]byte("created, never synced"))
		old, _ := st.Open("stale.log")
		old.Write([]byte("removed"))
		old.Sync()
		if err := st.Remove("stale.log"); err != nil {
			t.Fatal(err)
		}
		d.Open(2, -1) // a clean exit settles everything
		want := map[string][]byte{
			"wal.log":                      written,
			"wal-00000000000000000300.log": []byte("created, never synced"),
		}
		if !reflect.DeepEqual(d.walSegs, want) {
			t.Fatalf("after a clean exit the log files are %q, want %q", d.walSegs, want)
		}
	})
}
