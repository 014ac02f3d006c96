package subtuple

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

func newStore(t testing.TB, versioned bool) (*Store, *buffer.Pool) {
	t.Helper()
	pool := buffer.NewPool(64)
	pool.Register(1, segment.NewMemStore())
	var clock func() int64
	if versioned {
		ts := int64(0)
		clock = func() int64 { ts++; return ts }
	}
	return New(Config{Pool: pool, Seg: 1, Versioned: versioned, Clock: clock}), pool
}

func TestInsertReadDelete(t *testing.T) {
	s, _ := newStore(t, false)
	tid, err := s.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(tid)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if !s.Exists(tid) {
		t.Error("Exists = false")
	}
	if err := s.Delete(tid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(tid); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read after delete = %v", err)
	}
	if err := s.Delete(tid); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestUpdateStableTIDAcrossGrowth(t *testing.T) {
	s, _ := newStore(t, false)
	// Fill one page so growth forces relocation.
	tid, err := s.Insert(bytes.Repeat([]byte("a"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	var fill []page.TID
	for i := 0; i < 2; i++ {
		ft, err := s.Insert(bytes.Repeat([]byte("f"), 1400))
		if err != nil {
			t.Fatal(err)
		}
		fill = append(fill, ft)
	}
	big := bytes.Repeat([]byte("B"), 2500)
	if err := s.Update(tid, big); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(tid) // through the forwarding stub
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Read after relocating update failed: %v", err)
	}
	// Update again through the stub (re-forwarding path).
	big2 := bytes.Repeat([]byte("C"), 3000)
	if err := s.Update(tid, big2); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read(tid)
	if !bytes.Equal(got, big2) {
		t.Error("second forwarded update failed")
	}
	for _, ft := range fill {
		if _, err := s.Read(ft); err != nil {
			t.Errorf("filler record lost: %v", err)
		}
	}
	// Delete through the stub removes both.
	if err := s.Delete(tid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(tid); err == nil {
		t.Error("record alive after delete")
	}
}

func TestLongRecords(t *testing.T) {
	s, _ := newStore(t, false)
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 3000) // 21 KB, ~6 pages
	tid, err := s.Insert(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(tid)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("long record round trip failed: %v", err)
	}
	// Shrink it to a short record, then grow again.
	if err := s.Update(tid, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read(tid)
	if string(got) != "short" {
		t.Errorf("after shrink: %q", got)
	}
	payload2 := bytes.Repeat([]byte{9}, 50000)
	if err := s.Update(tid, payload2); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read(tid)
	if !bytes.Equal(got, payload2) {
		t.Error("after regrow: mismatch")
	}
	if err := s.Delete(tid); err != nil {
		t.Fatal(err)
	}
}

func TestVersionedUpdateASOF(t *testing.T) {
	s, _ := newStore(t, true)          // clock ticks 1, 2, 3, ...
	tid, err := s.Insert([]byte("v1")) // ts=1
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(tid, []byte("v2")); err != nil { // ts=2
		t.Fatal(err)
	}
	if err := s.Update(tid, []byte("v3")); err != nil { // ts=3
		t.Fatal(err)
	}
	cur, err := s.Read(tid)
	if err != nil || string(cur) != "v3" {
		t.Fatalf("current = %q, %v", cur, err)
	}
	cases := []struct {
		ts    int64
		want  string
		exist bool
	}{
		{0, "", false},
		{1, "v1", true},
		{2, "v2", true},
		{3, "v3", true},
		{99, "v3", true},
	}
	for _, c := range cases {
		got, ok, err := s.ReadAsOf(tid, c.ts)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.exist || (ok && string(got) != c.want) {
			t.Errorf("ASOF %d = %q, %v; want %q, %v", c.ts, got, ok, c.want, c.exist)
		}
	}
}

func TestVersionedDeleteKeepsHistory(t *testing.T) {
	s, _ := newStore(t, true)
	tid, _ := s.Insert([]byte("alive"))   // ts=1
	if err := s.Delete(tid); err != nil { // ts=2
		t.Fatal(err)
	}
	if _, err := s.Read(tid); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read after versioned delete = %v", err)
	}
	got, ok, err := s.ReadAsOf(tid, 1)
	if err != nil || !ok || string(got) != "alive" {
		t.Errorf("ASOF before delete = %q, %v, %v", got, ok, err)
	}
	_, ok, _ = s.ReadAsOf(tid, 2)
	if ok {
		t.Error("record exists ASOF after delete")
	}
}

func TestScan(t *testing.T) {
	s, _ := newStore(t, false)
	want := map[string]bool{}
	for _, d := range []string{"a", "b", "c", "d"} {
		if _, err := s.Insert([]byte(d)); err != nil {
			t.Fatal(err)
		}
		want[d] = true
	}
	// Delete one, relocate another via growth.
	tids := map[string]page.TID{}
	s2, _ := newStore(t, false)
	for _, d := range []string{"a", "b", "c", "d"} {
		tid, _ := s2.Insert([]byte(d))
		tids[d] = tid
	}
	s2.Delete(tids["b"])
	got := map[string]int{}
	err := s2.Scan(func(t page.TID, data []byte) error {
		got[string(data)]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["a"] != 1 || got["c"] != 1 || got["d"] != 1 {
		t.Errorf("Scan = %v", got)
	}
}

func TestScanSkipsVersionArtifacts(t *testing.T) {
	s, _ := newStore(t, true)
	tid, _ := s.Insert([]byte("one"))
	s.Update(tid, []byte("two"))
	t2, _ := s.Insert([]byte("gone"))
	s.Delete(t2)
	var seen []string
	s.Scan(func(_ page.TID, data []byte) error {
		seen = append(seen, string(data))
		return nil
	})
	if len(seen) != 1 || seen[0] != "two" {
		t.Errorf("Scan over versioned store = %v, want [two]", seen)
	}
}

func TestInsertOnPageNoSpace(t *testing.T) {
	s, _ := newStore(t, false)
	pg, err := s.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertOnPage(pg, bytes.Repeat([]byte("x"), 3000)); err != nil {
		t.Fatal(err)
	}
	_, err = s.InsertOnPage(pg, bytes.Repeat([]byte("y"), 3000))
	if !errors.Is(err, page.ErrNoSpace) {
		t.Errorf("InsertOnPage on full page = %v, want ErrNoSpace", err)
	}
	free, err := s.FreeOnPage(pg)
	if err != nil || free > page.Size {
		t.Errorf("FreeOnPage = %d, %v", free, err)
	}
}

// Property: random insert/update/delete sequences keep every live
// record readable with its latest content.
func TestStoreOpsQuick(t *testing.T) {
	type op struct {
		Kind byte
		Size uint16
	}
	f := func(ops []op) bool {
		s, _ := newStore(t, false)
		shadow := map[page.TID][]byte{}
		seq := byte(0)
		for _, o := range ops {
			size := int(o.Size % 6000) // crosses the overflow threshold
			switch o.Kind % 3 {
			case 0:
				data := bytes.Repeat([]byte{seq}, size)
				seq++
				tid, err := s.Insert(data)
				if err != nil {
					return false
				}
				shadow[tid] = data
			case 1:
				for tid := range shadow {
					if s.Delete(tid) != nil {
						return false
					}
					delete(shadow, tid)
					break
				}
			case 2:
				for tid := range shadow {
					data := bytes.Repeat([]byte{seq}, size)
					seq++
					if s.Update(tid, data) != nil {
						return false
					}
					shadow[tid] = data
					break
				}
			}
		}
		for tid, want := range shadow {
			got, err := s.Read(tid)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWALRecovery simulates a crash after commit: dirty pages are
// dropped without write-back, then the log is replayed onto the
// stores.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDir(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fileStore, err := segment.OpenFileStore(filepath.Join(dir, "seg1"))
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(64)
	pool.Register(1, fileStore)
	s := New(Config{Pool: pool, Seg: 1, Log: log})

	t1, err := s.Insert([]byte("persist me"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Insert([]byte("update me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(t2, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	t3, _ := s.Insert([]byte("delete me"))
	if err := s.Delete(t3); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: drop all buffered pages without flushing.
	pool.InvalidateAll()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	fileStore.Close()

	// Reopen and recover.
	log2, err := wal.OpenDir(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	fs2, err := segment.OpenFileStore(filepath.Join(dir, "seg1"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	pool2 := buffer.NewPool(64)
	pool2.Register(1, fs2)
	if err := recoverLog(log2, pool2); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s2 := New(Config{Pool: pool2, Seg: 1, Log: log2})
	got, err := s2.Read(t1)
	if err != nil || string(got) != "persist me" {
		t.Errorf("t1 after recovery = %q, %v", got, err)
	}
	got, err = s2.Read(t2)
	if err != nil || string(got) != "updated" {
		t.Errorf("t2 after recovery = %q, %v", got, err)
	}
	if _, err := s2.Read(t3); err == nil {
		t.Error("deleted record resurrected by recovery")
	}
}

// TestWALUncommittedTailIgnored checks that operations after the last
// commit are not replayed.
func TestWALUncommittedTailIgnored(t *testing.T) {
	dir := t.TempDir()
	log, _ := wal.OpenDir(dir, wal.Config{})
	fs, _ := segment.OpenFileStore(filepath.Join(dir, "seg1"))
	pool := buffer.NewPool(64)
	pool.Register(1, fs)
	s := New(Config{Pool: pool, Seg: 1, Log: log})
	t1, _ := s.Insert([]byte("committed"))
	s.Commit()
	t2, _ := s.Insert([]byte("uncommitted"))
	log.Sync() // durable but not committed
	pool.InvalidateAll()
	log.Close()
	fs.Close()

	log2, _ := wal.OpenDir(dir, wal.Config{})
	defer log2.Close()
	fs2, _ := segment.OpenFileStore(filepath.Join(dir, "seg1"))
	defer fs2.Close()
	pool2 := buffer.NewPool(64)
	pool2.Register(1, fs2)
	if err := recoverLog(log2, pool2); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Pool: pool2, Seg: 1, Log: log2})
	if _, err := s2.Read(t1); err != nil {
		t.Errorf("committed record lost: %v", err)
	}
	if _, err := s2.Read(t2); err == nil {
		t.Error("uncommitted record replayed")
	}
}

// Walk-through-time: the full version history of a subtuple, newest
// first, including the deletion tombstone.
func TestHistoryWalkThroughTime(t *testing.T) {
	s, _ := newStore(t, true)
	tid, _ := s.Insert([]byte("v1"))      // ts=1
	s.Update(tid, []byte("v2"))           // ts=2
	s.Update(tid, []byte("v3"))           // ts=3
	if err := s.Delete(tid); err != nil { // ts=4
		t.Fatal(err)
	}
	hist, err := s.History(tid)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history length = %d, want 4", len(hist))
	}
	if !hist[0].Deleted || hist[0].FromTS != 4 {
		t.Errorf("newest entry = %+v, want tombstone at ts 4", hist[0])
	}
	for i, want := range []string{"", "v3", "v2", "v1"} {
		if i == 0 {
			continue
		}
		if string(hist[i].Payload) != want || hist[i].Deleted {
			t.Errorf("version %d = %+v, want %q", i, hist[i], want)
		}
	}
	// Interval semantics: version i is valid in [FromTS, predecessor's FromTS).
	for i := 1; i < len(hist); i++ {
		if hist[i].FromTS >= hist[i-1].FromTS {
			t.Errorf("timestamps not strictly decreasing at %d", i)
		}
	}
	// Unversioned stores report a single current version.
	s2, _ := newStore(t, false)
	tid2, _ := s2.Insert([]byte("only"))
	hist2, err := s2.History(tid2)
	if err != nil || len(hist2) != 1 || string(hist2[0].Payload) != "only" {
		t.Errorf("unversioned history = %v, %v", hist2, err)
	}
}

// An ASOF cursor reports the set of subtuples as of an instant,
// including tombstoned ones that were alive then and excluding later
// inserts.
func TestAsOfCursor(t *testing.T) {
	s, _ := newStore(t, true)
	t1, _ := s.Insert([]byte("early"))   // ts=1
	t2, _ := s.Insert([]byte("doomed"))  // ts=2
	if err := s.Delete(t2); err != nil { // ts=3
		t.Fatal(err)
	}
	s.Update(t1, []byte("changed")) // ts=4
	s.Insert([]byte("late"))        // ts=5
	snapshot := func(ts int64) map[string]bool {
		got := map[string]bool{}
		c, err := s.NewAsOfCursor(ts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for {
			_, data, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return got
			}
			got[string(data)] = true
		}
	}
	at2 := snapshot(2)
	if !at2["early"] || !at2["doomed"] || len(at2) != 2 {
		t.Errorf("asof 2 = %v", at2)
	}
	at3 := snapshot(3)
	if !at3["early"] || at3["doomed"] || len(at3) != 1 {
		t.Errorf("asof 3 = %v", at3)
	}
	at5 := snapshot(5)
	if !at5["changed"] || !at5["late"] || len(at5) != 2 {
		t.Errorf("asof 5 = %v", at5)
	}
}

// TestAsOfCursorRelocationMidScan relocates a record with a growing
// update while a cursor runs — to a page the cursor has yet to load, to
// one it has passed, and, for a record relocated once before the cursor
// opened, on again past the stub it leaves behind. However the record
// moves, an ASOF cursor yields every subtuple of its instant once,
// under its anchor TID, in its state at that instant, and a
// current-state cursor every current subtuple once, under its anchor
// TID, in its state when the cursor reaches it. Both name a relocated
// record as an index does, so writes found through either conflict.
func TestAsOfCursorRelocationMidScan(t *testing.T) {
	for _, c := range []struct {
		name         string
		free         [3]int // bytes left free on each page once it is filled
		home         int    // page the record is inserted on
		before       int    // page it is relocated to before the cursor opens, -1 for none
		during       int    // page it is relocated to once the cursor has loaded page 0
		beforeLen    int
		duringLen    int
		wantYieldLen int // the record's payload length at the cursor's instant
		wantCurLen   int // its payload length when a current-state cursor reaches it
	}{
		{"forward", [3]int{300, 300, 3600}, 0, -1, 2, 0, 1800, 10, 10},
		{"backward", [3]int{3600, 300, 300}, 1, -1, 0, 0, 1800, 10, 1800},
		{"re-forwarded", [3]int{300, 1000, 3600}, 0, 1, 2, 600, 1800, 600, 600},
	} {
		for _, current := range []bool{false, true} {
			name, want := c.name, c.wantYieldLen
			if current {
				name, want = c.name+"_current", c.wantCurLen
			}
			t.Run(name, func(t *testing.T) {
				s, _ := newStore(t, true)
				var pages [3]uint32
				for i := range pages {
					no, err := s.AllocatePage()
					if err != nil {
						t.Fatal(err)
					}
					pages[i] = no
				}
				victim, err := s.InsertOnPage(pages[c.home], bytes.Repeat([]byte{'v'}, 10))
				if err != nil {
					t.Fatal(err)
				}
				anchors := map[page.TID]bool{victim: true}
				for i, pg := range pages {
					f, err := s.FreeOnPage(pg)
					if err != nil {
						t.Fatal(err)
					}
					// The filler's header and slot take about 13 bytes.
					tid, err := s.InsertOnPage(pg, bytes.Repeat([]byte{'f'}, f-c.free[i]-13))
					if err != nil {
						t.Fatal(err)
					}
					anchors[tid] = true
				}
				relocate := func(to, n int) {
					t.Helper()
					s.mu.Lock()
					s.hint, s.candidates = pages[to], nil
					s.mu.Unlock()
					if err := s.Update(victim, bytes.Repeat([]byte{'v'}, n)); err != nil {
						t.Fatal(err)
					}
					if loc, _, err := s.resolve(victim); err != nil || loc.Page != pages[to] {
						t.Fatalf("update relocated the record to %v (%v), want page %d", loc, err, pages[to])
					}
				}
				if c.before >= 0 {
					relocate(c.before, c.beforeLen)
				}
				open := func() (*Cursor, error) { return s.NewAsOfCursor(s.now()) }
				if current {
					open = s.NewCursor
				}
				cur, err := open()
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				seen := map[page.TID]bool{}
				for first := true; ; first = false {
					tid, data, ok, err := cur.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					if !anchors[tid] || seen[tid] {
						t.Fatalf("cursor yields %v: anchor %v, seen before %v", tid, anchors[tid], seen[tid])
					}
					seen[tid] = true
					if tid == victim && len(data) != want {
						t.Fatalf("record read as %d bytes, want %d", len(data), want)
					}
					if first {
						relocate(c.during, c.duringLen)
					}
				}
				if len(seen) != len(anchors) {
					t.Fatalf("cursor yields %d subtuples, want %d", len(seen), len(anchors))
				}
			})
		}
	}
}

// TestWriteOverDamagedHistory: an update or delete links the version it
// preserves into the chain below, reading the newest old version. When
// that version is damaged the write fails as corruption that names the
// subtuple's history, and the current record stays readable.
func TestWriteOverDamagedHistory(t *testing.T) {
	for _, del := range []bool{false, true} {
		s, _ := newStore(t, true)
		tid, err := s.Insert([]byte("v1"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Update(tid, []byte("v2")); err != nil {
			t.Fatal(err)
		}
		_, raw, err := s.resolve(tid)
		if err != nil {
			t.Fatal(err)
		}
		head, err := s.decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.pageUpdate(head.prev, []byte{fVer | fOld}); err != nil {
			t.Fatal(err)
		}
		write := func() error { return s.Update(tid, []byte("v3")) }
		if del {
			write = func() error { return s.Delete(tid) }
		}
		err = write()
		if !dberr.IsCorrupt(err) || !strings.Contains(err.Error(), "history of "+tid.String()) {
			t.Fatalf("write over damaged history (delete %v): %v, want corruption naming the history of %v", del, err, tid)
		}
		if got, err := s.Read(tid); err != nil || string(got) != "v2" {
			t.Fatalf("current record after the failed write: %q, %v; want v2", got, err)
		}
	}
}

// A zeroed allocated page must fail a cursor the way it fails Scan —
// never read as a page with no records.
func TestCursorDetectsZeroedPage(t *testing.T) {
	ms := segment.NewMemStore()
	pool := buffer.NewPool(8)
	pool.Register(1, ms)
	if _, err := New(Config{Pool: pool, Seg: 1}).Insert([]byte("row")); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := ms.WritePage(1, make([]byte, page.Size)); err != nil {
		t.Fatal(err)
	}
	pool = buffer.NewPool(8)
	pool.Register(1, ms)
	s := New(Config{Pool: pool, Seg: 1})
	for _, open := range []func() (*Cursor, error){s.NewCursor, func() (*Cursor, error) { return s.NewAsOfCursor(1) }} {
		c, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := c.Next(); !dberr.IsCorrupt(err) {
			t.Fatalf("Next over a zeroed page = ok %v, err %v; want a corruption error", ok, err)
		}
	}
}
