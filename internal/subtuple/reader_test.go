package subtuple

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/segment"
)

// viewCopy reads t through a fresh Reader and copies the payload out.
func viewCopy(s *Store, tid page.TID, asof int64) ([]byte, bool, error) {
	r := s.Reader()
	defer r.Done()
	p, ok, err := r.View(tid, asof)
	return append([]byte(nil), p...), ok, err
}

// TestReaderMatchesCopyingRead drives a store through random inserts,
// growing and shrinking updates and deletes — which between them
// produce forwarding stubs, re-forwarded records, overflow chains and,
// in the versioned run, version chains and tombstones — and after
// every step reads every subtuple through the in-place Reader and
// through the copying reference read, at the current state and at
// every instant so far. One Reader serves a whole pass, so its window
// fills and recycles across records; on the eight-shard pool of 8-frame
// shards the frames it remembers are reused under it too. On every pool
// one page at most is pinned during a view and none between views.
func TestReaderMatchesCopyingRead(t *testing.T) {
	for _, c := range []struct {
		versioned bool
		shards    int
	}{{false, 8}, {false, 1}, {true, 8}, {true, 1}} {
		versioned := c.versioned
		t.Run(fmt.Sprintf("versioned=%v/shards=%d", versioned, c.shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			pool := buffer.NewPoolShards(64, c.shards)
			pool.Register(1, segment.NewMemStore())
			var now int64
			s := New(Config{Pool: pool, Seg: 1, Versioned: versioned, Clock: func() int64 { now++; return now }})
			payload := func() []byte {
				n := rng.Intn(300)
				switch rng.Intn(6) {
				case 0:
					n = 1500 + rng.Intn(2000) // forces relocation on a filling page
				case 1:
					n = maxRecord + rng.Intn(3*page.Size) // overflow chain
				}
				return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, n)
			}
			var tids []page.TID
			var sawFwd, sawLong bool
			for step := 0; step < 400; step++ {
				switch k := rng.Intn(10); {
				case k < 4 || len(tids) == 0:
					tid, err := s.Insert(payload())
					if err != nil {
						t.Fatal(err)
					}
					tids = append(tids, tid)
				case k < 9:
					if err := s.Update(tids[rng.Intn(len(tids))], payload()); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatal(err)
					}
				default:
					i := rng.Intn(len(tids))
					if err := s.Delete(tids[i]); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatal(err)
					}
					if !versioned {
						// The slot is free for reuse: the TID names nothing now.
						tids = append(tids[:i], tids[i+1:]...)
					}
				}
				if step%20 != 19 {
					continue
				}
				instants := []int64{Current}
				if versioned {
					instants = append(instants, 0, 1+rng.Int63n(now), now)
				}
				r := s.Reader()
				for _, tid := range tids {
					if loc, rec, err := s.resolve(tid); err == nil {
						sawFwd = sawFwd || loc != tid
						sawLong = sawLong || rec[0]&fLong != 0
					}
					for _, asof := range instants {
						want, wantOK, wantErr := readCopying(s, tid, asof)
						got, ok, err := r.View(tid, asof)
						if n := pool.PinnedCount(); n > 1 {
							t.Fatalf("step %d: %d pages pinned during a view, want at most 1", step, n)
						}
						if (err != nil) != (wantErr != nil) || ok != wantOK || !bytes.Equal(got, want) {
							t.Fatalf("step %d %v asof %d: reader (%d bytes, %v, %v), copying read (%d bytes, %v, %v)",
								step, tid, asof, len(got), ok, err, len(want), wantOK, wantErr)
						}
						r.Done()
						if n := pool.PinnedCount(); n != 0 {
							t.Fatalf("step %d: %d pages pinned between views, want none", step, n)
						}
					}
				}
			}
			if !sawFwd || !sawLong {
				t.Fatalf("workload produced no forwarded (%v) or no overflow (%v) record", sawFwd, sawLong)
			}
		})
	}
}

// TestReaderDecodeCountMatches pins the meaning of DecodeCount: the
// Reader counts a record as decoded exactly where the copying read
// does, for a plain record and along a version chain.
func TestReaderDecodeCountMatches(t *testing.T) {
	s, _ := newStore(t, true)
	tid, err := s.Insert([]byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := s.Update(tid, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, asof := range []int64{Current, 3, 1, 0} {
		base := s.DecodeCount()
		if _, _, err := readCopying(s, tid, asof); err != nil {
			t.Fatal(err)
		}
		copying := s.DecodeCount() - base
		if _, _, err := viewCopy(s, tid, asof); err != nil {
			t.Fatal(err)
		}
		if reader := s.DecodeCount() - base - copying; reader != copying {
			t.Errorf("asof %d: reader decoded %d records, copying read %d", asof, reader, copying)
		}
	}
}

// pagesOnDisk writes pages pages of perPage records each, record i of
// page pg holding the bytes {pg, i}, and returns their TIDs in page
// order and the backing store, flushed.
func pagesOnDisk(t *testing.T, pages, perPage int) ([]page.TID, segment.Store) {
	t.Helper()
	s, pool := newStore(t, false)
	var tids []page.TID
	for pg := 0; pg < pages; pg++ {
		no, err := s.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perPage; i++ {
			tid, err := s.InsertOnPage(no, []byte{byte(pg), byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			tids = append(tids, tid)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return tids, pool.Store(1)
}

// storeOn returns an unversioned store of segment 1 over st on a
// one-shard pool of frames frames.
func storeOn(st segment.Store, frames int) (*Store, *buffer.Pool) {
	pool := buffer.NewPoolShards(frames, 1)
	pool.Register(1, st)
	return New(Config{Pool: pool, Seg: 1}), pool
}

// TestReaderWindow checks the window rule on shards of 2 to 256
// frames: one page at most is pinned during a view and none after
// Done; a page is fetched once however many of its records are viewed
// in a row; and a page still in the window and still buffered costs no
// fetch when viewed again, while one whose frame was reused costs one.
func TestReaderWindow(t *testing.T) {
	const pages, perPage = 7, 3
	tids, st := pagesOnDisk(t, pages, perPage)
	for _, frames := range []int{2, 3, 8, 15, 16, 24, 40, 256} {
		s, pool := storeOn(st, frames)
		r := s.Reader()
		view := func(tid page.TID) {
			p, ok, err := r.View(tid, Current)
			if err != nil || !ok || p[0] != byte(tid.Page-tids[0].Page) {
				t.Fatalf("%d frames: view %v = %v, %v, %v", frames, tid, p, ok, err)
			}
			if n := pool.PinnedCount(); n > 1 {
				t.Fatalf("%d frames: %d pages pinned during a view, want at most 1", frames, n)
			}
			r.Done()
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%d frames: %d pages pinned after Done, want none", frames, n)
			}
		}
		for _, tid := range tids {
			view(tid)
		}
		if got := pool.Stats().Fetches; got != pages {
			t.Errorf("%d frames: first pass fetched %d pages, want %d", frames, got, pages)
		}
		// Back over the pages, newest first: the window's pages come
		// first, and those still buffered cost nothing.
		pool.ResetStats()
		for i := len(tids) - 1; i >= 0; i-- {
			view(tids[i])
		}
		want := uint64(pages - min(frames, window))
		if got := pool.Stats().Fetches; got != want {
			t.Errorf("%d frames: second pass fetched %d pages, want %d", frames, got, want)
		}
	}
}

// TestReaderSeesFrameReuse: the one frame of a pool holds page A while
// a reader views it, then is reused for page B. The reader's window
// still names that frame for A; viewing A again must notice the new
// generation and fetch A, not read B's image at A's slot.
func TestReaderSeesFrameReuse(t *testing.T) {
	tids, st := pagesOnDisk(t, 2, 1)
	a, b := tids[0], tids[1]
	s, pool := storeOn(st, 1)
	r := s.Reader()
	for round := uint64(1); round <= 3; round++ {
		p, ok, err := r.View(a, Current)
		if err != nil || !ok || !bytes.Equal(p, []byte{0, 0}) {
			t.Fatalf("round %d: view of A = %v, %v, %v", round, p, ok, err)
		}
		r.Done()
		if got := pool.Stats().Fetches; got != 2*round-1 {
			t.Fatalf("round %d: %d fetches after viewing A, want %d", round, got, 2*round-1)
		}
		f, err := pool.Pin(buffer.PageKey{Seg: 1, Page: b.Page})
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, false)
	}
}

// TestReaderUnderEviction runs four readers over one store on a
// two-frame pool while a fifth goroutine keeps pinning other pages, so
// the frames the readers remember are reused under them all the time.
// Every view must return what the copying read returned before the run
// (the store is not written), or fail with buffer.ErrExhausted. Run
// under -race it checks the latch and generation protocol.
func TestReaderUnderEviction(t *testing.T) {
	s, big := newStore(t, true)
	rng := rand.New(rand.NewSource(3))
	var tids []page.TID
	for i := 0; i < 24; i++ {
		n := 20 + rng.Intn(900)
		if i%8 == 7 {
			n = maxRecord + 100 // overflow chain
		}
		tid, err := s.Insert(bytes.Repeat([]byte{byte('a' + i)}, n))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	for i := 0; i < 60; i++ {
		tid := tids[rng.Intn(len(tids))]
		if err := s.Update(tid, bytes.Repeat([]byte{byte('A' + i%26)}, 20+rng.Intn(1500))); err != nil {
			t.Fatal(err)
		}
	}
	now := s.clock()
	type want struct {
		data []byte
		ok   bool
	}
	instants := []int64{Current, now / 3, 2 * now / 3}
	wants := make(map[page.TID][]want)
	for _, tid := range tids {
		for _, asof := range instants {
			data, ok, err := readCopying(s, tid, asof)
			if err != nil {
				t.Fatal(err)
			}
			wants[tid] = append(wants[tid], want{data, ok})
		}
	}
	if err := big.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPoolShards(2, 1)
	pool.Register(1, big.Store(1))
	s = New(Config{Pool: pool, Seg: 1, Versioned: true, Clock: s.clock})
	pages := big.Store(1).PageCount()

	stop := make(chan struct{})
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		for pg := uint32(1); ; pg = pg%pages + 1 {
			select {
			case <-stop:
				return
			default:
			}
			if f, err := pool.Pin(buffer.PageKey{Seg: 1, Page: pg}); err == nil {
				pool.Unpin(f, false)
			}
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := s.Reader()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 400; n++ {
				tid := tids[rng.Intn(len(tids))]
				i := rng.Intn(len(instants))
				got, ok, err := r.View(tid, instants[i])
				if errors.Is(err, buffer.ErrExhausted) {
					continue
				}
				w := wants[tid][i]
				if err != nil || ok != w.ok || !bytes.Equal(got, w.data) {
					errs <- fmt.Errorf("reader %d: %v asof %d = (%d bytes, %v, %v), copying read (%d bytes, %v)",
						g, tid, instants[i], len(got), ok, err, len(w.data), w.ok)
					r.Done()
					return
				}
				r.Done()
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	evictor.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after the run", n)
	}
}

// TestReaderErrorsReleaseEverything walks the Reader into each kind of
// failure and checks that no latch and no pin survives it: a writer can
// latch the page at once and the pool reports nothing pinned.
func TestReaderErrorsReleaseEverything(t *testing.T) {
	s, pool := newStore(t, true)
	live, err := s.Insert([]byte("live"))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := s.Insert([]byte("dead"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(dead); err != nil {
		t.Fatal(err)
	}
	// A version record whose previous version is itself, and one whose
	// previous version does not exist.
	self := page.TID{Page: live.Page, Slot: 3}
	cyc := page.AppendTID([]byte{fVer, 0x7e, 0}, self)
	if tid, err := s.insertRawAnywhere(cyc); err != nil || tid != self {
		t.Fatalf("planted cycle at %v, %v; want %v", tid, err, self)
	}
	dangling, err := s.insertRawAnywhere(page.AppendTID([]byte{fVer, 0x7e, 0}, page.TID{Page: live.Page, Slot: 99}))
	if err != nil {
		t.Fatal(err)
	}
	stub, err := s.insertRawAnywhere(page.AppendTID([]byte{fFwd}, page.TID{Page: 9999, Slot: 0}))
	if err != nil {
		t.Fatal(err)
	}
	// An old version of depth 3 whose jump of two versions lands on an
	// oldest version (depth 0) stamped as the jump says.
	oldest, err := s.insertRawAnywhere([]byte{fVer | fOld, 0x0a, 0, 0, 0, 0, 0, 0, 0, 'o'})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.encodeBody(decoded{flags: fVer | fOld | fJump, fromTS: 9, prev: oldest,
		depth: 3, jumpLen: 2, jump: oldest, jumpTS: 5}, []byte("bad"))
	if err != nil {
		t.Fatal(err)
	}
	wrongDepth, err := s.insertRawAnywhere(rec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		tid     page.TID
		asof    int64
		corrupt bool
		missing bool
	}{
		{"tombstone", dead, Current, false, false},
		{"before creation", live, 0, false, false},
		{"no such slot", page.TID{Page: live.Page, Slot: 200}, Current, false, true},
		{"version cycle", self, 1, true, false},
		{"dangling previous version", dangling, 1, true, false},
		{"forward into an unallocated page", stub, Current, true, false},
		{"jump lands on the wrong depth", wrongDepth, 1, true, false},
	}
	for _, c := range cases {
		r := s.Reader()
		_, ok, err := r.View(c.tid, c.asof)
		if ok || dberr.IsCorrupt(err) != c.corrupt || errors.Is(err, ErrNotFound) != c.missing {
			t.Errorf("%s: View = %v, %v", c.name, ok, err)
		}
		// No Done yet: an error or an absent record must
		// leave nothing latched by itself.
		f, perr := pool.Pin(buffer.PageKey{Seg: 1, Page: live.Page})
		if perr != nil {
			t.Fatal(perr)
		}
		f.Latch()
		f.Unlatch()
		pool.Unpin(f, false)
		r.Done()
		if n := pool.PinnedCount(); n != 0 {
			t.Errorf("%s: %d pages pinned after Done", c.name, n)
		}
	}
}

// TestExhaustedPoolIsNotCorruption: a forwarding stub or a version
// record points at a page the pool has no frame for. That says nothing
// about the record, so the read fails with buffer.ErrExhausted as it is,
// not with a broken chain classified as corruption.
func TestExhaustedPoolIsNotCorruption(t *testing.T) {
	s, big := newStore(t, true)
	first, err := s.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	// The target is an oldest version, which a version record may point at.
	rec, err := s.encodeBody(decoded{flags: fVer | fOld, fromTS: 1}, []byte("there"))
	if err != nil {
		t.Fatal(err)
	}
	slot, err := s.pageInsert(other, rec)
	if err != nil {
		t.Fatal(err)
	}
	target := page.TID{Page: other, Slot: slot}
	plant := func(rec []byte) page.TID {
		t.Helper()
		slot, err := s.pageInsert(first, rec)
		if err != nil {
			t.Fatal(err)
		}
		return page.TID{Page: first, Slot: slot}
	}
	stub := plant(page.AppendTID([]byte{fFwd}, target))
	newer := plant(page.AppendTID([]byte{fVer, 0x7e, 0}, target))
	if err := big.FlushAll(); err != nil {
		t.Fatal(err)
	}

	pool := buffer.NewPoolShards(1, 1)
	pool.Register(1, big.Store(1))
	s = New(Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { return 1 }})
	held, err := pool.Pin(buffer.PageKey{Seg: 1, Page: first})
	if err != nil {
		t.Fatal(err)
	}
	for name, tid := range map[string]page.TID{"forwarding stub": stub, "version chain": newer} {
		_, _, err := viewCopy(s, tid, 1)
		if !errors.Is(err, buffer.ErrExhausted) || dberr.IsCorrupt(err) {
			t.Errorf("%s into a page without a frame: %v", name, err)
		}
	}
	pool.Unpin(held, false)
	for name, tid := range map[string]page.TID{"forwarding stub": stub, "version chain": newer} {
		if got, ok, err := viewCopy(s, tid, 1); err != nil || !ok || string(got) != "there" {
			t.Errorf("%s with a frame free: %q, %v, %v", name, got, ok, err)
		}
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned", n)
	}
}
