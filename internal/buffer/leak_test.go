package buffer

import (
	"errors"
	"testing"

	"repro/internal/segment"
)

// failingStore wraps a MemStore and fails the next N page writes.
type failingStore struct {
	*segment.MemStore
	failWrites int
}

var errWriteFault = errors.New("failingStore: write fault")

func (s *failingStore) WritePage(no uint32, buf []byte) error {
	if s.failWrites > 0 {
		s.failWrites--
		return errWriteFault
	}
	return s.MemStore.WritePage(no, buf)
}

// TestEvictionWriteBackErrorKeepsFrameEvictable is the regression
// test for a frame leak: freeFrameLocked removed the eviction victim
// from the LRU before writing it back, so a write-back error left the
// frame buffered but unevictable forever — each failed eviction
// permanently shrank the pool by one frame. After the store heals,
// the same frame must be evictable again.
func TestEvictionWriteBackErrorKeepsFrameEvictable(t *testing.T) {
	p := NewPool(1)
	st := &failingStore{MemStore: segment.NewMemStore()}
	p.Register(1, st)

	no, _ := p.Allocate(1)
	f, err := p.PinNew(PageKey{Seg: 1, Page: no})
	if err != nil {
		t.Fatal(err)
	}
	f.Page.Insert([]byte("dirty"))
	p.Unpin(f, true)

	// Eviction must fail while the store is failing...
	st.failWrites = 1
	no2, _ := p.Allocate(1)
	if _, err := p.PinNew(PageKey{Seg: 1, Page: no2}); !errors.Is(err, errWriteFault) {
		t.Fatalf("want the write fault surfaced, got %v", err)
	}
	// ...and succeed once it heals: the victim must still be on the
	// LRU. Before the fix this returned "pool exhausted" forever.
	f2, err := p.PinNew(PageKey{Seg: 1, Page: no2})
	if err != nil {
		t.Fatalf("pool did not recover after write-back error: %v", err)
	}
	p.Unpin(f2, false)

	// The evicted page's content must have reached the store.
	f3, err := p.Pin(PageKey{Seg: 1, Page: no})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := f3.Page.Read(0); err != nil || string(rec) != "dirty" {
		t.Fatalf("evicted page content lost: %q %v", rec, err)
	}
	p.Unpin(f3, false)
}

// TestPoolReusableAfterExhaustion: exhaustion is a clean statement
// error, not a terminal state — unpinning restores full capacity.
func TestPoolReusableAfterExhaustion(t *testing.T) {
	p, _ := newPoolWithSeg(t, 2)
	var frames []*Frame
	var nos []uint32
	for i := 0; i < 2; i++ {
		no, _ := p.Allocate(1)
		f, err := p.PinNew(PageKey{Seg: 1, Page: no})
		if err != nil {
			t.Fatal(err)
		}
		f.Page.Insert([]byte{byte(i)})
		frames = append(frames, f)
		nos = append(nos, no)
	}
	if got := p.PinnedCount(); got != 2 {
		t.Fatalf("PinnedCount = %d, want 2", got)
	}
	no, _ := p.Allocate(1)
	if _, err := p.PinNew(PageKey{Seg: 1, Page: no}); !errors.Is(err, ErrExhausted) {
		t.Fatalf("PinNew with every frame pinned = %v, want ErrExhausted", err)
	}
	for _, f := range frames {
		p.Unpin(f, true)
	}
	if got := p.PinnedCount(); got != 0 {
		t.Fatalf("PinnedCount = %d after unpinning, want 0", got)
	}
	// Full capacity is back: pin a new page, then re-pin both old ones.
	f, err := p.PinNew(PageKey{Seg: 1, Page: no})
	if err != nil {
		t.Fatalf("pool still exhausted after unpin: %v", err)
	}
	p.Unpin(f, false)
	for i, n := range nos {
		f, err := p.Pin(PageKey{Seg: 1, Page: n})
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := f.Page.Read(0); err != nil || rec[0] != byte(i) {
			t.Fatalf("page %d content: %v %v", n, rec, err)
		}
		p.Unpin(f, false)
	}
}

// TestUnpinUnderflowPanics pins the documented invariant: an
// unbalanced unpin is a caller bug and must panic (the engine
// converts it into a failed statement).
func TestUnpinUnderflowPanics(t *testing.T) {
	p, _ := newPoolWithSeg(t, 2)
	no, _ := p.Allocate(1)
	f, err := p.PinNew(PageKey{Seg: 1, Page: no})
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin should panic")
		}
	}()
	p.Unpin(f, false)
}

// TestPinUnpinHitAllocatesNothing pins and unpins pages and counts
// allocations. A hit: the LRU links live in the frame, so moving it
// off and back onto the replacement list costs nothing. A miss on a
// full shard: the victim frame is reused in place, its read goes
// straight into the frame, and no per-miss record is made.
func TestPinUnpinHitAllocatesNothing(t *testing.T) {
	t.Run("hit", func(t *testing.T) {
		p := NewPool(4)
		p.Register(1, segment.NewMemStore())
		no, _ := p.Allocate(1)
		key := PageKey{Seg: 1, Page: no}
		f, err := p.PinNew(key)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, true)
		allocs := testing.AllocsPerRun(1000, func() {
			f, err := p.Pin(key)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f, false)
		})
		if allocs != 0 {
			t.Errorf("a pin/unpin of a buffered page allocates %.0f times, want 0", allocs)
		}
	})
	t.Run("miss", func(t *testing.T) {
		const frames, pages = 4, 8
		p := NewPool(frames)
		p.Register(1, segment.NewMemStore())
		keys := make([]PageKey, pages)
		for i := range keys {
			keys[i] = sealPage(t, p, 1)
		}
		// Cycling over twice as many pages as frames misses every time
		// once the shard is full.
		i := 0
		pin := func() {
			f, err := p.Pin(keys[i%pages])
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f, false)
			i++
		}
		for range frames {
			pin()
		}
		p.ResetStats()
		allocs := testing.AllocsPerRun(1000, pin)
		if s := p.Stats(); s.Hits != 0 || s.Reads != s.Fetches {
			t.Fatalf("stats = %+v, want every pin a read", s)
		}
		if allocs != 0 {
			t.Errorf("a miss that evicts allocates %.0f times, want 0", allocs)
		}
	})
}
