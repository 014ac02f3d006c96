package buffer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/segment"
)

// gatedStore blocks every physical read on a gate channel so the test
// can guarantee that concurrent pins of the same page really do pile
// up behind one in-flight read before it completes.
type gatedStore struct {
	*segment.MemStore
	gate  chan struct{}
	reads atomic.Int64
	// failFirst, when >0, makes that many leading read attempts fail.
	failFirst atomic.Int64
	transient bool
}

type injectedReadErr struct{ transient bool }

func (e *injectedReadErr) Error() string   { return "gatedStore: injected read fault" }
func (e *injectedReadErr) Transient() bool { return e.transient }

func (s *gatedStore) ReadPage(no uint32, buf []byte) error {
	s.reads.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	if s.failFirst.Add(-1) >= 0 {
		return &injectedReadErr{transient: s.transient}
	}
	return s.MemStore.ReadPage(no, buf)
}

// sealPage materializes one sealed page in the store and leaves the
// pool empty, so the next Pin must fault it in physically.
func sealPage(t *testing.T, p *Pool, seg segment.ID) PageKey {
	t.Helper()
	no, err := p.Allocate(seg)
	if err != nil {
		t.Fatal(err)
	}
	key := PageKey{Seg: seg, Page: no}
	f, err := p.PinNew(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Page.Insert([]byte("dedup payload")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	return key
}

// waitForWaiters blocks until n goroutines have pinned the page's
// loading frame (the reader itself is not a waiter).
func waitForWaiters(t *testing.T, p *Pool, key PageKey, n int) {
	t.Helper()
	sh := p.shardOf(key)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		w := -1
		if f := sh.frames[key]; f != nil && f.loading.Load() {
			w = f.pins - 1
		}
		sh.mu.Unlock()
		if w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d waiters on the loading frame (have %d)", n, w)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestReadDeduplication: K goroutines pinning the same absent page
// perform exactly one physical read; all observe the same frame, and
// the K-1 joiners count as buffer hits.
func TestReadDeduplication(t *testing.T) {
	const K = 16
	p := NewPoolShards(64, 4)
	st := &gatedStore{MemStore: segment.NewMemStore(), gate: make(chan struct{})}
	p.Register(1, st)
	key := sealPage(t, p, 1)
	st.reads.Store(0)
	p.ResetStats()

	frames := make([]*Frame, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames[i], errs[i] = p.Pin(key)
		}(i)
	}
	waitForWaiters(t, p, key, K-1)
	close(st.gate)
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("pin %d failed: %v", i, errs[i])
		}
		if frames[i] != frames[0] {
			t.Fatalf("pin %d got a different frame than pin 0", i)
		}
	}
	if got := st.reads.Load(); got != 1 {
		t.Fatalf("physical reads = %d, want exactly 1", got)
	}
	s := p.Stats()
	if s.Fetches != K || s.Reads != 1 || s.Hits != K-1 {
		t.Fatalf("stats = %+v, want Fetches=%d Reads=1 Hits=%d", s, K, K-1)
	}
	for i := 0; i < K; i++ {
		p.Unpin(frames[i], false)
	}
	if got := p.PinnedCount(); got != 0 {
		t.Fatalf("PinnedCount = %d after unpinning all, want 0", got)
	}
	// The shared frame must hold the real page content.
	f, err := p.Pin(key)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := f.Page.Read(0); err != nil || string(rec) != "dedup payload" {
		t.Fatalf("page content = %q, %v", rec, err)
	}
	p.Unpin(f, false)
}

// TestReadDeduplicationTransientFault: the single deduplicated read
// fails transiently and is retried inside the store's retry wrapper;
// every waiter sees the retried (successful) result, and the fault is
// not replayed once per waiter.
func TestReadDeduplicationTransientFault(t *testing.T) {
	const K = 8
	p := NewPoolShards(64, 4)
	raw := &gatedStore{MemStore: segment.NewMemStore(), transient: true}
	p.Register(1, segment.WithRetry(raw, segment.RetryPolicy{Tries: 3}))
	key := sealPage(t, p, 1)
	raw.reads.Store(0)
	p.ResetStats()

	// Gate only from now on: the first attempt blocks until the
	// waiters have piled up, then fails transiently; the in-wrapper
	// retry succeeds.
	raw.gate = make(chan struct{})
	raw.failFirst.Store(1)

	frames := make([]*Frame, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames[i], errs[i] = p.Pin(key)
		}(i)
	}
	waitForWaiters(t, p, key, K-1)
	close(raw.gate)
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("pin %d failed despite in-read retry: %v", i, errs[i])
		}
		if frames[i] != frames[0] {
			t.Fatalf("pin %d got a different frame", i)
		}
	}
	// One failed attempt + one retry — not one retry sequence per
	// waiter.
	if got := raw.reads.Load(); got != 2 {
		t.Fatalf("physical read attempts = %d, want 2 (fault + retry)", got)
	}
	if s := p.Stats(); s.Reads != 1 {
		t.Fatalf("pool Reads = %d, want 1 (the retry is inside one logical read)", s.Reads)
	}
	for i := 0; i < K; i++ {
		p.Unpin(frames[i], false)
	}
}

// TestReadDeduplicationFailure: a persistently failing read reports
// the same error to every waiter, takes the loading frame out of the
// pool so a later pin starts fresh, and leaves the pool fully usable.
func TestReadDeduplicationFailure(t *testing.T) {
	const K = 8
	p := NewPoolShards(64, 4)
	raw := &gatedStore{MemStore: segment.NewMemStore()}
	p.Register(1, raw)
	key := sealPage(t, p, 1)
	raw.reads.Store(0)

	raw.gate = make(chan struct{})
	raw.failFirst.Store(1) // persistent (non-transient) fault

	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Pin(key)
		}(i)
	}
	waitForWaiters(t, p, key, K-1)
	close(raw.gate)
	wg.Wait()

	var injected *injectedReadErr
	for i := 0; i < K; i++ {
		if !errors.As(errs[i], &injected) {
			t.Fatalf("pin %d error = %v, want the injected fault", i, errs[i])
		}
	}
	if got := raw.reads.Load(); got != 1 {
		t.Fatalf("physical read attempts = %d, want 1 (the fault is not replayed per waiter)", got)
	}
	if got := p.PinnedCount(); got != 0 {
		t.Fatalf("PinnedCount = %d after failed pins, want 0", got)
	}
	// The store healed; the next pin re-reads and succeeds.
	f, err := p.Pin(key)
	if err != nil {
		t.Fatalf("pin after heal: %v", err)
	}
	if rec, err := f.Page.Read(0); err != nil || string(rec) != "dedup payload" {
		t.Fatalf("page content after heal = %q, %v", rec, err)
	}
	p.Unpin(f, false)
}

// TestConcurrentStatsNoTearing hammers the lock-free Stats/PinnedCount
// snapshots while readers fault pages in and out across every shard;
// run under -race this pins down that the sharded pool's counters are
// safe to read mid-flight, and serially it checks monotonicity (a
// torn or lost update would show counters going backwards).
func TestConcurrentStatsNoTearing(t *testing.T) {
	p := NewPoolShards(32, 4)
	st := segment.NewMemStore()
	p.Register(1, st)
	const pages = 64
	keys := make([]PageKey, pages)
	for i := range keys {
		keys[i] = sealPage(t, p, 1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f, err := p.Pin(keys[(i*7+w*13)%pages])
				if err != nil {
					t.Errorf("worker pin: %v", err)
					return
				}
				p.Unpin(f, false)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for i := 0; i < 20000; i++ {
			s := p.Stats()
			if s.Fetches < last.Fetches || s.Hits < last.Hits || s.Reads < last.Reads || s.Writes < last.Writes {
				t.Errorf("counters went backwards: %+v after %+v", s, last)
				return
			}
			last = s
			p.PinnedCount()
			p.MarkSealed(keys[i%pages])
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
