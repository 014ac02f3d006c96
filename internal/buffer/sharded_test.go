package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/segment"
)

// recordingStore wraps a MemStore and records the order of page
// write-backs, so eviction victims are observable.
type recordingStore struct {
	*segment.MemStore
	writes []uint32
}

func (s *recordingStore) WritePage(no uint32, buf []byte) error {
	s.writes = append(s.writes, no)
	return s.MemStore.WritePage(no, buf)
}

// take returns and clears the recorded write sequence.
func (s *recordingStore) take() []uint32 {
	w := s.writes
	s.writes = nil
	return w
}

func sortedU32(a []uint32) []uint32 {
	out := append([]uint32(nil), a...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedPoolEquivalence replays random Pin/Unpin/mutate/FlushAll
// traces against the sharded pool and, per shard, against the old
// single-lock pool (refPool) as a reference model. Every observable
// must match: hit/miss classification per pin, eviction victims
// (write-back sequences), corruption verdicts, cumulative counters,
// and the final store images.
func TestShardedPoolEquivalence(t *testing.T) {
	for _, cfg := range []struct{ capacity, shards int }{
		{4, 1}, {8, 2}, {16, 4}, {32, 4},
	} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("cap%d_shards%d_seed%d", cfg.capacity, cfg.shards, seed), func(t *testing.T) {
				replayEquivalenceTrace(t, cfg.capacity, cfg.shards, seed)
			})
		}
	}
}

func replayEquivalenceTrace(t *testing.T, capacity, shards int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const pages = 24

	p := NewPoolShards(capacity, shards)
	if p.ShardCount() != shards {
		t.Fatalf("ShardCount = %d, want %d", p.ShardCount(), shards)
	}
	perShard := (capacity + shards - 1) / shards
	shardedStore := &recordingStore{MemStore: segment.NewMemStore()}
	p.Register(1, shardedStore)

	refs := make([]*refPool, shards)
	refStores := make([]*recordingStore, shards)
	for i := range refs {
		refs[i] = newRefPool(perShard)
		refStores[i] = &recordingStore{MemStore: segment.NewMemStore()}
		refs[i].register(1, refStores[i])
	}
	// The same page numbers must be valid in every store.
	for pg := 1; pg <= pages; pg++ {
		shardedStore.Allocate()
		for _, rs := range refStores {
			rs.Allocate()
		}
	}

	sumRefs := func() Stats {
		var s Stats
		for _, r := range refs {
			rs := r.snapshot()
			s.Fetches += rs.Fetches
			s.Hits += rs.Hits
			s.Reads += rs.Reads
			s.Writes += rs.Writes
		}
		return s
	}
	// compareEvictions checks that the write-backs a single pin caused
	// match the reference model's exactly (same victims, same order).
	compareEvictions := func(op string, shard int) {
		got, want := shardedStore.take(), refStores[shard].take()
		if !equalU32(got, want) {
			t.Fatalf("%s: eviction write-backs diverged: sharded wrote %v, reference wrote %v", op, got, want)
		}
	}
	// compareFlush checks FlushAll write-backs per shard as multisets:
	// both pools flush in map-iteration order, which is deliberately
	// unordered, so only the victim sets are comparable.
	compareFlush := func() {
		all := shardedStore.take()
		byShard := make([][]uint32, shards)
		for _, pg := range all {
			i := p.ShardIndex(PageKey{Seg: 1, Page: pg})
			byShard[i] = append(byShard[i], pg)
		}
		for i := range refs {
			got, want := sortedU32(byShard[i]), sortedU32(refStores[i].take())
			if !equalU32(got, want) {
				t.Fatalf("FlushAll: shard %d flushed %v, reference flushed %v", i, got, want)
			}
		}
	}

	type held struct {
		key PageKey
		f   *Frame
		rf  *refFrame
	}
	var pins []held
	exhausted := false

	// Phase 1: create every page with identical seed content in both
	// pools (evictions may already happen here).
	for pg := uint32(1); pg <= pages; pg++ {
		key := PageKey{Seg: 1, Page: pg}
		shard := p.ShardIndex(key)
		f, err := p.PinNew(key)
		rf, rerr := refs[shard].pinNew(key)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("PinNew(%d): sharded err=%v, reference err=%v", pg, err, rerr)
		}
		if err != nil {
			t.Fatalf("PinNew(%d) failed in both pools: %v", pg, err)
		}
		payload := []byte(fmt.Sprintf("seed-%d", pg))
		if _, err := f.Page.Insert(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := rf.page.Insert(payload); err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, true)
		refs[shard].unpin(rf, true)
		compareEvictions(fmt.Sprintf("PinNew(%d)", pg), shard)
	}

	// Phase 2: random trace.
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(100); {
		case r < 50 && len(pins) < 2*perShard:
			pg := uint32(1 + rng.Intn(pages))
			key := PageKey{Seg: 1, Page: pg}
			shard := p.ShardIndex(key)
			before, refBefore := p.Stats(), refs[shard].snapshot()
			f, err := p.Pin(key)
			rf, rerr := refs[shard].pin(key)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("op %d Pin(%d): sharded err=%v, reference err=%v", op, pg, err, rerr)
			}
			compareEvictions(fmt.Sprintf("op %d Pin(%d)", op, pg), shard)
			if err != nil {
				if errors.Is(err, ErrCorrupt) != errors.Is(rerr, ErrCorrupt) {
					t.Fatalf("op %d Pin(%d): error class diverged: %v vs %v", op, pg, err, rerr)
				}
				exhausted = true
				continue
			}
			after, refAfter := p.Stats(), refs[shard].snapshot()
			hit := after.Hits-before.Hits == 1
			refHit := refAfter.Hits-refBefore.Hits == 1
			if hit != refHit {
				t.Fatalf("op %d Pin(%d): sharded hit=%v, reference hit=%v", op, pg, hit, refHit)
			}
			pins = append(pins, held{key, f, rf})
		case len(pins) > 0 && r < 90:
			i := rng.Intn(len(pins))
			h := pins[i]
			pins = append(pins[:i], pins[i+1:]...)
			shard := p.ShardIndex(h.key)
			dirty := rng.Intn(2) == 0
			if dirty {
				payload := []byte(fmt.Sprintf("op-%d", op))
				_, e1 := h.f.Page.Insert(payload)
				_, e2 := h.rf.page.Insert(payload)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: page mutation diverged: %v vs %v", op, e1, e2)
				}
			}
			p.Unpin(h.f, dirty)
			refs[shard].unpin(h.rf, dirty)
		case r >= 95:
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				if err := ref.flushAll(); err != nil {
					t.Fatal(err)
				}
			}
			compareFlush()
		}
	}

	// Phase 3: drain and compare cumulative state.
	for _, h := range pins {
		p.Unpin(h.f, false)
		refs[p.ShardIndex(h.key)].unpin(h.rf, false)
	}
	if got := p.PinnedCount(); got != 0 {
		t.Fatalf("PinnedCount = %d after draining, want 0", got)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		if err := ref.flushAll(); err != nil {
			t.Fatal(err)
		}
	}
	compareFlush()

	got, want := p.Stats(), sumRefs()
	if got != want {
		t.Fatalf("stats diverged: sharded %+v, reference %+v", got, want)
	}
	// Every logical access is either a buffer hit, a physical read, or
	// a fresh-page creation (PinNew performs no I/O by design).
	if !exhausted && got.Fetches != got.Hits+got.Reads+pages {
		t.Fatalf("invariant violated: Fetches %d != Hits %d + Reads %d + PinNews %d",
			got.Fetches, got.Hits, got.Reads, pages)
	}
	for pg := uint32(1); pg <= pages; pg++ {
		var a, b [4096]byte
		if err := shardedStore.ReadPage(pg, a[:]); err != nil {
			t.Fatal(err)
		}
		i := p.ShardIndex(PageKey{Seg: 1, Page: pg})
		if err := refStores[i].ReadPage(pg, b[:]); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("store image of page %d diverged from reference", pg)
		}
	}

	// Phase 4: sealed-page verdicts. Zero half the pages underneath
	// both pools; a page both pools know to be sealed must fail
	// verification identically, an intact page must read identically.
	p.InvalidateAll()
	for _, ref := range refs {
		ref.invalidateAll()
	}
	zeros := make([]byte, 4096)
	for pg := uint32(1); pg <= pages; pg++ {
		key := PageKey{Seg: 1, Page: pg}
		shard := p.ShardIndex(key)
		if pg%2 == 0 {
			if err := shardedStore.WritePage(pg, zeros); err != nil {
				t.Fatal(err)
			}
			if err := refStores[shard].WritePage(pg, zeros); err != nil {
				t.Fatal(err)
			}
		}
		f, err := p.Pin(key)
		rf, rerr := refs[shard].pin(key)
		if (err == nil) != (rerr == nil) || errors.Is(err, ErrCorrupt) != errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("sealed verdict diverged for page %d: sharded %v, reference %v", pg, err, rerr)
		}
		if pg%2 == 0 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("zeroed sealed page %d not detected as corrupt: %v", pg, err)
		}
		if err == nil {
			p.Unpin(f, false)
			refs[shard].unpin(rf, false)
		}
	}
	shardedStore.take()
	for _, rs := range refStores {
		rs.take()
	}
}

// TestMarkSealedVerdict: a page marked sealed without ever being
// written back through the pool (recovery's path) must fail an
// all-zero read exactly like a written-back page.
func TestMarkSealedVerdict(t *testing.T) {
	p := NewPoolShards(8, 2)
	st := segment.NewMemStore()
	p.Register(1, st)
	no, _ := st.Allocate()
	key := PageKey{Seg: 1, Page: no}

	// Unsealed zero page: reads fine (a fresh page).
	f, err := p.Pin(key)
	if err != nil {
		t.Fatalf("fresh zero page should pin: %v", err)
	}
	p.Unpin(f, false)

	p.InvalidateAll()
	p.MarkSealed(key)
	if _, err := p.Pin(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed page reading all-zero should be corrupt, got %v", err)
	}
}
