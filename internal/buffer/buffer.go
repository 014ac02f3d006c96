// Package buffer implements the buffer pool shared by all segments
// of a database: a fixed set of page frames with pin/unpin semantics,
// LRU replacement of unpinned frames, dirty-page write-back, and the
// access statistics (logical fetches, physical reads and writes) that
// the storage experiments report.
//
// The pool is lock-striped for concurrent readers: page keys hash to
// independent shards, each with its own mutex, frame map, LRU list and
// sealed-page set, so pins of unrelated pages never contend. A miss
// loads its frame in place: the frame enters the shard's map at once,
// exclusively latched and marked loading, and the physical read runs
// outside the shard lock. When N goroutines fault the same absent
// page, exactly one performs the store read and the other N-1 pin the
// loading frame and wait on its latch (counted as buffer hits).
// Access counters are shard-local atomics merged on demand, so Stats()
// never takes a lock and never serializes the hot path.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/segment"
)

// PageKey identifies a page across segments.
type PageKey struct {
	Seg  segment.ID
	Page uint32
}

// Frame is one buffered page. The Page view is valid while the frame
// is pinned, or while a shared latch is held and Gen still reads the
// generation seen when the page was pinned.
//
// Concurrent pinners of the same frame coordinate through the frame
// latch (RLatch/Latch): readers of the page image take the shared
// latch, mutators the exclusive one, each only for the duration of
// one page operation. The latch is what lets snapshot readers stream
// pages while a transaction commit writes them — there is no global
// statement lock above it.
type Frame struct {
	Key   PageKey
	Page  *page.Page
	buf   []byte
	pins  int
	dirty bool
	// gen counts the times the frame left its page. Eviction bumps it
	// under the exclusive latch; InvalidateAll, whose frames are never
	// reused, without (a recovered panic may have leaked the latch).
	gen atomic.Uint64
	// loading is set while the pin that missed reads the page into the
	// frame under its exclusive latch. loadErr is that read's error; it
	// is set, before the latch is released, only on a frame that has
	// left the map for good.
	loading atomic.Bool
	loadErr error
	// prev/next link the frame into its shard's LRU ring while it is
	// unpinned (both nil otherwise). The links live in the frame so that
	// an Unpin allocates nothing.
	prev, next *Frame

	latch sync.RWMutex
}

// Gen returns the frame's generation. Read under the shared latch, an
// unchanged generation proves the frame still holds the page it held
// when the generation was first read, pinned or not.
func (f *Frame) Gen() uint64 { return f.gen.Load() }

// RLatch takes the frame's shared latch for reading the page image.
func (f *Frame) RLatch() { f.latch.RLock() }

// RUnlatch releases the shared latch.
func (f *Frame) RUnlatch() { f.latch.RUnlock() }

// Latch takes the frame's exclusive latch for mutating the page image.
func (f *Frame) Latch() { f.latch.Lock() }

// Unlatch releases the exclusive latch.
func (f *Frame) Unlatch() { f.latch.Unlock() }

// Stats counts buffer pool traffic. Fetches is the number of logical
// page accesses (Pin calls); Reads and Writes count physical I/O to
// the backing stores. For successful pins Fetches == Hits + Reads: a
// pin that finds the page still loading counts as a hit (it performed
// no physical I/O of its own).
type Stats struct {
	Fetches uint64
	Hits    uint64
	Reads   uint64
	Writes  uint64
}

// shardStats are one shard's counters. They are plain atomics rather
// than mutex-guarded fields so that the hot pin path never serializes
// on statistics and Stats() snapshots are torn-read free.
type shardStats struct {
	fetches atomic.Uint64
	hits    atomic.Uint64
	reads   atomic.Uint64
	writes  atomic.Uint64
}

// shard is one lock stripe of the pool: an independent frame map with
// its own LRU and sealed-page set.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageKey]*Frame // loading frames included
	lru      Frame              // ring sentinel: lru.next = most recently used; only unpinned frames
	// sealed records every page known to hold a sealed (checksummed)
	// image on its backing store: pages this shard wrote back plus
	// pages recovery proved to hold committed data (MarkSealed). A
	// verified read of such a page that comes back all-zero/unsealed is
	// corruption (zeroed rot), not a fresh page — without this record
	// the zeroed image would be indistinguishable from a page that was
	// never written.
	sealed map[PageKey]struct{}
	stats  shardStats
}

// Pool is the buffer pool.
type Pool struct {
	shards []*shard
	mask   uint64 // len(shards)-1; len is a power of two

	storesMu sync.RWMutex
	stores   map[segment.ID]segment.Store

	// FlushHook, when set, runs before a dirty frame is written back;
	// the WAL uses it to enforce the write-ahead rule. It is invoked
	// under the owning shard's lock and the frame's exclusive latch
	// (never under any global pool lock) with the frame's LSN, which is
	// stable at that point. Lock ordering: shard lock ≺ frame latch ≺
	// log mutex; the hook must not call back into the pool.
	FlushHook func(key PageKey, lsn uint64) error
}

// minFramesPerShard bounds how thin sharding may slice a pool: below
// this many frames per shard the stripes are so small that eviction
// behavior would visibly diverge from a unified pool (and tiny test
// pools would change semantics), so small pools stay single-shard.
const minFramesPerShard = 8

// maxShards caps the stripe count; past ~16 stripes the shard mutexes
// stop being a measurable contention point for any realistic core
// count this prototype targets.
const maxShards = 16

// NewPool creates a pool with room for capacity pages, striped over a
// shard count derived from the capacity (single shard for small
// pools, up to maxShards for large ones).
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	shards := 1
	for shards*2 <= maxShards && capacity/(shards*2) >= minFramesPerShard {
		shards *= 2
	}
	return NewPoolShards(capacity, shards)
}

// NewPoolShards creates a pool with an explicit shard count (rounded
// down to a power of two, minimum 1). Total capacity is split evenly;
// every shard gets at least one frame, so the effective capacity is
// rounded up to a multiple of the shard count.
func NewPoolShards(capacity, shards int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	// Round down to a power of two so shardOf can mask.
	for shards&(shards-1) != 0 {
		shards &= shards - 1
	}
	perShard := (capacity + shards - 1) / shards
	p := &Pool{
		shards: make([]*shard, shards),
		mask:   uint64(shards - 1),
		stores: make(map[segment.ID]segment.Store),
	}
	for i := range p.shards {
		sh := &shard{
			capacity: perShard,
			frames:   make(map[PageKey]*Frame),
			sealed:   make(map[PageKey]struct{}),
		}
		sh.lruInit()
		p.shards[i] = sh
	}
	return p
}

// lruInit empties the LRU ring.
func (sh *shard) lruInit() { sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru }

// lruInsert links f into the ring right after at.
func (sh *shard) lruInsert(f, at *Frame) {
	f.prev, f.next = at, at.next
	at.next.prev = f
	at.next = f
}

// lruRemove unlinks f from the ring.
func (sh *shard) lruRemove(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// shardOf maps a page key to its stripe.
func (p *Pool) shardOf(key PageKey) *shard { return p.shards[p.ShardIndex(key)] }

// ShardCount returns the number of lock stripes.
func (p *Pool) ShardCount() int { return len(p.shards) }

// ShardIndex returns the stripe a page key maps to; the property
// tests use it to replay per-shard traces against a reference model.
func (p *Pool) ShardIndex(key PageKey) int {
	h := uint64(key.Page)<<16 | uint64(key.Seg)
	h *= 0x9E3779B97F4A7C15 // Fibonacci hashing: spread low-entropy keys
	return int((h >> 47) & p.mask)
}

// Register attaches a segment store to the pool under the given id.
func (p *Pool) Register(id segment.ID, st segment.Store) {
	p.storesMu.Lock()
	defer p.storesMu.Unlock()
	p.stores[id] = st
}

// Store returns the registered store for a segment.
func (p *Pool) Store(id segment.ID) segment.Store {
	p.storesMu.RLock()
	defer p.storesMu.RUnlock()
	return p.stores[id]
}

// Stats returns a snapshot of the access counters, merged across
// shards without taking any lock.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s.Fetches += sh.stats.fetches.Load()
		s.Hits += sh.stats.hits.Load()
		s.Reads += sh.stats.reads.Load()
		s.Writes += sh.stats.writes.Load()
	}
	return s
}

// ResetStats zeroes the access counters.
func (p *Pool) ResetStats() {
	for _, sh := range p.shards {
		sh.stats.fetches.Store(0)
		sh.stats.hits.Store(0)
		sh.stats.reads.Store(0)
		sh.stats.writes.Store(0)
	}
}

// Allocate reserves a fresh page in the segment and returns its
// number. The page is not formatted; callers Pin it and Init the
// page view.
func (p *Pool) Allocate(id segment.ID) (uint32, error) {
	st := p.Store(id)
	if st == nil {
		return 0, fmt.Errorf("buffer: segment %d not registered", id)
	}
	return st.Allocate()
}

// ErrCorrupt reports a page image that failed checksum verification
// when read from its backing store — the signature of a torn write at
// a crash, of bit rot, or of a lost or misdirected write. It wraps the
// cross-layer dberr.ErrCorrupt sentinel, so errors.Is classifies it as
// corruption anywhere in the stack. Recovery reformats such pages and
// rebuilds them from the log; outside recovery the engine quarantines
// the object that needed the page.
var ErrCorrupt = fmt.Errorf("buffer: page failed verification: %w", dberr.ErrCorrupt)

// ErrExhausted reports a pin that found every frame of the page's
// shard pinned or latched: more frames are in use than the pool has.
// It says nothing about the page, so the layers above pass it on as it
// is and never read it as a broken reference.
var ErrExhausted = errors.New("buffer: pool exhausted")

// Pin fetches the page into a frame and pins it. Every Pin must be
// matched by an Unpin.
func (p *Pool) Pin(key PageKey) (*Frame, error) { return p.pin(key, true) }

// PinNoVerify is Pin without checksum verification on the physical
// read. Only crash recovery uses it: a torn page must still be loaded
// so it can be reformatted and rebuilt from the log.
func (p *Pool) PinNoVerify(key PageKey) (*Frame, error) { return p.pin(key, false) }

func (p *Pool) pin(key PageKey, verify bool) (*Frame, error) {
	sh := p.shardOf(key)
	sh.stats.fetches.Add(1)
	sh.mu.Lock()
	if f, ok := sh.frames[key]; ok {
		if f.next != nil {
			sh.lruRemove(f)
		}
		f.pins++
		sh.mu.Unlock()
		if f.loading.Load() {
			// Another goroutine is reading this page into f: wait for
			// its exclusive latch. A failed read took f out of the map
			// and abandoned its pins, this one included.
			f.RLatch()
			err := f.loadErr
			f.RUnlatch()
			if err != nil {
				return nil, err
			}
		}
		sh.stats.hits.Add(1)
		return f, nil
	}
	st := p.Store(key.Seg)
	if st == nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("buffer: segment %d not registered", key.Seg)
	}
	f, err := p.freeFrameLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	// The frame enters the map now, exclusively latched and marked
	// loading, so a concurrent pin of the page joins this read.
	f.Key = key
	f.pins = 1
	f.dirty = false
	f.loading.Store(true)
	sh.frames[key] = f
	_, wasSealed := sh.sealed[key]
	sh.stats.reads.Add(1)
	sh.mu.Unlock()

	// The physical read runs outside the shard lock: pins of other
	// pages in this shard proceed while the store is busy.
	err = st.ReadPage(key.Page, f.buf)
	if err == nil && verify {
		switch {
		case !f.Page.ChecksumOK(uint16(key.Seg), key.Page):
			err = fmt.Errorf("%w: checksum mismatch at %v.%d", ErrCorrupt, key.Seg, key.Page)
		case wasSealed && !f.Page.Sealed():
			// The image passed ChecksumOK only because it is all zeros —
			// but this page was sealed before, so its content was lost.
			err = fmt.Errorf("%w: sealed page %v.%d reads back all-zero", ErrCorrupt, key.Seg, key.Page)
		}
	}
	if err != nil {
		// The frame leaves the map with its pins abandoned; every
		// waiter sees this error, and a later Pin starts a fresh read
		// — a transient fault is not replayed to them K times. The
		// latch is still held here: a loading frame is pinned and
		// clean, so no shard-lock holder waits for it (DESIGN §6).
		f.loadErr = err
		sh.mu.Lock()
		if sh.frames[key] == f {
			delete(sh.frames, key)
		}
		sh.mu.Unlock()
		f.Unlatch()
		return nil, err
	}
	f.loading.Store(false)
	f.Unlatch()
	return f, nil
}

// PinNew pins a freshly allocated page and initializes it as an empty
// slotted page, skipping the physical read.
func (p *Pool) PinNew(key PageKey) (*Frame, error) {
	sh := p.shardOf(key)
	sh.stats.fetches.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.frames[key]; ok {
		return nil, fmt.Errorf("buffer: PinNew of already-buffered page %v", key)
	}
	f, err := p.freeFrameLocked(sh)
	if err != nil {
		return nil, err
	}
	f.Key = key
	f.pins = 1
	f.dirty = true
	f.Page.Init()
	sh.frames[key] = f
	f.Unlatch()
	return f, nil
}

// Unpin releases one pin; dirty marks the frame as modified.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	sh := p.shardOf(f.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins < 0 {
		// Deliberately a panic, not an error: an unbalanced unpin is a
		// programming bug in a caller's pin/unpin pairing, never a
		// runtime condition a statement could recover from — and by the
		// time it fires the frame accounting is already wrong. The
		// engine's statement-abort path recovers such panics, fails the
		// statement, and rebuilds the pool, so a bug here degrades to a
		// failed statement instead of a dead process.
		panic("buffer: unpin of unpinned frame")
	}
	if f.pins == 0 {
		sh.lruInsert(f, &sh.lru)
	}
}

// freeFrameLocked finds or evicts a frame in sh and returns it
// exclusively latched, out of the map; sh.mu is held. Loading frames
// are in sh.frames and count against the shard's capacity.
// The victim is the least recently used unpinned frame whose latch
// TryLock gets, so eviction never waits under the shard mutex for a
// reader viewing a frame it has not pinned.
func (p *Pool) freeFrameLocked(sh *shard) (*Frame, error) {
	if len(sh.frames) < sh.capacity {
		buf := make([]byte, page.Size)
		f := &Frame{buf: buf, Page: page.View(buf)}
		f.Latch()
		return f, nil
	}
	for victim := sh.lru.prev; victim != &sh.lru; victim = victim.prev {
		if !victim.latch.TryLock() {
			continue
		}
		if victim.dirty {
			if err := p.writeBackLocked(sh, victim); err != nil {
				// The victim stays on the LRU: it is still a valid
				// buffered page.
				victim.Unlatch()
				return nil, err
			}
		}
		victim.gen.Add(1)
		sh.lruRemove(victim)
		delete(sh.frames, victim.Key)
		return victim, nil
	}
	return nil, fmt.Errorf("%w (%d frames, all pinned or latched)", ErrExhausted, sh.capacity)
}

// writeBackLocked seals a dirty frame and writes it to its store;
// sh.mu and the frame's exclusive latch are held.
func (p *Pool) writeBackLocked(sh *shard, f *Frame) error {
	if p.FlushHook != nil {
		if err := p.FlushHook(f.Key, f.Page.LSN()); err != nil {
			return err
		}
	}
	st := p.Store(f.Key.Seg)
	if st == nil {
		return fmt.Errorf("buffer: segment %d not registered", f.Key.Seg)
	}
	f.Page.Seal(uint16(f.Key.Seg), f.Key.Page)
	sh.stats.writes.Add(1)
	if err := st.WritePage(f.Key.Page, f.buf); err != nil {
		return err
	}
	sh.sealed[f.Key] = struct{}{}
	f.dirty = false
	return nil
}

// MarkSealed records that the page's backing store holds (or must
// hold) a sealed image, so an all-zero read of it fails verification.
// Crash recovery calls this for every page it proves to carry
// committed data.
func (p *Pool) MarkSealed(key PageKey) {
	sh := p.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sealed[key] = struct{}{}
}

// FlushAll writes back every dirty frame (pinned or not) and syncs
// all stores. Used at commit, checkpoint and shutdown; callers
// serialize it against mutators (the engine holds the exclusive
// statement lock), so locking one shard at a time is a consistent
// flush.
func (p *Pool) FlushAll() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				// Latch holders never wait on a shard mutex, so waiting
				// for the latch under sh.mu cannot deadlock.
				f.Latch()
				err := p.writeBackLocked(sh, f)
				f.Unlatch()
				if err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	p.storesMu.RLock()
	defer p.storesMu.RUnlock()
	for _, st := range p.stores {
		if err := st.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// InvalidateAll drops every frame without writing back, including
// pinned ones (their pin counts are abandoned). Crash-simulation
// tests use it to model losing the page cache; the engine's
// statement-abort path uses it to discard an aborted statement's
// buffered effects — and any pins leaked by a recovered panic —
// before rebuilding the committed state from the log. Callers hold
// the exclusive statement lock, so no page is loading. Every
// dropped frame's generation is bumped, so no reader's window serves
// its image again.
func (p *Pool) InvalidateAll() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			f.gen.Add(1)
		}
		sh.frames = make(map[PageKey]*Frame)
		sh.lruInit()
		sh.mu.Unlock()
	}
}

// PinnedCount returns the number of currently pinned frames; tests
// use it to verify that error and cancellation paths release every
// page.
func (p *Pool) PinnedCount() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
