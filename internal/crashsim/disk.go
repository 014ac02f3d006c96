package crashsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/simkit"
)

// segImage is the durable image of one segment: the pages that ever
// reached stable storage plus the allocated extent.
type segImage struct {
	count uint32
	pages map[uint32][]byte
}

// Disk models stable storage across simulated reboots: the durable
// page images of every segment and the durable content of every log
// segment file. A Disk outlives the sessions that run on it; opening a
// new session first settles the unsynced writes of the previous one.
type Disk struct {
	mu      sync.Mutex
	segs    map[segment.ID]*segImage
	walSegs map[string][]byte // log segment files by name
	sess    *Session
}

// NewDisk returns an empty disk.
func NewDisk() *Disk {
	return &Disk{segs: make(map[segment.ID]*segImage), walSegs: make(map[string][]byte)}
}

// Session is one process lifetime on the disk: it sees the durable
// state plus its own unsynced writes. Every fault decision is its
// Injector's — the stores and log it hands out are wrapped by it, and
// a burst or a kill is armed on it directly. What the unsynced writes
// leave on the disk is decided when the NEXT session opens (settle),
// exactly like an operating system losing its page cache.
type Session struct {
	*simkit.Injector
	d *Disk

	mu     sync.Mutex
	pend   map[segment.ID]map[uint32][]byte // unsynced page writes
	counts map[segment.ID]uint32            // visible segment extents

	walSegFiles map[string]*sessWALSeg // log: session view per segment file
	walRemoved  map[string]bool        // log: removals pending settle

	// syncDelay is how long a log sync takes: a modelled device's
	// flush latency, zero unless a scenario needs a slow device.
	syncDelay time.Duration
}

// Open settles the previous session (if any) using outcomes drawn
// from seed and starts a new session whose injector crashes after
// budget mutating I/O operations (budget < 0: never).
func (d *Disk) Open(seed, budget int64) *Session {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settleLocked(rand.New(rand.NewSource(seed*7919 + 13)))
	s := &Session{
		Injector:    simkit.NewInjector(seed, budget),
		d:           d,
		pend:        make(map[segment.ID]map[uint32][]byte),
		counts:      make(map[segment.ID]uint32),
		walSegFiles: make(map[string]*sessWALSeg),
		walRemoved:  make(map[string]bool),
	}
	d.sess = s
	return s
}

// settleLocked resolves the unsynced writes of the previous session.
// After a clean exit everything is promoted (a graceful shutdown
// flushes the page cache); after a crash each pending page write
// independently survives, vanishes, or tears at sector granularity,
// and each log segment file keeps its synced prefix plus a seeded
// part of its unsynced tail.
func (d *Disk) settleLocked(rng *rand.Rand) {
	s := d.sess
	if s == nil {
		return
	}
	d.sess = nil
	crashed := s.Crashed()

	ids := make([]segment.ID, 0, len(s.pend))
	for id := range s.pend {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		img := d.segLocked(id)
		nos := make([]uint32, 0, len(s.pend[id]))
		for no := range s.pend[id] {
			nos = append(nos, no)
		}
		sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
		for _, no := range nos {
			buf := s.pend[id][no]
			if !crashed {
				img.put(no, buf)
				continue
			}
			switch rng.Intn(3) {
			case 0: // the write reached the platter before power loss
				img.put(no, buf)
			case 1: // the write never left the cache
			case 2: // torn: some sectors new, some old
				old := img.pages[no]
				mixed := make([]byte, page.Size)
				if old != nil {
					copy(mixed, old)
				}
				for off := 0; off < page.Size; off += simkit.SectorSize {
					if rng.Intn(2) == 1 {
						copy(mixed[off:off+simkit.SectorSize], buf[off:off+simkit.SectorSize])
					}
				}
				img.put(no, mixed)
			}
		}
	}

	// Log segment files. Removals settle first: after a crash each
	// one independently reached the directory or not (an unsynced
	// metadata operation). Then the surviving content of every file the
	// session touched: a file created but never synced may vanish
	// entirely; otherwise the synced prefix survives plus a seeded
	// portion of the unsynced tail.
	removed := make([]string, 0, len(s.walRemoved))
	for name := range s.walRemoved {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		if !crashed || rng.Intn(2) == 1 {
			delete(d.walSegs, name)
		}
	}
	names := make([]string, 0, len(s.walSegFiles))
	for name := range s.walSegFiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := s.walSegFiles[name]
		if !crashed {
			d.walSegs[name] = append([]byte(nil), ws.data...)
			continue
		}
		if ws.created && ws.synced == 0 && rng.Intn(2) == 1 {
			// The create itself never reached the directory.
			delete(d.walSegs, name)
			continue
		}
		k := ws.synced + rng.Intn(len(ws.data)-ws.synced+1)
		d.walSegs[name] = append([]byte(nil), ws.data[:k]...)
	}
}

func (d *Disk) segLocked(id segment.ID) *segImage {
	img := d.segs[id]
	if img == nil {
		img = &segImage{pages: make(map[uint32][]byte)}
		d.segs[id] = img
	}
	return img
}

func (img *segImage) put(no uint32, buf []byte) {
	img.pages[no] = append([]byte(nil), buf...)
	if no > img.count {
		img.count = no
	}
}

// OpenStore returns the session's store of a segment behind its
// injector; it is the engine.Options.OpenStore hook.
func (s *Session) OpenStore(id segment.ID) (segment.Store, error) {
	return s.WrapStore(id, &memStore{s: s, id: id}), nil
}

// countOf returns the visible extent of a segment, initializing it
// from the durable image on first use.
func (s *Session) countOf(id segment.ID) uint32 {
	if c, ok := s.counts[id]; ok {
		return c
	}
	s.d.mu.Lock()
	c := uint32(0)
	if img := s.d.segs[id]; img != nil {
		c = img.count
	}
	s.d.mu.Unlock()
	s.counts[id] = c
	return c
}

// memStore implements segment.Store over the session's view of one
// segment: reads see the unsynced writes over the durable image, Sync
// makes them durable.
type memStore struct {
	s  *Session
	id segment.ID
}

func (ms *memStore) ReadPage(no uint32, buf []byte) error {
	s := ms.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if no == 0 || no > s.countOf(ms.id) {
		return fmt.Errorf("crashsim: read of unallocated page %d.%d", ms.id, no)
	}
	if p := s.pend[ms.id][no]; p != nil {
		copy(buf, p)
		return nil
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if img := s.d.segs[ms.id]; img != nil && img.pages[no] != nil {
		copy(buf, img.pages[no])
		return nil
	}
	clear(buf)
	return nil
}

func (ms *memStore) WritePage(no uint32, buf []byte) error {
	s := ms.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if no == 0 {
		return fmt.Errorf("crashsim: write of page 0")
	}
	if no > s.countOf(ms.id) {
		s.counts[ms.id] = no
	}
	if s.pend[ms.id] == nil {
		s.pend[ms.id] = make(map[uint32][]byte)
	}
	s.pend[ms.id][no] = append([]byte(nil), buf...)
	return nil
}

func (ms *memStore) PageCount() uint32 {
	ms.s.mu.Lock()
	defer ms.s.mu.Unlock()
	return ms.s.countOf(ms.id)
}

func (ms *memStore) Allocate() (uint32, error) {
	// Allocation only moves the in-memory extent and never fails; a
	// dead session's allocations are harmless because every subsequent
	// write fails.
	ms.s.mu.Lock()
	defer ms.s.mu.Unlock()
	c := ms.s.countOf(ms.id) + 1
	ms.s.counts[ms.id] = c
	return c, nil
}

func (ms *memStore) Sync() error {
	s := ms.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	img := s.d.segLocked(ms.id)
	for no, buf := range s.pend[ms.id] {
		img.put(no, buf)
	}
	delete(s.pend, ms.id)
	return nil
}

func (ms *memStore) Close() error { return nil }
