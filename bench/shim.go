package main

import (
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/segment"
	"repro/internal/wal"
)

// The shims wrap the real file-backed segment.Store and wal.Storage:
// they count calls and bytes, add up busy time, keep a per-call
// latency histogram and, while a traced pass is running, emit one child
// span per call. They never sleep and never fail a call themselves, so
// what they time is the sandbox's file system, not a device model.

// callStats is the meter of one kind of I/O call.
type callStats struct {
	calls  atomic.Int64
	bytes  atomic.Int64
	busyNs atomic.Int64
	hist   latHist
}

func (c *callStats) note(start time.Time, n int) time.Time {
	end := time.Now()
	d := end.Sub(start)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	c.busyNs.Add(int64(d))
	c.hist.add(d)
	return end
}

// callSnap is a point-in-time copy of a callStats, for deltas.
type callSnap struct {
	calls, bytes int64
	busy         time.Duration
}

func (c *callStats) snap() callSnap {
	return callSnap{c.calls.Load(), c.bytes.Load(), time.Duration(c.busyNs.Load())}
}

func (a callSnap) sub(b callSnap) callSnap {
	return callSnap{a.calls - b.calls, a.bytes - b.bytes, a.busy - b.busy}
}

// latHist is a lock-free log-scale histogram: 8 buckets per power of
// two of nanoseconds, so a quantile is read to within about 9 %.
type latHist struct {
	buckets [64 * 8]atomic.Int64
}

func (h *latHist) add(d time.Duration) {
	h.buckets[histBucket(uint64(d))].Add(1)
}

func histBucket(ns uint64) int {
	if ns < 8 {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // ns in [2^exp, 2^(exp+1))
	sub := (ns >> (uint(exp) - 3)) & 7
	return exp*8 + int(sub)
}

func histLower(b int) float64 {
	if b < 8 {
		return float64(b)
	}
	exp, sub := b/8, b%8
	return math.Ldexp(1+float64(sub)/8, exp)
}

// histSnap is a copy of the bucket counts, for deltas.
type histSnap [64 * 8]int64

func (h *latHist) snap() *histSnap {
	var s histSnap
	for i := range h.buckets {
		s[i] = h.buckets[i].Load()
	}
	return &s
}

// quantileSince returns quantile q of the calls made since base, in
// nanoseconds (0 when there were none).
func (h *latHist) quantileSince(base *histSnap, q float64) float64 {
	now := h.snap()
	var total int64
	for i := range now {
		now[i] -= base[i]
		total += now[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	for i, n := range now {
		if rank < n {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(float64(rank)+0.5)/float64(n)
		}
		rank -= n
	}
	return 0
}

// ioMeter gathers the meters of one database's stores and log. tr is
// the tracer of the running traced pass, nil otherwise.
type ioMeter struct {
	segRead, segWrite, segSync callStats
	walWrite, walSync          callStats
	tr                         atomic.Pointer[tracer]
}

func (m *ioMeter) span(name string, start, end time.Time) {
	if tr := m.tr.Load(); tr != nil {
		tr.leaf(name, start, end)
	}
}

// storeShim meters a segment.Store.
type storeShim struct {
	segment.Store
	m *ioMeter
}

func (s *storeShim) ReadPage(no uint32, buf []byte) error {
	start := time.Now()
	err := s.Store.ReadPage(no, buf)
	s.m.span("segment.read", start, s.m.segRead.note(start, len(buf)))
	return err
}

func (s *storeShim) WritePage(no uint32, buf []byte) error {
	start := time.Now()
	err := s.Store.WritePage(no, buf)
	s.m.span("segment.write", start, s.m.segWrite.note(start, len(buf)))
	return err
}

func (s *storeShim) Sync() error {
	start := time.Now()
	err := s.Store.Sync()
	s.m.span("segment.sync", start, s.m.segSync.note(start, 0))
	return err
}

// openStore is the engine.Options.OpenStore hook: the engine's own
// file layout (seg_<id>.dat under dir) behind a storeShim.
func (m *ioMeter) openStore(dir string) func(segment.ID) (segment.Store, error) {
	return func(id segment.ID) (segment.Store, error) {
		fs, err := segment.OpenFileStore(filepath.Join(dir, fmt.Sprintf("seg_%d.dat", id)))
		if err != nil {
			return nil, err
		}
		return &storeShim{Store: fs, m: m}, nil
	}
}

// walShim meters a wal.Storage by wrapping every file it opens.
type walShim struct {
	wal.Storage
	m *ioMeter
}

func (s *walShim) Open(name string) (wal.File, error) {
	f, err := s.Storage.Open(name)
	if err != nil {
		return nil, err
	}
	return &walFileShim{File: f, m: s.m}, nil
}

type walFileShim struct {
	wal.File
	m *ioMeter
}

func (f *walFileShim) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.m.span("wal.write", start, f.m.walWrite.note(start, n))
	return n, err
}

func (f *walFileShim) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.m.span("wal.fsync", start, f.m.walSync.note(start, 0))
	return err
}

// openWAL is the engine.Options.OpenWALStorage hook: the default
// directory layout behind a walShim.
func (m *ioMeter) openWAL(dir string) func() (wal.Storage, error) {
	return func() (wal.Storage, error) {
		return &walShim{Storage: wal.NewDirStorage(dir), m: m}, nil
	}
}
