// Package repl is the follower side of WAL-shipping replication: it
// dials a primary aimserver, bootstraps from a checkpoint snapshot
// when it has no usable state, then applies the shipped stream of
// committed WAL groups onto a local read-only replica engine.
//
// The follower's local state is a byte-identical mirror of a prefix of
// the primary's log (plus the pages that log produces), which is what
// makes every piece of existing machinery work unchanged: recovery
// after a follower crash is ordinary WAL recovery, catch-up after a
// disconnect resumes from the mirrored log's end, and falling behind a
// primary checkpoint's segment recycling degrades to a fresh snapshot
// — the same path as first bootstrap.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/netproto"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// Options configure a Follower.
type Options struct {
	// Addr is the primary server's address.
	Addr string
	// Dir is the replica's database directory.
	Dir string
	// Engine is the base engine configuration (pool size, segment
	// bounds, ...). Dir, Replica, CheckpointEvery and DisableWAL are
	// overridden; WALSegmentBytes should match the primary's so the
	// mirrored chain rolls at the same offsets.
	Engine engine.Options
	// DialTimeout bounds each dial+handshake (default 5s).
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for one frame; the primary heartbeats
	// every 500ms, so expiry means a dead or wedged primary and the
	// follower re-dials (default 10s).
	ReadTimeout time.Duration
	// Backoff is the initial re-dial delay, doubling per consecutive
	// failure up to MaxBackoff (defaults 50ms, 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// BeforeReseed runs just before a mid-life re-bootstrap closes the
	// current engine (the primary recycled the follower's position
	// away). Callers serving reads from DB() use it to quiesce them.
	BeforeReseed func(*engine.DB)
	// AfterReseed runs once the re-bootstrapped engine is open.
	AfterReseed func(*engine.DB)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 10 * time.Second
	}
	if o.Backoff == 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	return o
}

// Follower replicates one primary into a local directory.
type Follower struct {
	opts Options

	mu sync.RWMutex // guards db (swapped on re-bootstrap)
	db *engine.DB

	connMu sync.Mutex
	conn   net.Conn

	stop chan struct{}
	done chan struct{}

	// Cumulative counters that must survive engine swaps (the engine's
	// ReplCounters die with it on re-bootstrap).
	reconnects uint64
	snapshots  uint64

	errMu   sync.Mutex
	lastErr error
}

// Start opens (or re-opens) the replica directory and begins following
// the primary in the background. An existing replica state recovers
// locally first — a crashed follower resumes from its own log, exactly
// like a primary would, and only then asks the primary for the bytes
// beyond it.
func Start(opts Options) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("repl: follower requires a directory")
	}
	f := &Follower{
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// A directory with a WAL is prior replica state; recover it now so
	// reads work before the primary is even reachable.
	logs, err := filepath.Glob(filepath.Join(opts.Dir, "wal*.log"))
	if err != nil {
		return nil, err
	}
	if len(logs) > 0 {
		db, err := engine.Open(f.engineOpts())
		if err != nil {
			return nil, fmt.Errorf("repl: recover replica state: %w", err)
		}
		f.db = db
	}
	go f.run()
	return f, nil
}

func (f *Follower) engineOpts() engine.Options {
	o := f.opts.Engine
	o.Dir = f.opts.Dir
	o.Replica = true
	o.DisableWAL = false
	o.CheckpointEvery = 0
	o.OpenStore = nil
	o.OpenWALStorage = nil
	return o
}

// DB returns the replica engine serving reads, or nil while the
// follower has no state yet (before the first snapshot lands, or
// mid-reseed).
func (f *Follower) DB() *engine.DB {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.db
}

// Err returns the most recent stream error (nil while healthy); the
// follower keeps retrying regardless.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.lastErr
}

func (f *Follower) noteErr(err error) {
	f.errMu.Lock()
	f.lastErr = err
	f.errMu.Unlock()
}

// WaitApplied blocks until the replica has applied the primary's log
// through at least lsn (a primary-side Log().End() reading), or the
// deadline passes.
func (f *Follower) WaitApplied(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if db := f.DB(); db != nil {
			if db.ReplCounters().AppliedLSN.Load() >= lsn {
				return nil
			}
		}
		if time.Now().After(deadline) {
			err := f.Err()
			if err == nil {
				err = errors.New("timed out")
			}
			return fmt.Errorf("repl: waiting for lsn %d: %w", lsn, err)
		}
		select {
		case <-f.stop:
			return errors.New("repl: follower stopped")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop ends the stream and waits for the background loop to exit. The
// replica engine stays open for reads; Close stops and closes it.
func (f *Follower) Stop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
	<-f.done
}

// Close stops the follower and closes the replica engine.
func (f *Follower) Close() error {
	f.Stop()
	f.mu.Lock()
	db := f.db
	f.db = nil
	f.mu.Unlock()
	if db != nil {
		return db.Close()
	}
	return nil
}

func (f *Follower) stopping() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// run dials, streams, and re-dials with exponential backoff until Stop.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.Backoff
	first := true
	for !f.stopping() {
		err := f.streamOnce()
		if f.stopping() {
			return
		}
		if err != nil {
			f.noteErr(err)
		}
		if !first {
			f.reconnects++
			if db := f.DB(); db != nil {
				db.ReplCounters().Reconnects.Store(f.reconnects)
			}
		}
		first = false
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.opts.MaxBackoff {
			backoff = f.opts.MaxBackoff
		}
	}
}

// streamOnce runs one connection's lifetime: handshake, ReplStart from
// the mirrored log's end (zero = bootstrap), then frames until error.
func (f *Follower) streamOnce() error {
	nc, err := net.DialTimeout("tcp", f.opts.Addr, f.opts.DialTimeout)
	if err != nil {
		return err
	}
	f.connMu.Lock()
	if f.stopping() {
		f.connMu.Unlock()
		nc.Close()
		return errors.New("repl: stopped")
	}
	f.conn = nc
	f.connMu.Unlock()
	defer func() {
		f.connMu.Lock()
		f.conn = nil
		f.connMu.Unlock()
		nc.Close()
	}()

	br := bufio.NewReaderSize(nc, 64<<10)
	nc.SetDeadline(time.Now().Add(f.opts.DialTimeout))
	hello := &netproto.Hello{Version: netproto.Version, Client: "aimrepl"}
	if err := netproto.WriteFrame(nc, netproto.TypeHello, hello.Encode()); err != nil {
		return err
	}
	typ, payload, err := netproto.ReadFrame(br)
	if err != nil {
		return fmt.Errorf("repl: handshake: %w", err)
	}
	switch typ {
	case netproto.TypeHelloOK:
	case netproto.TypeError:
		return wireErr(payload)
	default:
		return fmt.Errorf("repl: unexpected handshake frame 0x%02x", typ)
	}

	var from uint64
	if db := f.DB(); db != nil {
		from = db.Log().End()
	}
	nc.SetDeadline(time.Time{})
	if err := netproto.WriteFrame(nc, netproto.TypeReplStart, (&netproto.ReplStart{From: from}).Encode()); err != nil {
		return err
	}

	st := &streamState{f: f}
	st.resetPending()
	for {
		nc.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		typ, payload, err := netproto.ReadFrame(br)
		if err != nil {
			return err
		}
		if err := st.frame(typ, payload); err != nil {
			return err
		}
	}
}

// streamState is one connection's receive state: the partial-group
// buffer and, during bootstrap, the snapshot under assembly.
type streamState struct {
	f *Follower

	// pending holds shipped bytes not yet applied: the (possibly
	// incomplete) suffix after the last commit-terminated group.
	// pendingBase is pending[0]'s global offset and always equals the
	// mirrored log's end — only whole groups are ever persisted.
	pendingBase uint64
	pending     []byte

	snap *snapBuild
}

// snapBuild assembles an incoming snapshot.
type snapBuild struct {
	walBase uint64
	segs    map[uint32][]byte // preallocated, chunks land at page offsets
	pages   map[uint32]uint32
	order   []uint32
	wal     []byte
}

func (st *streamState) resetPending() {
	st.pendingBase = 0
	st.pending = nil
	if db := st.f.DB(); db != nil {
		st.pendingBase = db.Log().End()
	}
}

func (st *streamState) frame(typ byte, payload []byte) error {
	switch typ {
	case netproto.TypeReplBatch:
		m, err := netproto.DecodeReplBatch(payload)
		if err != nil {
			return err
		}
		return st.batch(m)
	case netproto.TypeReplSnapBegin:
		m, err := netproto.DecodeReplSnapBegin(payload)
		if err != nil {
			return err
		}
		sb := &snapBuild{walBase: m.WALBase, segs: map[uint32][]byte{}, pages: map[uint32]uint32{}}
		for _, s := range m.Segs {
			if _, dup := sb.segs[s.Seg]; dup {
				return fmt.Errorf("repl: snapshot lists segment %d twice", s.Seg)
			}
			sb.segs[s.Seg] = make([]byte, int(s.Pages)*page.Size)
			sb.pages[s.Seg] = s.Pages
			sb.order = append(sb.order, s.Seg)
		}
		st.snap = sb
		return nil
	case netproto.TypeReplSnapPages:
		m, err := netproto.DecodeReplSnapPages(payload)
		if err != nil {
			return err
		}
		if st.snap == nil {
			return errors.New("repl: snapshot pages outside a snapshot")
		}
		if m.WAL {
			st.snap.wal = append(st.snap.wal, m.Data...)
			return nil
		}
		buf, ok := st.snap.segs[m.Seg]
		if !ok {
			return fmt.Errorf("repl: snapshot chunk for unannounced segment %d", m.Seg)
		}
		off := int(m.First-1) * page.Size
		if m.First == 0 || off+len(m.Data) > len(buf) {
			return fmt.Errorf("repl: snapshot chunk overflows segment %d", m.Seg)
		}
		copy(buf[off:], m.Data)
		return nil
	case netproto.TypeReplSnapEnd:
		m, err := netproto.DecodeReplSnapEnd(payload)
		if err != nil {
			return err
		}
		if st.snap == nil {
			return errors.New("repl: snapshot end outside a snapshot")
		}
		if got := st.snap.walBase + uint64(len(st.snap.wal)); got != m.WALEnd {
			return fmt.Errorf("repl: snapshot tail ends at %d, announced %d", got, m.WALEnd)
		}
		snap := st.snap
		st.snap = nil
		if err := st.f.installSnapshot(snap); err != nil {
			return err
		}
		st.resetPending()
		return nil
	case netproto.TypeError:
		return wireErr(payload)
	default:
		return fmt.Errorf("repl: unexpected frame 0x%02x", typ)
	}
}

// batch merges one shipped batch into the pending buffer and applies
// every complete commit-terminated group. The primary may re-ship
// bytes the follower already persisted (a reconnect, or a shipper
// cursor regressing past a primary-side truncation): anything below
// the mirrored log's end is skipped — it can only be a byte-identical
// prefix, since the follower persists nothing above the primary's last
// commit and truncation never cuts below one.
func (st *streamState) batch(m *netproto.ReplBatch) error {
	db := st.f.DB()
	if db == nil {
		return errors.New("repl: batch before snapshot bootstrap")
	}
	db.ReplCounters().PrimaryEnd.Store(m.DurableEnd)
	data, from := m.Data, m.From
	if from < st.pendingBase {
		skip := st.pendingBase - from
		if skip >= uint64(len(data)) {
			return nil // entirely below our persisted end
		}
		data = data[skip:]
		from = st.pendingBase
	}
	held := st.pendingBase + uint64(len(st.pending))
	if from > held {
		return fmt.Errorf("repl: gap in stream: batch at %d, follower at %d", from, held)
	}
	// A regression inside the buffer discards the unapplied suffix the
	// primary rewrote.
	st.pending = append(st.pending[:from-st.pendingBase], data...)

	recs, _, err := wal.DecodeRecords(st.pending, st.pendingBase)
	if err != nil {
		return fmt.Errorf("repl: shipped bytes undecodable: %w", err)
	}
	groupStart := 0
	appliedEnd := st.pendingBase
	for i, r := range recs {
		if r.Op != wal.OpCommit && r.Op != wal.OpCheckpoint {
			continue
		}
		group := recs[groupStart : i+1]
		start := group[0].LSN - 1
		end := r.LSN - 1 + uint64(r.Size())
		raw := st.pending[start-st.pendingBase : end-st.pendingBase]
		if err := db.ReplicaApply(start, raw, group); err != nil {
			return err
		}
		groupStart = i + 1
		appliedEnd = end
	}
	if appliedEnd > st.pendingBase {
		// Applied groups are in the mirrored log's buffer; make them
		// durable before acknowledging progress to ourselves.
		if err := db.Log().Sync(); err != nil {
			return err
		}
		st.pending = append([]byte(nil), st.pending[appliedEnd-st.pendingBase:]...)
		st.pendingBase = appliedEnd
	}
	return nil
}

// installSnapshot replaces the follower's state with a received
// snapshot: quiesce and close the current engine (if any), restore the
// files, and open the replica engine over them.
func (f *Follower) installSnapshot(sb *snapBuild) error {
	f.mu.Lock()
	old := f.db
	f.db = nil
	f.mu.Unlock()
	if old != nil {
		if f.opts.BeforeReseed != nil {
			f.opts.BeforeReseed(old)
		}
		if err := old.Close(); err != nil {
			return fmt.Errorf("repl: closing outrun replica: %w", err)
		}
	}
	snap := &engine.ReplSnapshot{WALBase: sb.walBase, WAL: sb.wal}
	sort.Slice(sb.order, func(i, j int) bool { return sb.order[i] < sb.order[j] })
	for _, id := range sb.order {
		snap.Segs = append(snap.Segs, engine.ReplSnapSeg{
			ID:    segment.ID(id),
			Pages: sb.pages[id],
			Data:  sb.segs[id],
		})
	}
	if err := engine.RestoreSnapshot(f.opts.Dir, snap); err != nil {
		return fmt.Errorf("repl: restore snapshot: %w", err)
	}
	db, err := engine.Open(f.engineOpts())
	if err != nil {
		return fmt.Errorf("repl: open restored replica: %w", err)
	}
	f.snapshots++
	ctr := db.ReplCounters()
	ctr.SnapshotsTaken.Store(f.snapshots)
	ctr.Reconnects.Store(f.reconnects)
	f.mu.Lock()
	f.db = db
	f.mu.Unlock()
	f.noteErr(nil)
	if f.opts.AfterReseed != nil {
		f.opts.AfterReseed(db)
	}
	return nil
}

// wireErr converts a typed Error frame into the error it carries.
func wireErr(payload []byte) error {
	m, err := netproto.DecodeError(payload)
	if err != nil {
		return err
	}
	return m.DecodeWireError()
}
