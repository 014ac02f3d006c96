// Package engine assembles the AIM-II DBMS prototype: buffer pool,
// write-ahead log, catalog, per-table subtuple stores, complex-object
// managers, flat stores, indexes, text indexes, and the NF² SQL
// executor with its access-path planner. It is the layer behind the
// public aim package.
package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/flat"
	"repro/internal/index"
	"repro/internal/object"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/textindex"
	"repro/internal/wal"
)

// Options configures a database instance.
type Options struct {
	// Dir is the database directory; empty means a purely in-memory
	// database (no files, no WAL).
	Dir string
	// PoolPages is the buffer pool capacity in pages (default 1024).
	PoolPages int
	// PoolShards overrides the buffer pool's lock-stripe count (a
	// power of two; 0 derives it from PoolPages). Concurrency tests
	// and benchmarks use it to force sharding on small pools.
	PoolShards int
	// DisableWAL turns off logging even for on-disk databases.
	DisableWAL bool
	// DefaultLayout is the Mini Directory storage structure used for
	// new NF² tables unless CREATE TABLE overrides it (default SS3,
	// AIM-II's choice).
	DefaultLayout object.Layout
	// Clock supplies version timestamps for versioned tables; default
	// is wall-clock nanoseconds. Tests use logical clocks.
	Clock func() int64
	// OpenStore, when set, supplies the backing store of a segment
	// instead of the default file (Dir set) or memory store. The
	// fault-injection harnesses and tests use it to fail or crash page
	// I/O.
	OpenStore func(id segment.ID) (segment.Store, error)
	// OpenWALStorage, when set, supplies the segment-file namespace of
	// the write-ahead log instead of the default directory layout
	// under Dir. When set, the WAL is enabled even for databases
	// without a directory. The fault-injection harnesses and tests use
	// it to fail or crash log I/O, segment creation and retirement
	// included.
	OpenWALStorage func() (wal.Storage, error)
	// WALSegmentBytes bounds the size of one WAL segment file: the log
	// rolls to a new segment when a record would cross the bound, and
	// whole segments below the checkpoint horizon are retired by
	// WALCheckpoint. Zero means DefaultWALSegmentBytes; negative
	// disables rolling (one unbounded segment).
	WALSegmentBytes int64
	// CheckpointEvery starts a background goroutine that writes a
	// fuzzy checkpoint (flush dirty pages, log an OpCheckpoint record,
	// recycle dead segments) at this interval. Zero disables the
	// background checkpointer; WALCheckpoint can still be called
	// explicitly.
	CheckpointEvery time.Duration
	// Retry bounds the automatic retries of transient store and log
	// faults (errors implementing segment.TransientError). The zero
	// value means segment.DefaultRetry; Tries: 1 disables retries.
	Retry segment.RetryPolicy
	// Replica opens the database as a WAL-shipping read replica: all
	// writes (DML, DDL, transactions) fail with ErrReadOnlyReplica, the
	// background checkpointer stays off (checkpoints mirror from the
	// primary's stream), and reads of versioned tables are pinned to
	// the replication visibility horizon (see replica.go). Requires a
	// write-ahead log. Reopening the same directory without Replica
	// promotes it to a standalone database.
	Replica bool
}

// DB is one database instance.
type DB struct {
	// Concurrency control is six mutexes with one lock order, written
	// down once in DESIGN.md §6 "Lock order": applyMu ≻ (snapMu |
	// healMu) ≻ mu ≻ (txnMu | quarMu). In one line each: mu serializes
	// the DDL entry points and runtime reloads; applyMu admits one
	// storage mutator at a time (readers never take it); snapMu keeps
	// snapshot acquisition out of a commit's publication window; healMu
	// is the barrier that drains readers before pages or runtime
	// structures are rebuilt under them (rollback, DDL) — a normal
	// commit never takes it, so open cursors stream across commits.
	mu      sync.Mutex
	applyMu sync.Mutex
	snapMu  sync.RWMutex
	healMu  sync.RWMutex
	opts    Options
	pool    *buffer.Pool
	log     *wal.Log
	cat     *catalog.Catalog

	stores map[segment.ID]*subtuple.Store
	mgrs   map[string]*object.Manager
	flats  map[string]*flat.Store

	live        map[string]tableIndexes // by table (upkeep.go)
	indexByName map[string]*index.Index
	textByName  map[string]*textindex.Index

	exec *exec.Executor

	// decoded is the decode tally every store of the database counts
	// in (subtuple.Config.Decoded), so that a statement's mark reads one
	// counter, however many tables there are, and a store replaced by
	// attachTable takes nothing of the count with it.
	decoded atomic.Uint64

	// lastStmt holds the most recently finished statement's access
	// counters. Queries record it under the shared statement lock, so
	// it is a lock-free slot rather than a mutex-guarded field: the hot
	// path never serializes on statistics bookkeeping, publishing
	// allocates nothing, and LastStmtStats snapshots cannot tear.
	lastStmt stmtSlot

	// quarMu guards the corruption-containment state: the set of
	// quarantined objects and the out-of-service (degraded) indexes.
	// See quarantine.go. A leaf lock.
	quarMu   sync.Mutex
	quar     map[quarKey]*QuarantineError
	degraded map[string]string

	// fatalErr poisons the database after a failed statement rollback:
	// the live state can no longer be trusted, so every subsequent
	// statement returns this error until the database is reopened. An
	// atomic pointer; use fatal()/setFatal.
	fatalErr atomic.Pointer[error]

	// Transaction manager state (see txn.go): the id counter, the
	// active-transaction registry, the in-flight write locks for
	// first-writer-wins conflict detection, and the commit stamps of
	// recently written objects (pruned whenever no transaction is
	// active). All guarded by txnMu, a leaf lock.
	txnMu      sync.Mutex
	nextTxn    uint64
	activeTxns map[uint64]*Txn
	writeLocks keyMap[uint64]
	lastWrite  keyMap[int64]

	// applying is true while a transaction commit replays its buffered
	// ops through the runtime mutators; those calls must not re-enter
	// auto-commit conflict detection. stmtWrites collects the conflict
	// keys an auto-commit statement wrote, published to lastWrite when
	// the statement ends. Both are guarded by applyMu.
	applying   bool
	stmtWrites []wkey

	// Background checkpointer state (see ckpt.go): stop channel, done
	// channel, checkpoint counter and last failure.
	ckptStop    chan struct{}
	ckptDone    chan struct{}
	ckptAtEnd   uint64 // log end when the last checkpoint was written
	checkpoints atomic.Uint64
	ckptErr     atomic.Pointer[string]

	// netCtr is the network front end's counter block, created lazily
	// by NetCounters() when a server attaches (see netstats.go).
	netCtr atomic.Pointer[NetCounters]

	// replCtr is the replication counter block, created lazily by
	// ReplCounters() when a shipper or applier attaches (replstats.go).
	replCtr atomic.Pointer[ReplCounters]

	// epoch is the catalog epoch: every change to what a plan may have
	// bound against — DDL, index create/drop/rebuild, index
	// quarantine/degradation, runtime reload — bumps it, detaching
	// every cached plan (see plancache.go). The epoch is a freshness
	// mechanism, not the safety mechanism: a prepared plan re-resolves
	// its chosen indexes by name at execute time, so even a plan raced
	// by a bump can never touch a detached index.
	epoch atomic.Uint64
	// plans is the shared plan cache, keyed by normalized SQL.
	plans *planCache
}

// CatalogEpoch returns the current catalog epoch. A plan bound under
// an older epoch is stale and must be re-bound before use.
func (db *DB) CatalogEpoch() uint64 { return db.epoch.Load() }

// bumpEpoch advances the catalog epoch, lazily invalidating every
// cached plan.
func (db *DB) bumpEpoch() { db.epoch.Add(1) }

// fatal returns the poison error, if any.
func (db *DB) fatal() error {
	if p := db.fatalErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (db *DB) setFatal(err error) { db.fatalErr.Store(&err) }

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) {
	if opts.PoolPages == 0 {
		opts.PoolPages = 1024
	}
	if opts.DefaultLayout == 0 {
		opts.DefaultLayout = object.SS3
	}
	if opts.Clock == nil {
		opts.Clock = func() int64 { return time.Now().UnixNano() }
	}
	// Snapshot isolation needs strictly increasing timestamps: a
	// snapshot sampled before a commit timestamp was allocated must
	// compare strictly smaller than it. Wrap the supplied clock so
	// every reading is strictly greater than the previous one. The
	// wrapper serializes calls under a mutex — Begin samples the clock
	// from concurrent goroutines, so this also relieves the supplied
	// clock (often a bare counter in tests) of being goroutine-safe.
	{
		base := opts.Clock
		var mu sync.Mutex
		var last int64
		opts.Clock = func() int64 {
			mu.Lock()
			defer mu.Unlock()
			t := base()
			if t <= last {
				t = last + 1
			}
			last = t
			return t
		}
	}
	if opts.Retry.Tries == 0 {
		opts.Retry = segment.DefaultRetry
	}
	pool := buffer.NewPool(opts.PoolPages)
	if opts.PoolShards > 0 {
		pool = buffer.NewPoolShards(opts.PoolPages, opts.PoolShards)
	}
	db := &DB{
		opts:        opts,
		pool:        pool,
		stores:      make(map[segment.ID]*subtuple.Store),
		mgrs:        make(map[string]*object.Manager),
		flats:       make(map[string]*flat.Store),
		live:        make(map[string]tableIndexes),
		indexByName: make(map[string]*index.Index),
		textByName:  make(map[string]*textindex.Index),
		quar:        make(map[quarKey]*QuarantineError),
		degraded:    make(map[string]string),
		activeTxns:  make(map[uint64]*Txn),
		writeLocks:  make(keyMap[uint64]),
		lastWrite:   make(keyMap[int64]),
		plans:       newPlanCache(planCacheLimit),
	}
	if (opts.Dir != "" || opts.OpenWALStorage != nil) && !opts.DisableWAL {
		segBytes := opts.WALSegmentBytes
		if segBytes == 0 {
			segBytes = DefaultWALSegmentBytes
		}
		if segBytes < 0 {
			segBytes = 0
		}
		cfg := wal.Config{SegmentBytes: segBytes, Retry: opts.Retry}
		var log *wal.Log
		var err error
		if opts.OpenWALStorage != nil {
			var st wal.Storage
			st, err = opts.OpenWALStorage()
			if err == nil {
				log, err = wal.OpenStorage(st, cfg)
			}
		} else {
			log, err = wal.OpenDir(opts.Dir, cfg)
		}
		if err != nil {
			return nil, err
		}
		db.log = log
		db.pool.FlushHook = func(_ buffer.PageKey, lsn uint64) error {
			return log.EnsureDurable(lsn) // the write-ahead rule
		}
	}
	if opts.Replica && db.log == nil {
		return nil, errors.New("engine: Options.Replica requires a write-ahead log")
	}
	if err := db.registerSegment(catalog.MetaSegment, false); err != nil {
		db.abandon()
		return nil, err
	}
	if err := db.recover(); err != nil {
		db.abandon()
		return nil, err
	}
	if db.log != nil && opts.CheckpointEvery > 0 && !opts.Replica {
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop(opts.CheckpointEvery)
	}
	return db, nil
}

// recover brings the pages back to the last commit in the WAL and
// rebuilds the runtime from them; Open and statement rollback share
// it. One scan of the log tail (subtuple.ScanTail) names the segments
// the redo pass (subtuple.Recover) replays the tail onto. The holes
// left by aborted allocations are then sealed in every segment, at
// Open after registering the cataloged ones the tail did not name, a
// replica's counters are set from the tail, and the runtime is
// rebuilt. Without a WAL there is nothing to replay: the runtime is
// only reloaded. Callers hold db.mu or own db exclusively.
func (db *DB) recover() error {
	if db.log != nil {
		t, err := subtuple.ScanTail(db.log)
		if err != nil {
			return err
		}
		for _, k := range t.Pages {
			if err := db.registerSegment(k.Seg, false); err != nil {
				return err
			}
		}
		if err := subtuple.Recover(db.log, db.pool, t); err != nil {
			return fmt.Errorf("engine: recovery failed: %w", err)
		}
		// An aborted statement may have allocated pages it never wrote
		// durably; seal those holes so later scans can tell legitimate
		// free pages from zeroed-out committed ones.
		for id := range db.stores {
			if err := db.sealHoles(id); err != nil {
				return err
			}
		}
		if db.cat == nil {
			// At Open, a table whose segment the tail does not name is
			// not registered yet, and its segment may hold a hole too:
			// an allocation aborted before the last checkpoint. The
			// catalog, its own holes sealed, names them all.
			cat, err := catalog.Open(db.stores[catalog.MetaSegment])
			if err != nil {
				return err
			}
			for _, tb := range cat.Tables() {
				if _, ok := db.stores[tb.Seg]; ok {
					continue
				}
				if err := db.registerSegment(tb.Seg, tb.Versioned); err != nil {
					return err
				}
				if err := db.sealHoles(tb.Seg); err != nil {
					return err
				}
			}
		}
		if db.opts.Replica {
			// The applied horizon is the log's end (recovery truncated
			// any torn or uncommitted suffix); the visibility horizon is
			// the newest commit timestamp in the retained tail.
			ctr := db.ReplCounters()
			ctr.Role.Store(RoleReplica)
			if t.CommitTS > 0 {
				ctr.NoteVisible(t.CommitTS)
			}
			ctr.AppliedLSN.Store(db.log.End())
		}
	}
	return db.reloadRuntime()
}

// abandon releases what a failed Open acquired: the log's segment
// files and every registered store. Nothing is flushed — the pages
// and log records of a half-finished recovery must not reach storage.
func (db *DB) abandon() {
	if db.log != nil {
		db.log.Abandon()
	}
	for id := range db.stores {
		if st := db.pool.Store(id); st != nil {
			st.Close()
		}
	}
}

// reloadRuntime (re)builds every in-memory runtime structure from the
// persistent state: the catalog, per-table managers and flat stores,
// and the memory-resident indexes. Open uses it to wire up a fresh
// database; statement abort uses it to discard the in-memory effects
// of a failed statement after the pages have been rolled back to the
// last commit.
func (db *DB) reloadRuntime() error {
	db.mgrs = make(map[string]*object.Manager)
	db.flats = make(map[string]*flat.Store)
	db.live = make(map[string]tableIndexes)
	db.indexByName = make(map[string]*index.Index)
	db.textByName = make(map[string]*textindex.Index)
	cat, err := catalog.Open(db.stores[catalog.MetaSegment])
	if err != nil {
		return err
	}
	db.cat = cat
	// Wire up every cataloged table and rebuild its indexes.
	for _, t := range cat.Tables() {
		if err := db.attachTable(t); err != nil {
			return err
		}
	}
	for _, t := range cat.Tables() {
		if db.opts.Replica {
			// A replica redoes page writes only; it never maintains the
			// memory-resident indexes, and its reads are pinned to a
			// horizon they would not reflect (runtime.Indexes). Promotion
			// rebuilds them from base data.
			break
		}
		for _, def := range cat.Indexes(t.Name) {
			if err := db.buildIndex(def); err != nil {
				// Rebuilding from corrupt base data must not take the
				// whole database down: the index degrades to
				// out-of-service (queries fall back to base-table
				// scans) and aimdoctor can rebuild it later.
				if dberr.IsCorrupt(err) {
					db.noteDegraded(def.Name, err)
					continue
				}
				return err
			}
			db.clearDegraded(def.Name)
		}
	}
	db.exec = &exec.Executor{RT: &runtime{db: db}}
	// The whole runtime was just rebuilt; any plan bound before now may
	// reference stale structures.
	db.bumpEpoch()
	return nil
}

// registerSegment opens the backing store for a segment and creates
// its subtuple store. versioned applies to the subtuple store.
func (db *DB) registerSegment(id segment.ID, versioned bool) error {
	if _, ok := db.stores[id]; ok {
		return nil
	}
	var st segment.Store
	switch {
	case db.opts.OpenStore != nil:
		var err error
		st, err = db.opts.OpenStore(id)
		if err != nil {
			return err
		}
	case db.opts.Dir == "":
		st = segment.NewMemStore()
	default:
		var err error
		st, err = segment.OpenFileStore(filepath.Join(db.opts.Dir, fmt.Sprintf("seg_%d.dat", id)))
		if err != nil {
			return err
		}
	}
	// Transient faults from the backing store are absorbed by bounded
	// retries before they can fail a statement.
	st = segment.WithRetry(st, db.opts.Retry)
	db.pool.Register(id, st)
	db.stores[id] = subtuple.New(subtuple.Config{
		Pool:      db.pool,
		Seg:       id,
		Log:       db.log,
		Versioned: versioned,
		Clock:     db.opts.Clock,
		Decoded:   &db.decoded,
	})
	return nil
}

// attachTable wires the runtime structures for a cataloged table.
func (db *DB) attachTable(t *catalog.Table) error {
	// The store may have been registered during recovery without the
	// versioned flag; recreate it with the right configuration.
	if st, ok := db.stores[t.Seg]; !ok || st.Versioned() != t.Versioned {
		if !ok {
			if err := db.registerSegment(t.Seg, t.Versioned); err != nil {
				return err
			}
		} else {
			db.stores[t.Seg] = subtuple.New(subtuple.Config{
				Pool: db.pool, Seg: t.Seg, Log: db.log,
				Versioned: t.Versioned, Clock: db.opts.Clock, Decoded: &db.decoded,
			})
		}
	}
	st := db.stores[t.Seg]
	if t.Kind == catalog.Flat {
		fs, err := flat.New(st, t.Type)
		if err != nil {
			return err
		}
		db.flats[t.Name] = fs
	} else {
		db.mgrs[t.Name] = object.NewManager(st, object.Layout(t.Layout))
	}
	return nil
}

// Catalog exposes the catalog (read-mostly).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool exposes the buffer pool (for statistics in experiments).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Segments lists the registered segment IDs, the catalog's included
// (for sizing reports in experiments and benchmarks).
func (db *DB) Segments() []segment.ID {
	out := make([]segment.ID, 0, len(db.stores))
	for id := range db.stores {
		out = append(out, id)
	}
	return out
}

// Log exposes the write-ahead log (nil when logging is disabled);
// used by the crash-simulation invariant checker.
func (db *DB) Log() *wal.Log { return db.log }

// Manager returns the complex-object manager of an NF² table.
func (db *DB) Manager(table string) (*object.Manager, bool) {
	m, ok := db.mgrs[table]
	return m, ok
}

// FlatStore returns the store of a flat table.
func (db *DB) FlatStore(table string) (*flat.Store, bool) {
	f, ok := db.flats[table]
	return f, ok
}

// IndexByName returns a live index.
func (db *DB) IndexByName(name string) (*index.Index, bool) {
	ix, ok := db.indexByName[name]
	return ix, ok
}

// TextIndexByName returns a live text index.
func (db *DB) TextIndexByName(name string) (*textindex.Index, bool) {
	ti, ok := db.textByName[name]
	return ti, ok
}

// Now returns the current timestamp from the database clock.
func (db *DB) Now() int64 { return db.opts.Clock() }

// Commit appends a commit record and syncs the log; a no-op for
// in-memory databases. The SQL layer commits after every statement
// (the prototype is single-user with statement-level transactions).
func (db *DB) Commit() error {
	if db.log == nil {
		return nil
	}
	if db.opts.Replica {
		return ErrReadOnlyReplica
	}
	// The commit record carries a timestamp so a replica can publish a
	// visibility horizon covering every version this commit wrote (the
	// clock is strictly increasing: all of them are older).
	if _, err := db.log.Append(&wal.Record{Op: wal.OpCommit, Payload: wal.CommitPayload(0, db.opts.Clock())}); err != nil {
		return err
	}
	return db.log.Sync()
}

// Checkpoint flushes all dirty pages to the segment files. It does
// not write a WAL checkpoint record — the scrubber calls it from
// inside read barriers where the apply lock must not be taken; see
// WALCheckpoint (ckpt.go) for the recovery-bounding fuzzy checkpoint.
func (db *DB) Checkpoint() error { return db.pool.FlushAll() }

// Close checkpoints and closes the database.
func (db *DB) Close() error {
	if db.ckptStop != nil {
		close(db.ckptStop)
		<-db.ckptDone
		db.ckptStop = nil
	}
	if !db.opts.Replica {
		if err := db.Commit(); err != nil {
			return err
		}
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if db.log != nil {
		if err := db.log.Close(); err != nil {
			return err
		}
	}
	for _, st := range db.stores {
		if s := db.pool.Store(st.Segment()); s != nil {
			if err := s.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Runtime exposes the engine's auto-commit runtime: the one a bound
// plan's candidates are evaluated against outside a transaction (planner
// tests call Prepared.Candidates with it).
func (db *DB) Runtime() exec.Runtime { return &runtime{db: db} }

// Executor exposes the auto-commit executor: cached plans are bound with
// it (plan.Prepare), ad hoc statements outside a transaction too
// (plan.Bind), and experiment harnesses toggle its FullPaths flag to
// compare pruned against full-object execution.
func (db *DB) Executor() *exec.Executor { return db.exec }
