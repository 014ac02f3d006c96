package engine

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/flat"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/subtuple"
)

// The one read path. Every stored-table read — FROM items, stored-table
// quantifiers, index candidates, a transaction's base images, crashsim,
// scrub — is an OpenScan or an OpenRef on a runtime:
//
//	flatCursor | objectCursor (over dirCursor)   stored state at snap.pin
//	txnScanCursor                                only when snap.overlay
//
// A cursor pins buffer pages only inside a single Next call, so an
// abandoned cursor (one never Closed) holds no pool resources — the
// pinned-page invariant the statement layer relies on.
//
// What a scan does with an object it cannot read is decided here once:
// corruption (of the object, or of a directory chunk) fails the scan
// with a typed *QuarantineError, never a silently shortened result; an
// object listed in a directory chunk that is absent at the read instant
// — nonexistent at asof, or deleted since the chunk was read, which the
// per-Next statement lock of a Rows cursor allows — is skipped:
// read-committed-per-row. Any other error fails the scan as it is. An
// object that fails the path set's pre-test is no error at all: it is
// skipped, or handed to a transaction's overlay (objectCursor).

// OpenScan implements exec.Runtime: it opens a pull cursor over the
// table, fetching only the paths in ps of each complex object (nil =
// full objects; flat tables are one data subtuple and ignore ps). With
// reuse the objects are read through one arena whose containers the
// next object overwrites; a transaction's overlay scan keeps them
// fresh.
func (r *runtime) OpenScan(t *catalog.Table, asof int64, ps *object.PathSet, reuse bool) (exec.ScanCursor, error) {
	db, tx := r.db, r.snap.overlay(asof)
	asof = r.snap.pin(t, asof)
	if err := db.quarCheck(t.Name, page.TID{}); err != nil {
		return nil, err
	}
	var sc exec.ScanCursor
	if t.Kind == catalog.Flat {
		fc, err := db.flats[t.Name].NewCursor(asof)
		if err != nil {
			return nil, db.guardRead(t.Name, page.TID{}, err)
		}
		sc = &flatCursor{db: db, table: t.Name, c: fc}
	} else {
		sc = &objectCursor{db: db, t: t, ar: db.mgrs[t.Name].NewArena(reuse && tx == nil), asof: asof, ps: ps, dir: db.openDir(t, asof), keepRejected: tx != nil}
	}
	if tx != nil {
		sc = tx.overlayScan(t, sc)
	}
	return sc, nil
}

// OpenRef implements exec.Runtime: it reads one tuple by reference,
// pruned to ps, through an arena of its own; with reuse it builds
// nothing ps does not request (object.NewArena). Buffered images are
// returned whole; projection pruning is an optimization for stored
// objects only.
func (r *runtime) OpenRef(t *catalog.Table, ref page.TID, asof int64, ps *object.PathSet, reuse bool) (model.Tuple, error) {
	db, tx := r.db, r.snap.overlay(asof)
	if tx != nil {
		if p, ok := tx.pending[wkey{t.Name, ref}]; ok {
			if p.deleted {
				return nil, subtuple.ErrNotFound
			}
			return p.tup.Clone(), nil
		}
		if ref.Page >= synthBase {
			return nil, subtuple.ErrNotFound
		}
	}
	asof = r.snap.pin(t, asof)
	if err := db.quarCheck(t.Name, ref); err != nil {
		return nil, err
	}
	if t.Kind == catalog.Complex {
		tup, err := db.mgrs[t.Name].NewArena(reuse && tx == nil).ReadPruned(t.Type, ref, asof, ps)
		return tup, db.guardRead(t.Name, ref, err)
	}
	fs := db.flats[t.Name]
	if asof == 0 {
		tup, err := fs.Read(ref)
		return tup, db.guardRead(t.Name, ref, err)
	}
	tup, ok, err := fs.ReadAsOf(ref, asof)
	if err != nil {
		return nil, db.guardRead(t.Name, ref, err)
	}
	if !ok {
		// Absent at the instant, as ReadPruned reports an object: a
		// candidate read skips it (a transaction's index candidates
		// include tuples inserted after its snapshot).
		return nil, fmt.Errorf("engine: tuple %v did not exist at %d: %w", ref, asof, subtuple.ErrNotFound)
	}
	return tup, nil
}

// flatCursor adapts a flat-store cursor to exec.ScanCursor.
type flatCursor struct {
	db    *DB
	table string
	c     *flat.Cursor
}

func (fc *flatCursor) Next() (page.TID, model.Tuple, bool, error) {
	tid, tup, ok, err := fc.c.Next()
	if err != nil {
		return page.TID{}, nil, false, fc.db.guardRead(fc.table, page.TID{}, err)
	}
	if ok {
		if err := fc.db.quarCheck(fc.table, tid); err != nil {
			return page.TID{}, nil, false, err
		}
	}
	return tid, tup, ok, nil
}
func (fc *flatCursor) Close() error { return fc.c.Close() }

// objectCursor streams the complex objects of a table: a lazy walk of
// the directory chunk chain supplies the roots, each fetched pruned.
// An object whose stored version fails the path set's pre-test is
// skipped — unless a transaction's overlay sits on top (keepRejected):
// the transaction may have rewritten the object so that it passes, and
// the overlay only substitutes its image for refs the cursor yields, so
// the ref is yielded with a nil tuple for the overlay to decide on. All
// objects are read through one arena (object.Arena).
type objectCursor struct {
	db           *DB
	t            *catalog.Table
	ar           *object.Arena
	asof         int64
	ps           *object.PathSet
	dir          dirCursor
	keepRejected bool
}

func (oc *objectCursor) Next() (page.TID, model.Tuple, bool, error) {
	for {
		ref, ok, err := oc.dir.next()
		if err != nil {
			// Chunk-chain corruption quarantines the table's scans.
			return page.TID{}, nil, false, oc.db.guardDir(oc.t.Name, err)
		}
		if !ok {
			return page.TID{}, nil, false, nil
		}
		if err := oc.db.quarCheck(oc.t.Name, ref); err != nil {
			return page.TID{}, nil, false, err
		}
		tup, err := oc.ar.ReadPruned(oc.t.Type, ref, oc.asof, oc.ps)
		if err != nil {
			if dberr.IsCorrupt(err) {
				// A broken object must fail the scan loudly, never read
				// as "absent at asof" or "deleted meanwhile".
				return page.TID{}, nil, false, oc.db.guardRead(oc.t.Name, ref, err)
			}
			if oc.asof != 0 || errors.Is(err, subtuple.ErrNotFound) {
				continue // nonexistent at asof, or deleted since the chunk was read
			}
			return page.TID{}, nil, false, err
		}
		if tup == nil && !oc.keepRejected {
			continue // ruled out by the pre-test
		}
		return ref, tup, true, nil
	}
}

func (oc *objectCursor) Close() error {
	oc.dir.done = true
	return nil
}

// dirCursor walks the directory chunk chain lazily, one chunk per
// load: chunk next pointers never change after creation, so the chain
// can be followed without holding anything across calls. Objects
// added after the cursor started (always at a new head chunk) are not
// seen; removals from an already-read chunk are handled by the
// caller's skip-on-ErrNotFound.
type dirCursor struct {
	st   *subtuple.Store
	cur  page.TID
	asof int64
	refs []page.TID
	i    int
	done bool
}

// openDir starts a walk of the table's directory as of an instant
// (0 = current).
func (db *DB) openDir(t *catalog.Table, asof int64) dirCursor {
	return dirCursor{st: db.stores[t.Seg], cur: t.DirHead, asof: asof}
}

// dirRefs lists the object roots currently in the table's directory.
func (db *DB) dirRefs(t *catalog.Table) ([]page.TID, error) {
	dc := db.openDir(t, 0)
	var refs []page.TID
	for {
		ref, ok, err := dc.next()
		if err != nil || !ok {
			return refs, err
		}
		refs = append(refs, ref)
	}
}

func (dc *dirCursor) next() (page.TID, bool, error) {
	for {
		if dc.done {
			return page.TID{}, false, nil
		}
		if dc.i < len(dc.refs) {
			r := dc.refs[dc.i]
			dc.i++
			return r, true, nil
		}
		if dc.cur.Nil() {
			dc.done = true
			return page.TID{}, false, nil
		}
		if err := dc.loadChunk(); err != nil {
			return page.TID{}, false, err
		}
	}
}

// loadChunk reads the chunk at dc.cur and advances the chain. A chunk
// that did not exist at asof contributes no refs, but older chunks
// further down the chain may have existed; next pointers are immutable,
// so its current version is read just to follow the chain.
func (dc *dirCursor) loadChunk() error {
	var (
		raw []byte
		ok  bool
		err error
	)
	if dc.asof != 0 {
		raw, ok, err = dc.st.ReadAsOf(dc.cur, dc.asof)
		if err != nil {
			return err
		}
	}
	skip := dc.asof != 0 && !ok
	if !ok {
		raw, err = dc.st.Read(dc.cur)
		if err != nil {
			return err
		}
	}
	next, refs, err := decodeDirChunk(raw)
	if err != nil {
		return err
	}
	if skip {
		refs = nil
	}
	dc.cur, dc.refs, dc.i = next, refs, 0
	return nil
}

// txnScanCursor overlays a transaction's buffered writes onto a
// stored-table cursor: committed tuples stream through (substituted or
// suppressed when the transaction wrote them), then the transaction's
// own inserts follow. A committed object that failed the pre-test comes
// through as a nil tuple: its buffered image, if any, replaces it, and
// otherwise it is dropped here.
type txnScanCursor struct {
	tx    *Txn
	t     *catalog.Table
	under exec.ScanCursor // nil once exhausted
	pend  []page.TID
	i     int
}

// overlayScan wraps a stored-table cursor with the transaction's
// buffered writes. The synthetic refs are snapshotted now; entries stay
// in tx.order for the transaction's lifetime, and deletes are
// re-checked per Next.
func (tx *Txn) overlayScan(t *catalog.Table, under exec.ScanCursor) exec.ScanCursor {
	var pend []page.TID
	for _, k := range tx.order {
		if k.table == t.Name && k.ref.Page >= synthBase {
			pend = append(pend, k.ref)
		}
	}
	return &txnScanCursor{tx: tx, t: t, under: under, pend: pend}
}

func (c *txnScanCursor) Next() (page.TID, model.Tuple, bool, error) {
	for c.under != nil {
		ref, tup, ok, err := c.under.Next()
		if err != nil {
			return page.TID{}, nil, false, err
		}
		if !ok {
			c.under.Close()
			c.under = nil
			break
		}
		if p, hit := c.tx.pending[wkey{c.t.Name, ref}]; hit {
			if p.deleted {
				continue
			}
			return ref, p.tup.Clone(), true, nil
		}
		if tup == nil {
			continue // the stored version failed the pre-test, and is all there is
		}
		return ref, tup, true, nil
	}
	for c.i < len(c.pend) {
		ref := c.pend[c.i]
		c.i++
		p := c.tx.pending[wkey{c.t.Name, ref}]
		if p == nil || p.deleted {
			continue
		}
		return ref, p.tup.Clone(), true, nil
	}
	return page.TID{}, nil, false, nil
}

func (c *txnScanCursor) Close() error {
	if c.under != nil {
		err := c.under.Close()
		c.under = nil
		return err
	}
	return nil
}

// --- per-statement access statistics ------------------------------------

// StmtStats are the physical access counters of one statement: buffer
// pool activity plus the number of subtuples decoded. They make the
// projection-pushdown win observable per query (EXPLAIN prints them).
type StmtStats struct {
	// Fetches is the number of page pin requests (logical accesses).
	Fetches uint64
	// Hits is how many fetches were served from the pool.
	Hits uint64
	// Reads is the number of physical page reads.
	Reads uint64
	// Decoded is the number of subtuple records decoded.
	Decoded uint64
	// Rows is the number of result rows produced (queries only).
	Rows int
}

func (s StmtStats) String() string {
	return fmt.Sprintf("pages fetched %d (hits %d, physical reads %d), subtuples decoded %d, rows %d",
		s.Fetches, s.Hits, s.Reads, s.Decoded, s.Rows)
}

// statsMark is a snapshot of the cumulative counters at a point in
// time; subtracting two marks yields a StmtStats delta.
type statsMark struct {
	fetches, hits, reads, decoded uint64
}

// mark snapshots the cumulative access counters.
func (db *DB) mark() statsMark {
	bs := db.pool.Stats()
	return statsMark{fetches: bs.Fetches, hits: bs.Hits, reads: bs.Reads, decoded: db.DecodeCount()}
}

// since computes the per-statement counters accumulated after m.
func (db *DB) since(m statsMark) StmtStats {
	n := db.mark()
	return StmtStats{
		Fetches: n.fetches - m.fetches,
		Hits:    n.hits - m.hits,
		Reads:   n.reads - m.reads,
		Decoded: n.decoded - m.decoded,
	}
}

// DecodeCount returns the subtuple records decoded across all stores
// since the engine was opened: the one tally they share.
func (db *DB) DecodeCount() uint64 { return db.decoded.Load() }

// noteStmtStats records the counters of the most recently finished
// statement (retrievable with LastStmtStats), without allocating.
func (db *DB) noteStmtStats(s StmtStats) { db.lastStmt.store(s) }

// LastStmtStats returns the access counters of the most recently
// completed statement (for queries consumed through a Rows cursor,
// the statement completes at Close).
func (db *DB) LastStmtStats() StmtStats { return db.lastStmt.load() }

// stmtSlot publishes one statement's counters in place, as a seqlock:
// seq is odd while a statement writes the fields, and a reader retries
// until it has read them all between two equal even values, so it never
// sees a torn mix of two statements. A statement that finds another one
// writing leaves the slot to it: two statements that finish at once
// have no order for "the most recent" to keep.
type stmtSlot struct {
	seq                                 atomic.Uint64
	fetches, hits, reads, decoded, rows atomic.Uint64
}

func (s *stmtSlot) store(st StmtStats) {
	q := s.seq.Load()
	if q&1 != 0 || !s.seq.CompareAndSwap(q, q+1) {
		return
	}
	s.fetches.Store(st.Fetches)
	s.hits.Store(st.Hits)
	s.reads.Store(st.Reads)
	s.decoded.Store(st.Decoded)
	s.rows.Store(uint64(st.Rows))
	s.seq.Store(q + 2)
}

func (s *stmtSlot) load() StmtStats {
	for {
		q := s.seq.Load()
		if q&1 == 0 {
			st := StmtStats{
				Fetches: s.fetches.Load(), Hits: s.hits.Load(), Reads: s.reads.Load(),
				Decoded: s.decoded.Load(), Rows: int(s.rows.Load()),
			}
			if s.seq.Load() == q {
				return st
			}
		}
		goruntime.Gosched()
	}
}
