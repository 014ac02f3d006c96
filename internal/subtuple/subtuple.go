// Package subtuple implements the AIM-II subtuple manager. A subtuple
// is "the basic storage unit, like a tuple or a record in traditional
// database systems" (§4.1): both data subtuples and MD subtuples of
// complex objects are stored through this layer.
//
// The store provides stable record addresses (TIDs survive growth via
// forwarding stubs), records larger than a page (overflow chains),
// and the time-version support of §5: when a store is versioned,
// updates and deletes keep the previous state reachable through a
// version chain, and ReadAsOf resolves a record as of an instant in
// the past — the machinery behind ASOF queries. This matches the
// paper's note that walk-through-time support lives "at lower system
// levels (subtuple manager)".
package subtuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// Record flag bits (first byte of every stored record).
const (
	fFwd   = 0x01 // body is a 6-byte TID of the relocated record
	fVer   = 0x02 // versioned: varint fromTS + 6-byte prev-version TID
	fTomb  = 0x04 // tombstone of a deleted versioned record
	fLong  = 0x08 // body continues in an overflow chunk chain
	fChunk = 0x10 // this record is an overflow chunk
	fOld   = 0x20 // this record is an old version (not current)
	fMoved = 0x40 // this record is the target of a forwarding stub
)

// maxRecord bounds a single on-page record; larger bodies are split
// into overflow chunks.
const maxRecord = page.Size - 64

// maxLong bounds the declared size of a long (overflow-chained)
// record. Far above anything the engine writes; its job is to keep a
// corrupt length header from driving a giant allocation.
const maxLong = 1 << 30

// ErrNotFound reports a read through a TID that holds no record.
var ErrNotFound = errors.New("subtuple: record not found")

// ErrNotVersioned reports an ASOF read against an unversioned store.
var ErrNotVersioned = errors.New("subtuple: store is not versioned")

// Store manages subtuples within one segment.
type Store struct {
	pool      *buffer.Pool
	seg       segment.ID
	log       *wal.Log
	versioned bool
	clock     func() int64
	keep      int // pages a Reader keeps pinned between views, see keepPinned

	mu         sync.Mutex
	hint       uint32   // last page that accepted an insert
	candidates []uint32 // pages known to have reclaimed space

	nDecoded atomic.Uint64 // records decoded since store creation

	// applyTxn/applyTS are the transaction apply context: while a
	// transaction's write set is applied (always under the engine's
	// exclusive apply lock), every version written is stamped with the
	// creator/deleter transaction id and carries the transaction's
	// single commit timestamp instead of a fresh clock reading — the
	// whole transaction becomes visible to snapshot readers atomically,
	// at one instant. Zero means "no transaction": timestamps come from
	// the clock and versions are stamped txn 0.
	applyTxn atomic.Uint64
	applyTS  atomic.Int64
}

// Config configures a Store.
type Config struct {
	Pool *buffer.Pool
	Seg  segment.ID
	Log  *wal.Log // optional write-ahead log
	// Versioned keeps history on update/delete for ASOF reads.
	Versioned bool
	// Clock supplies version timestamps; required when Versioned.
	Clock func() int64
}

// New creates a store over a registered segment.
func New(cfg Config) *Store {
	s := &Store{pool: cfg.Pool, seg: cfg.Seg, log: cfg.Log, versioned: cfg.Versioned, clock: cfg.Clock,
		keep: keepPinned(cfg.Pool)}
	if s.versioned && s.clock == nil {
		// Deliberately a panic, not an error: this is a construction-time
		// misconfiguration by the embedding code (the engine always
		// supplies a clock), not a condition that can arise from user
		// statements or runtime faults — there is no caller that could
		// meaningfully handle it as an error.
		panic("subtuple: versioned store requires a clock")
	}
	return s
}

// Pool returns the buffer pool the store runs on.
func (s *Store) Pool() *buffer.Pool { return s.pool }

// Segment returns the segment id the store manages.
func (s *Store) Segment() segment.ID { return s.seg }

// Versioned reports whether the store keeps history.
func (s *Store) Versioned() bool { return s.versioned }

// DecodeCount returns the number of subtuple records decoded since
// the store was created. The counter only grows; callers snapshot it
// around a statement to obtain per-statement figures.
func (s *Store) DecodeCount() uint64 { return s.nDecoded.Load() }

// now returns the version timestamp for the current operation: the
// transaction commit timestamp while an apply context is set, a fresh
// clock reading otherwise.
func (s *Store) now() int64 {
	if ts := s.applyTS.Load(); ts != 0 {
		return ts
	}
	return s.clock()
}

// SetApply installs the transaction apply context (see applyTxn).
// Callers must serialize SetApply/ClearApply with all mutating
// operations — the engine does so under its exclusive apply lock.
func (s *Store) SetApply(txn uint64, ts int64) {
	s.applyTxn.Store(txn)
	s.applyTS.Store(ts)
}

// ClearApply removes the transaction apply context.
func (s *Store) ClearApply() {
	s.applyTxn.Store(0)
	s.applyTS.Store(0)
}

// --- low-level page operations, WAL-logged -------------------------

func (s *Store) logAndApply(op wal.Op, pageNo uint32, apply func(p *page.Page) (uint16, error), payload []byte) (uint16, error) {
	key := buffer.PageKey{Seg: s.seg, Page: pageNo}
	f, err := s.pool.Pin(key)
	if err != nil {
		return 0, err
	}
	f.Latch()
	// First modification of a page in a checkpoint era: log a full
	// image of its committed pre-statement state, so bounded recovery
	// can rebuild the page from the checkpoint tail alone if it has to
	// wipe it. A virgin page (nothing ever applied, no slots) needs no
	// image — the wipe reproduces it exactly.
	if s.log != nil && (f.Page.LSN() != 0 || f.Page.NumSlots() != 0) {
		if err := s.log.EnsureImaged(s.seg, pageNo, f.Page.Bytes()); err != nil {
			f.Unlatch()
			s.pool.Unpin(f, false)
			return 0, err
		}
	}
	sl, err := apply(f.Page)
	if err != nil {
		f.Unlatch()
		s.pool.Unpin(f, false)
		return 0, err
	}
	if s.log != nil {
		rec := &wal.Record{Op: op, Seg: s.seg, Page: pageNo, Slot: sl, Payload: payload}
		lsn, err := s.log.Append(rec)
		if err != nil {
			f.Unlatch()
			s.pool.Unpin(f, true)
			return 0, err
		}
		f.Page.SetLSN(lsn)
	}
	f.Unlatch()
	s.pool.Unpin(f, true)
	return sl, nil
}

func (s *Store) pageInsert(pageNo uint32, rec []byte) (uint16, error) {
	return s.logAndApply(wal.OpInsert, pageNo, func(p *page.Page) (uint16, error) {
		return p.Insert(rec)
	}, rec)
}

func (s *Store) pageUpdate(t page.TID, rec []byte) error {
	_, err := s.logAndApply(wal.OpUpdate, t.Page, func(p *page.Page) (uint16, error) {
		return t.Slot, p.Update(t.Slot, rec)
	}, rec)
	return err
}

func (s *Store) pageDelete(t page.TID) error {
	_, err := s.logAndApply(wal.OpDelete, t.Page, func(p *page.Page) (uint16, error) {
		return t.Slot, p.Delete(t.Slot)
	}, nil)
	if err == nil {
		s.noteFreed(t.Page)
	}
	return err
}

func (s *Store) readRaw(t page.TID) ([]byte, error) {
	f, err := s.pool.Pin(buffer.PageKey{Seg: s.seg, Page: t.Page})
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(f, false)
	f.RLatch()
	defer f.RUnlatch()
	if !f.Page.Initialized() {
		// An allocated page can never legitimately revert to the
		// uninitialized (all-zero) state: a reference into one means the
		// page was zeroed underneath us, not that the record is absent.
		return nil, dberr.Corruptf("subtuple: reference %v into uninitialized page %d.%d", t, s.seg, t.Page)
	}
	rec, err := f.Page.Read(t.Slot)
	if err != nil {
		return nil, ErrNotFound
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// --- free-space management -----------------------------------------

func (s *Store) noteFreed(pageNo uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.candidates {
		if c == pageNo {
			return
		}
	}
	if len(s.candidates) < 32 {
		s.candidates = append(s.candidates, pageNo)
	}
}

// AllocatePage reserves and formats a fresh page, returning its
// number.
func (s *Store) AllocatePage() (uint32, error) {
	no, err := s.pool.Allocate(s.seg)
	if err != nil {
		return 0, err
	}
	f, err := s.pool.PinNew(buffer.PageKey{Seg: s.seg, Page: no})
	if err != nil {
		return 0, err
	}
	s.pool.Unpin(f, true)
	return no, nil
}

// PageEmpty reports whether a page holds no live records.
func (s *Store) PageEmpty(pageNo uint32) (bool, error) {
	f, err := s.pool.Pin(buffer.PageKey{Seg: s.seg, Page: pageNo})
	if err != nil {
		return false, err
	}
	defer s.pool.Unpin(f, false)
	f.RLatch()
	defer f.RUnlatch()
	return f.Page.Empty(), nil
}

// FreeOnPage returns the free byte count of a page (a logical page
// access, like the paper's page-list scan).
func (s *Store) FreeOnPage(pageNo uint32) (int, error) {
	f, err := s.pool.Pin(buffer.PageKey{Seg: s.seg, Page: pageNo})
	if err != nil {
		return 0, err
	}
	defer s.pool.Unpin(f, false)
	f.RLatch()
	defer f.RUnlatch()
	return f.Page.FreeSpace(), nil
}

// insertRawAnywhere places an encoded record, trying the insert hint
// and reclaimed-space candidates before allocating a new page.
func (s *Store) insertRawAnywhere(rec []byte) (page.TID, error) {
	s.mu.Lock()
	tries := make([]uint32, 0, 8)
	if s.hint != 0 {
		tries = append(tries, s.hint)
	}
	tries = append(tries, s.candidates...)
	s.mu.Unlock()
	for _, pg := range tries {
		slot, err := s.pageInsert(pg, rec)
		if err == nil {
			s.mu.Lock()
			s.hint = pg
			s.mu.Unlock()
			return page.TID{Page: pg, Slot: slot}, nil
		}
		if !errors.Is(err, page.ErrNoSpace) {
			return page.TID{}, err
		}
	}
	pg, err := s.AllocatePage()
	if err != nil {
		return page.TID{}, err
	}
	slot, err := s.pageInsert(pg, rec)
	if err != nil {
		return page.TID{}, err
	}
	s.mu.Lock()
	s.hint = pg
	s.mu.Unlock()
	return page.TID{Page: pg, Slot: slot}, nil
}

// --- record encoding ------------------------------------------------

// encodeBody wraps a payload with version header and, when too large,
// spills it into an overflow chain. extraFlags is fOld for version
// records. txn is the creating (or, for tombstones, deleting)
// transaction id stamped into the version header; 0 for writes
// outside any transaction.
func (s *Store) encodeBody(payload []byte, versioned bool, fromTS int64, txn uint64, prev page.TID, extraFlags byte) ([]byte, error) {
	hdr := []byte{extraFlags}
	if versioned {
		hdr[0] |= fVer
		hdr = binary.AppendVarint(hdr, fromTS)
		hdr = binary.AppendUvarint(hdr, txn)
		hdr = page.AppendTID(hdr, prev)
	}
	if len(hdr)+len(payload) <= maxRecord {
		return append(hdr, payload...), nil
	}
	// Long record: spill the payload into chunks, newest-first so each
	// chunk can point at the next.
	chunkData := maxRecord - 1 - page.EncodedTIDLen
	next := page.TID{}
	for off := ((len(payload) - 1) / chunkData) * chunkData; off >= 0; off -= chunkData {
		end := off + chunkData
		if end > len(payload) {
			end = len(payload)
		}
		chunk := []byte{fChunk}
		chunk = page.AppendTID(chunk, next)
		chunk = append(chunk, payload[off:end]...)
		t, err := s.insertRawAnywhere(chunk)
		if err != nil {
			return nil, err
		}
		next = t
	}
	hdr[0] |= fLong
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = page.AppendTID(hdr, next)
	return hdr, nil
}

// decoded is a parsed record header plus its payload.
type decoded struct {
	flags   byte
	fromTS  int64
	txn     uint64 // creator (tombstones: deleter) transaction id
	prev    page.TID
	payload []byte // the bytes after the header; for fLong records, see readLong
	// fLong records only: declared payload length and first chunk.
	total uint64
	first page.TID
}

// decodeHeader parses the record's header without copying anything:
// payload aliases rec. For an fLong record payload is nil and
// total/first describe the overflow chain, which readLong assembles.
// This is the one place a record counts as decoded.
func (s *Store) decodeHeader(rec []byte) (decoded, error) {
	if len(rec) == 0 {
		return decoded{}, dberr.Corruptf("subtuple: empty record")
	}
	s.nDecoded.Add(1)
	d := decoded{flags: rec[0]}
	p := rec[1:]
	if d.flags&fVer != 0 {
		ts, n := binary.Varint(p)
		if n <= 0 {
			return decoded{}, dberr.Corruptf("subtuple: corrupt version header")
		}
		d.fromTS = ts
		p = p[n:]
		txn, n := binary.Uvarint(p)
		if n <= 0 {
			return decoded{}, dberr.Corruptf("subtuple: corrupt version header")
		}
		d.txn = txn
		p = p[n:]
		prev, err := page.DecodeTID(p)
		if err != nil {
			return decoded{}, err
		}
		d.prev = prev
		p = p[page.EncodedTIDLen:]
	}
	if d.flags&fLong == 0 {
		d.payload = p
		return d, nil
	}
	total, n := binary.Uvarint(p)
	if n <= 0 {
		return decoded{}, dberr.Corruptf("subtuple: corrupt long header")
	}
	first, err := page.DecodeTID(p[n:])
	if err != nil {
		return decoded{}, err
	}
	if total > maxLong {
		return decoded{}, dberr.Corruptf("subtuple: long record declares %d bytes", total)
	}
	d.total, d.first = total, first
	return d, nil
}

// readLong assembles the payload of an fLong record from its overflow
// chain, copying every chunk out of its page. The caller holds no
// frame latch.
func (s *Store) readLong(d decoded) ([]byte, error) {
	payload := make([]byte, 0, d.total)
	cur := d.first
	for !cur.Nil() {
		raw, err := s.readRaw(cur)
		if err != nil {
			return nil, broken("overflow chain", err)
		}
		if len(raw) <= 1+page.EncodedTIDLen || raw[0]&fChunk == 0 {
			return nil, dberr.Corruptf("subtuple: overflow chain hit non-chunk record")
		}
		next, err := page.DecodeTID(raw[1:])
		if err != nil {
			return nil, err
		}
		payload = append(payload, raw[1+page.EncodedTIDLen:]...)
		// Chunks are non-empty, so this also bounds a cyclic chain.
		if uint64(len(payload)) > d.total {
			return nil, dberr.Corruptf("subtuple: overflow chain exceeds declared length %d", d.total)
		}
		cur = next
	}
	if uint64(len(payload)) != d.total {
		return nil, dberr.Corruptf("subtuple: overflow chain length %d, want %d", len(payload), d.total)
	}
	return payload, nil
}

// decode parses a record copied out of its page (readRaw, resolve)
// and resolves its overflow chain: the copying form the write path
// works on, and the reference the in-place Reader is tested against.
func (s *Store) decode(rec []byte) (decoded, error) {
	d, err := s.decodeHeader(rec)
	if err != nil || d.flags&fLong == 0 {
		return d, err
	}
	d.payload, err = s.readLong(d)
	return d, err
}

// freeOverflow releases the chunks of a long record.
func (s *Store) freeOverflow(rec []byte) error {
	if len(rec) == 0 || rec[0]&fLong == 0 {
		return nil
	}
	p := rec[1:]
	if rec[0]&fVer != 0 {
		_, n := binary.Varint(p)
		p = p[n:]
		_, n = binary.Uvarint(p) // txn stamp
		p = p[n+page.EncodedTIDLen:]
	}
	_, n := binary.Uvarint(p)
	p = p[n:]
	cur, err := page.DecodeTID(p)
	if err != nil {
		return err
	}
	for !cur.Nil() {
		raw, err := s.readRaw(cur)
		if err != nil {
			return err
		}
		next, err := page.DecodeTID(raw[1:])
		if err != nil {
			return err
		}
		if err := s.pageDelete(cur); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// broken reports the failed read of a record that another record
// points at. The pointer promised a record, so a dangling chunk or
// version reference is lost data — classified corruption — however the
// read failed (missing record, unallocated page). The one exception is
// a pool out of frames, which says nothing about the record.
func broken(chain string, err error) error {
	switch {
	case errors.Is(err, buffer.ErrExhausted):
		return err
	case dberr.IsCorrupt(err):
		return fmt.Errorf("subtuple: broken %s: %w", chain, err)
	}
	return dberr.Corruptf("subtuple: broken %s: %v", chain, err)
}

// resolve follows forwarding stubs from the anchor and returns the
// physical location plus a copy of the raw record found there, for the
// write path to rewrite.
func (s *Store) resolve(t page.TID) (page.TID, []byte, error) {
	r := s.single()
	defer r.Release()
	loc, rec, err := r.resolve(t)
	if err != nil {
		return page.TID{}, nil, err
	}
	return loc, append([]byte(nil), rec...), nil
}

// --- public record operations ---------------------------------------

// Insert stores a new subtuple anywhere in the segment and returns
// its stable TID.
func (s *Store) Insert(data []byte) (page.TID, error) {
	rec, err := s.encodeBody(data, s.versioned, s.tsOrZero(), s.applyTxn.Load(), page.TID{}, 0)
	if err != nil {
		return page.TID{}, err
	}
	return s.insertRawAnywhere(rec)
}

func (s *Store) tsOrZero() int64 {
	if s.versioned {
		return s.now()
	}
	return 0
}

// InsertOnPage stores a new subtuple on the given page, returning
// page.ErrNoSpace when it does not fit — the primitive behind the
// complex-object clustering strategy of §4.1 (try the object's own
// pages first).
func (s *Store) InsertOnPage(pageNo uint32, data []byte) (page.TID, error) {
	rec, err := s.encodeBody(data, s.versioned, s.tsOrZero(), s.applyTxn.Load(), page.TID{}, 0)
	if err != nil {
		return page.TID{}, err
	}
	slot, err := s.pageInsert(pageNo, rec)
	if err != nil {
		return page.TID{}, err
	}
	return page.TID{Page: pageNo, Slot: slot}, nil
}

// Read returns the current payload of the subtuple, copied out of its
// page: a one-record Reader view for callers that keep the bytes (the
// write path, the catalog, scrub and doctor).
func (s *Store) Read(t page.TID) ([]byte, error) {
	data, ok, err := s.ReadAsOf(t, Current)
	if err == nil && !ok {
		err = ErrNotFound
	}
	return data, err
}

// ReadAsOf returns the payload of the subtuple as of instant ts,
// copied out of its page. The boolean reports whether the subtuple
// existed at that time.
func (s *Store) ReadAsOf(t page.TID, ts int64) ([]byte, bool, error) {
	r := s.single()
	defer r.Release()
	p, ok, err := r.View(t, ts)
	if err != nil || !ok {
		return nil, false, err
	}
	if r.latched != nil {
		p = append([]byte(nil), p...)
	}
	return p, true, nil
}

// Update replaces the subtuple's payload. The TID stays valid: if the
// grown record no longer fits on its page it is relocated and a
// forwarding stub is left behind. In a versioned store the previous
// payload is preserved as an old version.
func (s *Store) Update(t page.TID, data []byte) error {
	loc, raw, err := s.resolve(t)
	if err != nil {
		return err
	}
	old, err := s.decode(raw)
	if err != nil {
		return err
	}
	if old.flags&fTomb != 0 {
		return ErrNotFound
	}
	prev := page.TID{}
	fromTS := int64(0)
	if s.versioned {
		// Preserve the old payload as an fOld version record, keeping
		// its original creator transaction stamp.
		oldRec, err := s.encodeBody(old.payload, true, old.fromTS, old.txn, old.prev, fOld)
		if err != nil {
			return err
		}
		prev, err = s.insertRawAnywhere(oldRec)
		if err != nil {
			return err
		}
		fromTS = s.now()
	}
	moved := old.flags & fMoved
	rec, err := s.encodeBody(data, s.versioned, fromTS, s.applyTxn.Load(), prev, moved)
	if err != nil {
		return err
	}
	err = s.pageUpdate(loc, rec)
	if errors.Is(err, page.ErrNoSpace) {
		// Relocate and leave (or retarget) a forwarding stub.
		rec2, err2 := s.encodeBody(data, s.versioned, fromTS, s.applyTxn.Load(), prev, moved|fMoved)
		if err2 != nil {
			return err2
		}
		nt, err2 := s.insertRawAnywhere(rec2)
		if err2 != nil {
			return err2
		}
		stub := page.AppendTID([]byte{fFwd}, nt)
		if err2 := s.pageUpdate(loc, stub); err2 != nil {
			return err2
		}
		// The old head's overflow chunks are released only after the new
		// head is in place, narrowing the window in which a concurrent
		// snapshot reader holding the old head bytes could chase freed
		// chunks (the old payload itself lives on in the version record).
		return s.freeOverflow(raw)
	}
	if err != nil {
		return err
	}
	return s.freeOverflow(raw)
}

// Delete removes the subtuple. In a versioned store a tombstone keeps
// the history reachable for ASOF reads; otherwise the record (and any
// forwarding stub or overflow chain) is physically removed.
func (s *Store) Delete(t page.TID) error {
	loc, raw, err := s.resolve(t)
	if err != nil {
		return err
	}
	old, err := s.decode(raw)
	if err != nil {
		return err
	}
	if old.flags&fTomb != 0 {
		return ErrNotFound
	}
	if s.versioned {
		oldRec, err := s.encodeBody(old.payload, true, old.fromTS, old.txn, old.prev, fOld)
		if err != nil {
			return err
		}
		prev, err := s.insertRawAnywhere(oldRec)
		if err != nil {
			return err
		}
		tomb := []byte{fVer | fTomb | (old.flags & fMoved)}
		tomb = binary.AppendVarint(tomb, s.now())
		tomb = binary.AppendUvarint(tomb, s.applyTxn.Load())
		tomb = page.AppendTID(tomb, prev)
		if err := s.pageUpdate(loc, tomb); err != nil {
			return err
		}
		// Free the old head's overflow chain only once the tombstone is
		// in place (the payload survives in the version record).
		return s.freeOverflow(raw)
	}
	if err := s.freeOverflow(raw); err != nil {
		return err
	}
	if loc != t {
		if err := s.pageDelete(t); err != nil { // the stub
			return err
		}
	}
	return s.pageDelete(loc)
}

// PageCount returns the number of allocated pages in the segment.
func (s *Store) PageCount() uint32 {
	st := s.pool.Store(s.seg)
	if st == nil {
		return 0
	}
	return st.PageCount()
}

// Exists reports whether the subtuple currently exists.
func (s *Store) Exists(t page.TID) bool {
	_, err := s.Read(t)
	return err == nil
}

// Scan streams every current subtuple in the segment exactly once,
// under its anchor TID for records that were never moved and under
// the physical TID for moved ones (the anchor resolves to the same
// record). It is a loop over a Cursor, so the payload handed to fn is
// valid only during the call.
func (s *Store) Scan(fn func(t page.TID, data []byte) error) error {
	c, err := s.NewCursor()
	if err != nil {
		return err
	}
	defer c.Close()
	for {
		t, data, ok, err := c.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(t, data); err != nil {
			return err
		}
	}
}

// Commit appends a commit record and forces the log to stable
// storage. A no-op without a WAL.
func (s *Store) Commit() error {
	if s.log == nil {
		return nil
	}
	if _, err := s.log.Append(&wal.Record{Op: wal.OpCommit}); err != nil {
		return err
	}
	return s.log.Sync()
}

// Version is one state in a subtuple's history.
type Version struct {
	FromTS  int64
	Txn     uint64 // transaction that created this state (0 = none recorded)
	Payload []byte
	Deleted bool // tombstone: the subtuple did not exist from FromTS on
}

// readPrev reads one step of a version chain for History.
func (s *Store) readPrev(t page.TID) (decoded, error) {
	raw, err := s.readRaw(t)
	if err != nil {
		return decoded{}, broken("version chain", err)
	}
	return s.decode(raw)
}

// History returns the subtuple's versions, newest first — the
// "walk-through-time" access the paper supports at the subtuple
// manager level (§5) without exposing it at the language interface.
func (s *Store) History(t page.TID) ([]Version, error) {
	_, raw, err := s.resolve(t)
	if err != nil {
		return nil, err
	}
	d, err := s.decode(raw)
	if err != nil {
		return nil, err
	}
	if d.flags&fVer == 0 {
		return []Version{{Payload: d.payload}}, nil
	}
	var out []Version
	seen := make(map[page.TID]bool)
	for {
		v := Version{FromTS: d.fromTS, Txn: d.txn, Deleted: d.flags&fTomb != 0}
		if !v.Deleted {
			v.Payload = d.payload
		}
		out = append(out, v)
		if d.prev.Nil() {
			return out, nil
		}
		if seen[d.prev] {
			return nil, dberr.Corruptf("subtuple: version chain cycle at %v", d.prev)
		}
		seen[d.prev] = true
		d, err = s.readPrev(d.prev)
		if err != nil {
			return nil, err
		}
	}
}
