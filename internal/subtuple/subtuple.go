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
	fMoved = 0x40 // relocated: the target of a forwarding stub, or a stub that is not the anchor
	fJump  = 0x80 // old version with an older one: depth, jump length, jump TID and jump fromTS follow prev
)

// OffPage returns the first slot of a page image whose current record
// keeps part of itself elsewhere in the segment: a forwarding stub, or
// the head of an overflow chain. Records placed anywhere in the segment
// by relocation, versioning or spilling (fMoved, fOld, fChunk) are
// skipped; the stub or head that reaches them is what counts. Page-level
// checkout copies an object's own pages only, so it can move an object
// only when none of them holds such a record.
func OffPage(img []byte) (slot uint16, found bool) {
	p := page.View(img)
	for i := 0; i < p.NumSlots(); i++ {
		rec, err := p.Read(uint16(i))
		if err != nil || len(rec) == 0 || rec[0]&(fMoved|fOld|fChunk) != 0 {
			continue
		}
		if rec[0]&(fFwd|fLong) != 0 {
			return uint16(i), true
		}
	}
	return 0, false
}

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

	mu         sync.Mutex
	hint       uint32   // last page that accepted an insert
	candidates []uint32 // pages known to have reclaimed space

	// decoded counts the records decoded since store creation: own, or
	// the tally Config.Decoded names.
	decoded *atomic.Uint64
	own     atomic.Uint64

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
	// Decoded is the tally the store counts its decoded records in, which
	// stores may share (an engine counts all its tables in one); nil
	// gives the store a tally of its own.
	Decoded *atomic.Uint64
}

// New creates a store over a registered segment.
func New(cfg Config) *Store {
	s := &Store{pool: cfg.Pool, seg: cfg.Seg, log: cfg.Log, versioned: cfg.Versioned, clock: cfg.Clock, decoded: cfg.Decoded}
	if s.decoded == nil {
		s.decoded = &s.own
	}
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
// the store was created — in all the stores that share its tally
// (Config.Decoded). The counter only grows; callers snapshot it around
// a statement to obtain per-statement figures. A Reader's decodes count
// from its Done on.
func (s *Store) DecodeCount() uint64 { return s.decoded.Load() }

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

// readRaw copies one raw record out of its page.
func (s *Store) readRaw(t page.TID) ([]byte, error) {
	r := s.Reader()
	defer r.Done()
	rec, err := r.record(t)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), rec...), nil
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

// encodeBody encodes the record of header h and payload. h.flags
// selects the header fields written: fVer the version fields (fromTS,
// the creating — for tombstones, deleting — transaction id, 0 outside
// any transaction, and prev), fJump the jump pointer of an old version.
// A payload too large for one page spills into an overflow chain and
// the record gains fLong.
func (s *Store) encodeBody(h decoded, payload []byte) ([]byte, error) {
	hdr := []byte{h.flags}
	if h.flags&fVer != 0 {
		hdr = binary.AppendVarint(hdr, h.fromTS)
		hdr = binary.AppendUvarint(hdr, h.txn)
		hdr = page.AppendTID(hdr, h.prev)
	}
	if h.flags&fJump != 0 {
		hdr = binary.AppendUvarint(hdr, h.depth)
		hdr = binary.AppendUvarint(hdr, h.jumpLen)
		hdr = page.AppendTID(hdr, h.jump)
		hdr = binary.AppendVarint(hdr, h.fromTS-h.jumpTS)
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
	// fJump records only: the skew-binary jump pointer (see link). An
	// old version without one is the oldest: depth 0, no prev.
	depth   uint64   // versions older than this one
	jumpLen uint64   // depth minus the jump target's depth, 1..depth
	jump    page.TID // the jump target
	jumpTS  int64    // the jump target's fromTS
	// fLong records only: declared payload length and first chunk.
	total uint64
	first page.TID
}

// decodeHeader is parseHeader for a record read by copying: it counts
// the record as decoded at once. A Reader counts the records it parses
// in a tally of its own and publishes it at Done.
func (s *Store) decodeHeader(rec []byte) (decoded, error) {
	if len(rec) > 0 {
		s.decoded.Add(1)
	}
	return parseHeader(rec)
}

// parseHeader parses the record's header without copying anything:
// payload aliases rec. For an fLong record payload is nil and
// total/first describe the overflow chain, which readLong assembles.
// Every non-empty record it is given counts as decoded, by its caller.
func parseHeader(rec []byte) (decoded, error) {
	if len(rec) == 0 {
		return decoded{}, dberr.Corruptf("subtuple: empty record")
	}
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
	if d.flags&fJump != 0 {
		var err error
		if p, err = d.decodeJump(p); err != nil {
			return decoded{}, err
		}
	} else if d.flags&fOld != 0 && !d.prev.Nil() {
		return decoded{}, dberr.Corruptf("subtuple: old version with a previous version has no jump pointer")
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

// decodeJump parses the jump pointer that follows prev in an fJump
// record and returns the rest of the record. Only an old version with
// an older one carries it, and its jump stays inside the chain below.
func (d *decoded) decodeJump(p []byte) ([]byte, error) {
	if d.flags&(fVer|fOld) != fVer|fOld || d.prev.Nil() {
		return nil, dberr.Corruptf("subtuple: jump pointer on a record that is not an old version with a previous one")
	}
	depth, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, dberr.Corruptf("subtuple: corrupt jump header")
	}
	p = p[n:]
	jumpLen, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, dberr.Corruptf("subtuple: corrupt jump header")
	}
	p = p[n:]
	jump, err := page.DecodeTID(p)
	if err != nil {
		return nil, err
	}
	p = p[page.EncodedTIDLen:]
	delta, n := binary.Varint(p)
	if n <= 0 {
		return nil, dberr.Corruptf("subtuple: corrupt jump header")
	}
	if jumpLen == 0 || jumpLen > depth || jump.Nil() {
		return nil, dberr.Corruptf("subtuple: jump of %d versions from depth %d to %v", jumpLen, depth, jump)
	}
	d.depth, d.jumpLen, d.jump, d.jumpTS = depth, jumpLen, jump, d.fromTS-delta
	return p[n:], nil
}

// checkHop enforces the depth invariant on one step down a version
// chain, from d to n, the record at d's prev (viaJump: its jump). Every
// step lands on an old version; a prev step from an old version lands
// one version lower, a jump jumpLen versions lower on a version stamped
// jumpTS. A step from the head lands on any depth. So the depth falls
// with every step after the first and no walk can loop.
func checkHop(d, n decoded, viaJump bool, at page.TID) error {
	want := d.depth - 1
	if viaJump {
		want = d.depth - d.jumpLen
	}
	switch {
	case n.flags&(fVer|fOld) != fVer|fOld:
		return dberr.Corruptf("subtuple: version chain reaches %v, which is not an old version", at)
	case viaJump && (n.depth != want || n.fromTS != d.jumpTS):
		return dberr.Corruptf("subtuple: jump to %v lands on depth %d stamped %d, want depth %d stamped %d",
			at, n.depth, n.fromTS, want, d.jumpTS)
	case d.flags&fJump != 0 && n.depth != want:
		return dberr.Corruptf("subtuple: previous version %v has depth %d, want %d", at, n.depth, want)
	}
	return nil
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

// freeOverflow releases the overflow chunks of a decoded long record.
func (s *Store) freeOverflow(d decoded) error {
	if d.flags&fLong == 0 {
		return nil
	}
	for cur := d.first; !cur.Nil(); {
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
// read failed (missing record, unallocated page). The exceptions say
// nothing about the record: a pool out of frames, and a transient
// device fault that outlasted the store's retries, which is passed on
// as what it is.
func broken(chain string, err error) error {
	switch {
	case errors.Is(err, buffer.ErrExhausted):
		return err
	case dberr.IsCorrupt(err), segment.IsTransient(err):
		return fmt.Errorf("subtuple: broken %s: %w", chain, err)
	}
	return dberr.Corruptf("subtuple: broken %s: %v", chain, err)
}

// resolve follows forwarding stubs from the anchor and returns the
// physical location plus a copy of the raw record found there, for the
// write path to rewrite.
func (s *Store) resolve(t page.TID) (page.TID, []byte, error) {
	r := s.Reader()
	defer r.Done()
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
	rec, err := s.encodeBody(s.head(page.TID{}), data)
	if err != nil {
		return page.TID{}, err
	}
	return s.insertRawAnywhere(rec)
}

// head returns the header of a current record written now: in a
// versioned store stamped with the operation's timestamp and
// transaction, its previous version prev; otherwise empty.
func (s *Store) head(prev page.TID) decoded {
	if !s.versioned {
		return decoded{}
	}
	return decoded{flags: fVer, fromTS: s.now(), txn: s.applyTxn.Load(), prev: prev}
}

// InsertOnPage stores a new subtuple on the given page, returning
// page.ErrNoSpace when it does not fit — the primitive behind the
// complex-object clustering strategy of §4.1 (try the object's own
// pages first).
func (s *Store) InsertOnPage(pageNo uint32, data []byte) (page.TID, error) {
	rec, err := s.encodeBody(s.head(page.TID{}), data)
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
	r := s.Reader()
	defer r.Done()
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
	if s.versioned {
		if prev, err = s.preserve(t, old); err != nil {
			return err
		}
	}
	h := s.head(prev)
	moved := old.flags & fMoved
	h.flags |= moved
	rec, err := s.encodeBody(h, data)
	if err != nil {
		return err
	}
	err = s.pageUpdate(loc, rec)
	if errors.Is(err, page.ErrNoSpace) {
		// Relocate and leave (or retarget) a forwarding stub. A stub that
		// replaces a relocated record is not the anchor and is marked
		// fMoved too, so a snapshot cursor does not take it for one.
		rec[0] |= fMoved
		nt, err := s.insertRawAnywhere(rec)
		if err != nil {
			return err
		}
		if err := s.pageUpdate(loc, page.AppendTID([]byte{fFwd | moved}, nt)); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	// The old head's overflow chunks are released only after the new
	// head is in place, narrowing the window in which a concurrent
	// snapshot reader holding the old head bytes could chase freed
	// chunks (the old payload itself lives on in the version record).
	return s.freeOverflow(old)
}

// preserve stores old, the head of subtuple t an update or delete
// replaces, as an old version with its original creator stamp, linked
// into the chain below it, and returns its TID. Linking reads the
// newest old versions, so a damaged one fails the write; the error
// names t's history, not its current record.
func (s *Store) preserve(t page.TID, old decoded) (page.TID, error) {
	h := decoded{flags: fVer | fOld, fromTS: old.fromTS, txn: old.txn, prev: old.prev}
	if !h.prev.Nil() {
		if err := s.link(&h); err != nil {
			return page.TID{}, fmt.Errorf("subtuple: history of %v: %w", t, err)
		}
	}
	rec, err := s.encodeBody(h, old.payload)
	if err != nil {
		return page.TID{}, err
	}
	return s.insertRawAnywhere(rec)
}

// link gives h, an old version whose previous version is h.prev, its
// skew-binary jump pointer (Myers, "An applicative random-access
// stack", 1983): past prev's jump target as well when prev's jump is as
// long as its target's, so 1+2*jumpLen versions down; to prev
// otherwise. The jump lengths down any chain are then those of a
// skew-binary number, and a read reaches any depth in O(log versions)
// hops (Reader.View). It reads two headers at most, in place.
func (s *Store) link(h *decoded) error {
	r := s.Reader()
	defer r.Done()
	p, err := r.hop(*h, false)
	if err != nil {
		return err
	}
	r.Done()
	h.flags |= fJump
	h.depth, h.jumpLen, h.jump, h.jumpTS = p.depth+1, 1, h.prev, p.fromTS
	if p.flags&fJump == 0 {
		return nil
	}
	j, err := r.hop(p, true)
	if err != nil {
		return err
	}
	r.Done()
	if j.jumpLen == p.jumpLen {
		h.jumpLen, h.jump, h.jumpTS = 1+2*p.jumpLen, j.jump, j.jumpTS
	}
	return nil
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
		prev, err := s.preserve(t, old)
		if err != nil {
			return err
		}
		h := s.head(prev)
		h.flags |= fTomb | old.flags&fMoved
		tomb, err := s.encodeBody(h, nil)
		if err != nil {
			return err
		}
		if err := s.pageUpdate(loc, tomb); err != nil {
			return err
		}
		// Free the old head's overflow chain only once the tombstone is
		// in place (the payload survives in the version record).
		return s.freeOverflow(old)
	}
	if err := s.freeOverflow(old); err != nil {
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
// under its anchor TID, relocated or not. It is a loop over a Cursor,
// so the payload handed to fn is valid only during the call.
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
	for {
		v := Version{FromTS: d.fromTS, Txn: d.txn, Deleted: d.flags&fTomb != 0}
		if !v.Deleted {
			v.Payload = d.payload
		}
		out = append(out, v)
		if d.prev.Nil() {
			return out, nil
		}
		raw, err := s.readRaw(d.prev)
		if err != nil {
			return nil, broken("version chain", err)
		}
		n, err := s.decode(raw)
		if err == nil {
			err = checkHop(d, n, false, d.prev)
		}
		if err != nil {
			return nil, err
		}
		d = n
	}
}
