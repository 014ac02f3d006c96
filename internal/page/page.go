// Package page implements fixed-size slotted pages and the two
// addressing units of the AIM-II storage layer (§4.1 of the paper):
//
//   - TID: a (page number, slot number) pair interpreted relative to
//     the beginning of a database segment, as in System R /As76/;
//   - MiniTID: a smaller (local page number, slot number) pair whose
//     page component is an index into the page list of a complex
//     object's local address space, not a segment page number.
//
// Records never change their slot number while they live on a page;
// in-page compaction moves record bytes but keeps slots stable, so
// TIDs and Mini TIDs stay valid, which the paper requires to keep
// Mini Directory pointers stable during DB processing.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/dberr"
)

// Size is the size of every database page in bytes.
const Size = 4096

// Header layout (bytes): LSN 8 | nslots 2 | freeStart 2 | freeEnd 2 |
// checksum 2. The slot directory grows forward from the header, record
// bodies grow backward from the end of the page.
const (
	headerSize = 16
	slotSize   = 4 // offset uint16 | length uint16

	offLSN       = 0
	offNumSlots  = 8
	offFreeStart = 10
	offFreeEnd   = 12
	offChecksum  = 14
)

// slot length value marking a dead (deleted) slot available for reuse.
const deadLen = 0xFFFF

// ErrNoSpace reports that a record does not fit on the page even
// after compaction.
var ErrNoSpace = errors.New("page: not enough free space")

// ErrBadSlot reports access through a slot that does not hold a
// record.
var ErrBadSlot = errors.New("page: no record at slot")

// TID addresses a record within a segment: page number relative to
// the segment start plus slot number. The zero TID is invalid (page 0
// slot 0 is never handed out; slot numbering starts at 0 but page
// numbering starts at 1).
type TID struct {
	Page uint32
	Slot uint16
}

// Nil reports whether the TID is the invalid zero value.
func (t TID) Nil() bool { return t.Page == 0 }

func (t TID) String() string { return fmt.Sprintf("TID(%d.%d)", t.Page, t.Slot) }

// EncodedTIDLen is the byte length of an encoded TID.
const EncodedTIDLen = 6

// AppendTID appends the 6-byte encoding of the TID.
func AppendTID(b []byte, t TID) []byte {
	b = binary.LittleEndian.AppendUint32(b, t.Page)
	return binary.LittleEndian.AppendUint16(b, t.Slot)
}

// DecodeTID reads a TID encoded by AppendTID.
func DecodeTID(b []byte) (TID, error) {
	if len(b) < EncodedTIDLen {
		return TID{}, dberr.Corruptf("page: short TID encoding")
	}
	return TID{Page: binary.LittleEndian.Uint32(b), Slot: binary.LittleEndian.Uint16(b[4:])}, nil
}

// MiniTID addresses a subtuple inside one complex object's local
// address space: Page is a position in the object's page list (the
// "local" page number i of the paper, which must be translated into a
// real page number via the page list), Slot the slot on that page.
// Mini TIDs are two bytes smaller than TIDs — the space saving in the
// Mini Directory that §4.1 points out.
type MiniTID struct {
	Page uint16 // index into the complex object's page list
	Slot uint16
}

// NilMini is the invalid Mini TID (page-list position 0xFFFF).
var NilMini = MiniTID{Page: 0xFFFF, Slot: 0xFFFF}

// Nil reports whether the Mini TID is invalid.
func (m MiniTID) Nil() bool { return m == NilMini }

func (m MiniTID) String() string { return fmt.Sprintf("mTID(%d.%d)", m.Page, m.Slot) }

// EncodedMiniTIDLen is the byte length of an encoded MiniTID.
const EncodedMiniTIDLen = 4

// AppendMiniTID appends the 4-byte encoding of the Mini TID.
func AppendMiniTID(b []byte, m MiniTID) []byte {
	b = binary.LittleEndian.AppendUint16(b, m.Page)
	return binary.LittleEndian.AppendUint16(b, m.Slot)
}

// DecodeMiniTID reads a MiniTID encoded by AppendMiniTID.
func DecodeMiniTID(b []byte) (MiniTID, error) {
	if len(b) < EncodedMiniTIDLen {
		return MiniTID{}, dberr.Corruptf("page: short MiniTID encoding")
	}
	return MiniTID{Page: binary.LittleEndian.Uint16(b), Slot: binary.LittleEndian.Uint16(b[2:])}, nil
}

// Page is a view over one fixed-size page buffer. It does not own the
// buffer; the buffer manager does.
type Page struct {
	b []byte
}

// View wraps an existing page buffer (len must be Size).
func View(b []byte) *Page {
	if len(b) != Size {
		panic(fmt.Sprintf("page: buffer length %d, want %d", len(b), Size))
	}
	return &Page{b: b}
}

// Init formats the buffer as an empty page.
func (p *Page) Init() {
	for i := range p.b {
		p.b[i] = 0
	}
	p.setU16(offNumSlots, 0)
	p.setU16(offFreeStart, headerSize)
	p.setU16(offFreeEnd, Size)
}

// Bytes returns the underlying buffer.
func (p *Page) Bytes() []byte { return p.b }

// LSN returns the page's log sequence number.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.b[offLSN:]) }

// SetLSN stores the page's log sequence number.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.b[offLSN:], lsn) }

func (p *Page) u16(off int) uint16       { return binary.LittleEndian.Uint16(p.b[off:]) }
func (p *Page) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.b[off:], v) }

// NumSlots returns the number of slot directory entries (live or
// dead).
func (p *Page) NumSlots() int { return int(p.u16(offNumSlots)) }

func (p *Page) slotOff(slot uint16) int { return headerSize + int(slot)*slotSize }

func (p *Page) slot(slot uint16) (off, length uint16) {
	so := p.slotOff(slot)
	return p.u16(so), p.u16(so + 2)
}

func (p *Page) setSlot(slot uint16, off, length uint16) {
	so := p.slotOff(slot)
	p.setU16(so, off)
	p.setU16(so+2, length)
}

// FreeSpace returns the number of bytes available for a new record
// including its slot entry, after compaction.
func (p *Page) FreeSpace() int {
	used := headerSize + p.NumSlots()*slotSize
	for s := 0; s < p.NumSlots(); s++ {
		_, l := p.slot(uint16(s))
		if l != deadLen {
			used += int(l)
		}
	}
	free := Size - used - slotSize // reserve room for one new slot entry
	if free < 0 {
		return 0
	}
	return free
}

// contiguousFree returns the bytes between the end of the slot
// directory and the start of the record area.
func (p *Page) contiguousFree() int {
	return int(p.u16(offFreeEnd)) - int(p.u16(offFreeStart))
}

// Insert stores the record on the page and returns its slot number,
// reusing a dead slot if one exists. It returns ErrNoSpace if the
// record cannot be placed even after compaction.
func (p *Page) Insert(rec []byte) (uint16, error) {
	// Find a reusable dead slot (keeps the directory small and makes
	// deleted slot numbers available again, like the page-list gaps of
	// §4.1).
	slot := uint16(p.NumSlots())
	newSlot := true
	for s := 0; s < p.NumSlots(); s++ {
		if _, l := p.slot(uint16(s)); l == deadLen {
			slot, newSlot = uint16(s), false
			break
		}
	}
	need := len(rec)
	if newSlot {
		need += slotSize
	}
	if p.FreeSpace()+slotSize < need {
		return 0, ErrNoSpace
	}
	if p.contiguousFree() < need {
		p.Compact()
	}
	if p.contiguousFree() < need {
		return 0, ErrNoSpace
	}
	if newSlot {
		p.setU16(offNumSlots, uint16(p.NumSlots()+1))
		p.setU16(offFreeStart, p.u16(offFreeStart)+slotSize)
	}
	end := p.u16(offFreeEnd)
	off := end - uint16(len(rec))
	copy(p.b[off:end], rec)
	p.setU16(offFreeEnd, off)
	p.setSlot(slot, off, uint16(len(rec)))
	return slot, nil
}

// InsertAt stores the record at a specific slot number, extending the
// slot directory as needed. Used by crash recovery to replay inserts
// deterministically. The slot must be dead or beyond the current
// directory.
func (p *Page) InsertAt(slot uint16, rec []byte) error {
	for int(slot) >= p.NumSlots() {
		if p.contiguousFree() < slotSize {
			p.Compact()
			if p.contiguousFree() < slotSize {
				return ErrNoSpace
			}
		}
		s := uint16(p.NumSlots())
		p.setSlot(s, 0, deadLen)
		p.setU16(offNumSlots, s+1)
		p.setU16(offFreeStart, p.u16(offFreeStart)+slotSize)
	}
	if _, l := p.slot(slot); l != deadLen {
		return fmt.Errorf("page: InsertAt slot %d occupied", slot)
	}
	if p.contiguousFree() < len(rec) {
		p.Compact()
		if p.contiguousFree() < len(rec) {
			return ErrNoSpace
		}
	}
	end := p.u16(offFreeEnd)
	off := end - uint16(len(rec))
	copy(p.b[off:end], rec)
	p.setU16(offFreeEnd, off)
	p.setSlot(slot, off, uint16(len(rec)))
	return nil
}

// Read returns the record stored at the slot. The returned slice
// aliases the page buffer and is only valid while the page is pinned.
func (p *Page) Read(slot uint16) ([]byte, error) {
	if int(slot) >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, l := p.slot(slot)
	if l == deadLen {
		return nil, ErrBadSlot
	}
	return p.b[off : off+l], nil
}

// Update replaces the record at the slot, in place when the new
// record is not larger, otherwise by re-placing it on the page
// (compacting if needed). The slot number never changes. Returns
// ErrNoSpace when the grown record no longer fits on this page; the
// caller must then relocate with a forwarding record.
func (p *Page) Update(slot uint16, rec []byte) error {
	if int(slot) >= p.NumSlots() {
		return ErrBadSlot
	}
	off, l := p.slot(slot)
	if l == deadLen {
		return ErrBadSlot
	}
	if len(rec) <= int(l) {
		copy(p.b[off:], rec)
		p.setSlot(slot, off, uint16(len(rec)))
		return nil
	}
	// Grow: free the old body, then place the new one.
	p.setSlot(slot, 0, deadLen)
	free := p.FreeSpace() + slotSize // our slot entry already exists
	if free < len(rec) {
		p.setSlot(slot, off, l) // restore
		return ErrNoSpace
	}
	if p.contiguousFree() < len(rec) {
		p.Compact()
	}
	end := p.u16(offFreeEnd)
	noff := end - uint16(len(rec))
	copy(p.b[noff:end], rec)
	p.setU16(offFreeEnd, noff)
	p.setSlot(slot, noff, uint16(len(rec)))
	return nil
}

// Delete removes the record at the slot, leaving a dead slot entry so
// other slot numbers stay stable.
func (p *Page) Delete(slot uint16) error {
	if int(slot) >= p.NumSlots() {
		return ErrBadSlot
	}
	if _, l := p.slot(slot); l == deadLen {
		return ErrBadSlot
	}
	p.setSlot(slot, 0, deadLen)
	return nil
}

// Empty reports whether the page holds no live records.
func (p *Page) Empty() bool {
	for s := 0; s < p.NumSlots(); s++ {
		if _, l := p.slot(uint16(s)); l != deadLen {
			return false
		}
	}
	return true
}

// Live reports whether the slot holds a record.
func (p *Page) Live(slot uint16) bool {
	if int(slot) >= p.NumSlots() {
		return false
	}
	_, l := p.slot(slot)
	return l != deadLen
}

// Compact slides all live record bodies to the end of the page,
// squeezing out holes from deletes and updates. Slot numbers are
// unchanged.
func (p *Page) Compact() {
	type live struct {
		slot uint16
		off  uint16
		len  uint16
	}
	var recs []live
	for s := 0; s < p.NumSlots(); s++ {
		off, l := p.slot(uint16(s))
		if l != deadLen {
			recs = append(recs, live{uint16(s), off, l})
		}
	}
	// Move highest-offset records first so copies never overlap
	// destructively.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j-1].off < recs[j].off; j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
	end := uint16(Size)
	for _, r := range recs {
		noff := end - r.len
		copy(p.b[noff:end], p.b[r.off:r.off+r.len])
		p.setSlot(r.slot, noff, r.len)
		end = noff
	}
	p.setU16(offFreeEnd, end)
}

// Initialized reports whether the buffer holds a formatted slotted
// page (a freshly allocated, never-written page reads back as all
// zeros and must be Init'ed before use).
func (p *Page) Initialized() bool { return p.u16(offFreeEnd) != 0 }

// --- checksums (corruption detection) --------------------------------
//
// The spare header field carries a 16-bit fold of the CRC-32 of the
// whole page *and its identity* (segment id, page number). The buffer
// pool seals a page immediately before writing it back and verifies on
// every physical read, so three silent-corruption signatures surface
// as clean errors instead of wrong answers:
//
//   - a torn write (half old image, half new): body CRC mismatch;
//   - bit rot anywhere on the page: body CRC mismatch;
//   - a misdirected write (the image of page P landing at page Q's
//     offset): the CRC verifies against Q's identity and fails even
//     though the image itself is internally consistent.
//
// A stored checksum of zero means "unsealed". Since every image that
// leaves the buffer pool is sealed first, the only legitimate unsealed
// on-disk image is an all-zero page (allocated but never written
// back). A *nonzero* unsealed image — e.g. a sealed page whose
// checksum field alone rotted to zero — therefore fails verification;
// pre-PR this was silently accepted. An all-zero image still passes
// here, because the page layer cannot know whether the page was ever
// sealed; the buffer pool closes that last hole by cross-checking the
// pages recovery proved to hold committed data (see buffer.MarkSealed).

// checksumOf folds the CRC of the page image and its identity to 16
// bits, never returning the reserved "unsealed" value 0. Every verified
// page read and every write-back computes one, and it allocates
// nothing: the image goes to crc32.Update as it lies, and the identity
// and the zeroed checksum field are folded in byte by byte (crcBytes).
func (p *Page) checksumOf(seg uint16, no uint32) uint16 {
	sum := crcBytes(0, byte(seg), byte(seg>>8), byte(no), byte(no>>8), byte(no>>16), byte(no>>24))
	sum = crc32.Update(sum, crc32.IEEETable, p.b[:offChecksum])
	sum = crcBytes(sum, 0, 0)
	sum = crc32.Update(sum, crc32.IEEETable, p.b[offChecksum+2:])
	c := uint16(sum) ^ uint16(sum>>16)
	if c == 0 {
		c = 0xFFFF
	}
	return c
}

// crcBytes is crc32.Update over the IEEE table for a few bytes. A slice
// handed to crc32.Update escapes to the heap — it calls through a
// function variable — so a stack array given to it costs an allocation
// per call; this loop costs none.
func crcBytes(sum uint32, bs ...byte) uint32 {
	sum = ^sum
	for _, b := range bs {
		sum = crc32.IEEETable[byte(sum)^b] ^ sum>>8
	}
	return ^sum
}

// Seal stamps the page checksum, binding the image to its location;
// call just before the image leaves the buffer pool for the backing
// store.
func (p *Page) Seal(seg uint16, no uint32) { p.setU16(offChecksum, p.checksumOf(seg, no)) }

// Sealed reports whether the image carries a checksum.
func (p *Page) Sealed() bool { return p.u16(offChecksum) != 0 }

// ChecksumOK verifies a page image read from the backing store
// against the location it was read from.
func (p *Page) ChecksumOK(seg uint16, no uint32) bool {
	stored := p.u16(offChecksum)
	if stored == 0 {
		// Unsealed images are acceptable only as all-zero pages
		// (allocated, never written back). Anything else is a sealed
		// image whose checksum field itself was damaged.
		return p.IsZero()
	}
	return stored == p.checksumOf(seg, no)
}

// IsZero reports whether every byte of the image is zero — the state
// of an allocated page that was never written back.
func (p *Page) IsZero() bool {
	for _, b := range p.b {
		if b != 0 {
			return false
		}
	}
	return true
}

// Validate structurally checks the slot directory of an initialized
// page: header bounds, slot entries inside the record area, and no
// overlap of a record with the slot directory. It complements the
// checksum (which only proves the image matches what was written, not
// that what was written is well-formed) and is the scrubber's
// page-level cross-check.
func (p *Page) Validate() error {
	if !p.Initialized() {
		return nil // all-zero / unformatted: nothing to check
	}
	ns := p.NumSlots()
	freeStart := int(p.u16(offFreeStart))
	freeEnd := int(p.u16(offFreeEnd))
	dirEnd := headerSize + ns*slotSize
	if freeStart != dirEnd {
		return ErrBadStructure("freeStart does not match the slot directory end")
	}
	if freeEnd < freeStart || freeEnd > Size {
		return ErrBadStructure("free-space bounds out of range")
	}
	for s := 0; s < ns; s++ {
		off, l := p.slot(uint16(s))
		if l == deadLen {
			continue
		}
		if int(off) < freeEnd || int(off)+int(l) > Size {
			return ErrBadStructure("slot entry points outside the record area")
		}
	}
	return nil
}

// ErrBadStructure builds a typed structural-corruption error.
func ErrBadStructure(msg string) error {
	return dberr.Corruptf("page: bad structure: %s", msg)
}
