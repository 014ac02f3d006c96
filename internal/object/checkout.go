package object

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/subtuple"
)

// This file implements the page-level relocation and check-out that
// §4.1 names as the second advantage of Mini TIDs: "when a complex
// object has to be moved to another place in the database or sent to
// a workstation (checked-out), this can easily be done at the page
// level, i.e. without having to look at the subtuples individually.
// No changes are required for D and C pointers since Mini TIDs refer
// to positions in the page list and not in the database segment. As a
// consequence, only the page list must be updated."
//
// This relies on the pages of a local address space being dedicated
// to one object, which is how place() allocates them.

// Snapshot is a checked-out complex object: its Mini Directory layout
// plus the raw bytes of every page of its local address space. All D
// and C pointers inside the pages remain valid because they are Mini
// TIDs. A Snapshot can be imported into any database segment.
type Snapshot struct {
	Layout Layout
	// Local records which page-list positions are occupied; gaps are
	// preserved so Mini TIDs stay valid.
	Local []bool
	// Pages holds the page images of the occupied positions, in order.
	Pages [][]byte
	// Root is the object's root MD subtuple position inside its local
	// address space.
	Root page.MiniTID
}

// CheckoutError refuses to check out or import an object that is not
// self-contained: a record on one of its pages is a forwarding stub or
// the head of an overflow chain, whose target lies outside the local
// address space (a record grown past its page, or a payload longer than
// a page). Copying its pages would carry a segment TID that names an
// unrelated record once the object lives elsewhere. The check reads the
// pages, not the object's structure, so a directory chunk of the table
// that was placed on one of the object's pages and later moved refuses
// the object too.
type CheckoutError struct {
	// Ref is the object's root on export; zero on import.
	Ref Ref
	// Root is the root's position in the local address space.
	Root page.MiniTID
	// At is the record that leaves the local address space, as a
	// local Mini TID.
	At page.MiniTID
}

func (e *CheckoutError) Error() string {
	return fmt.Sprintf("object: %v (root %v) is not self-contained: %v is a forwarding stub or overflow chain outside its local address space",
		e.Ref, e.Root, e.At)
}

// selfContained refuses a snapshot whose pages hold a record that
// reaches outside them (CheckoutError).
func selfContained(ref Ref, snap *Snapshot) error {
	pi := 0
	for i, used := range snap.Local {
		if !used {
			continue
		}
		if slot, found := subtuple.OffPage(snap.Pages[pi]); found {
			return &CheckoutError{Ref: ref, Root: snap.Root, At: page.MiniTID{Page: uint16(i), Slot: slot}}
		}
		pi++
	}
	return nil
}

// Export checks the complex object out of the database at page level.
// No subtuple is visited individually; the pages are copied verbatim.
// An object that is not self-contained is refused (CheckoutError).
func (m *Manager) Export(ref Ref) (*Snapshot, error) {
	o, _, err := m.loadCtx(ref, 0)
	if err != nil {
		return nil, err
	}
	defer o.end()
	snap := &Snapshot{Layout: m.layout, Local: make([]bool, len(o.pages))}
	rootLocal := -1
	for i, pg := range o.pages {
		if pg == 0 {
			continue
		}
		snap.Local[i] = true
		f, err := m.st.Pool().Pin(buffer.PageKey{Seg: m.st.Segment(), Page: pg})
		if err != nil {
			return nil, err
		}
		img := make([]byte, page.Size)
		f.RLatch()
		copy(img, f.Page.Bytes())
		f.RUnlatch()
		m.st.Pool().Unpin(f, false)
		snap.Pages = append(snap.Pages, img)
		if pg == ref.Page {
			rootLocal = i
		}
	}
	if rootLocal < 0 {
		return nil, fmt.Errorf("object: root MD subtuple outside the object's local address space")
	}
	snap.Root = page.MiniTID{Page: uint16(rootLocal), Slot: ref.Slot}
	if err := selfContained(ref, snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// Import brings a checked-out object back into the database: fresh
// pages are allocated, the page images are written verbatim, and only
// the page list in the root MD subtuple is rewritten to the new page
// numbers. Returns the new object reference. A snapshot that is not
// self-contained is refused (CheckoutError) before any page is
// allocated.
//
// Import writes pages physically; callers using a WAL should force a
// checkpoint (pool flush) afterwards, as recovery does not replay
// page-level imports.
func (m *Manager) Import(snap *Snapshot) (Ref, error) {
	if snap.Layout != m.layout {
		return Ref{}, fmt.Errorf("object: snapshot layout %s, manager uses %s", snap.Layout, m.layout)
	}
	if err := selfContained(Ref{}, snap); err != nil {
		return Ref{}, err
	}
	pool := m.st.Pool()
	seg := m.st.Segment()
	newPages := make([]uint32, len(snap.Local))
	pi := 0
	for i, used := range snap.Local {
		if !used {
			continue
		}
		no, err := pool.Allocate(seg)
		if err != nil {
			return Ref{}, err
		}
		f, err := pool.PinNew(buffer.PageKey{Seg: seg, Page: no})
		if err != nil {
			return Ref{}, err
		}
		copy(f.Page.Bytes(), snap.Pages[pi])
		pool.Unpin(f, true)
		newPages[i] = no
		pi++
	}
	newRoot := Ref{Page: newPages[snap.Root.Page], Slot: snap.Root.Slot}
	// Rewrite only the page list inside the root MD subtuple.
	raw, err := m.st.Read(newRoot)
	if err != nil {
		return Ref{}, err
	}
	o := m.newCtx()
	o.root = newRoot
	body, err := o.decodeEnvelope(raw)
	if err != nil {
		return Ref{}, err
	}
	if len(o.pages) != len(newPages) {
		return Ref{}, fmt.Errorf("object: imported page list length %d, snapshot has %d", len(o.pages), len(newPages))
	}
	o.pages = newPages
	if err := o.flushRoot(body); err != nil {
		return Ref{}, err
	}
	return newRoot, nil
}

// Relocate moves the complex object to a fresh set of pages within
// its segment — Export followed by Import. The cost is proportional
// to the object's page count, not its subtuple count.
func (m *Manager) Relocate(ref Ref) (Ref, error) {
	snap, err := m.Export(ref)
	if err != nil {
		return Ref{}, err
	}
	return m.Import(snap)
}

// EncodeSnapshot serializes a Snapshot for sending to a workstation.
func EncodeSnapshot(s *Snapshot) []byte {
	b := []byte{byte(s.Layout)}
	b = binary.AppendUvarint(b, uint64(len(s.Local)))
	for _, used := range s.Local {
		if used {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = page.AppendMiniTID(b, s.Root)
	for _, img := range s.Pages {
		b = append(b, img...)
	}
	return b
}

// DecodeSnapshot parses a serialized Snapshot.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	if len(raw) < 2 {
		return nil, dberr.Corruptf("object: short snapshot")
	}
	s := &Snapshot{Layout: Layout(raw[0])}
	p := raw[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, dberr.Corruptf("object: corrupt snapshot header")
	}
	p = p[sz:]
	if uint64(len(p)) < n {
		return nil, dberr.Corruptf("object: truncated snapshot")
	}
	s.Local = make([]bool, n)
	used := 0
	for i := range s.Local {
		s.Local[i] = p[i] == 1
		if s.Local[i] {
			used++
		}
	}
	p = p[n:]
	root, err := page.DecodeMiniTID(p)
	if err != nil {
		return nil, err
	}
	s.Root = root
	p = p[page.EncodedMiniTIDLen:]
	if len(p) != used*page.Size {
		return nil, dberr.Corruptf("object: snapshot has %d page bytes, want %d", len(p), used*page.Size)
	}
	for i := 0; i < used; i++ {
		img := make([]byte, page.Size)
		copy(img, p[i*page.Size:])
		s.Pages = append(s.Pages, img)
	}
	return s, nil
}
