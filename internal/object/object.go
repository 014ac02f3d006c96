// Package object implements the AIM-II complex-object manager of
// §4.1 of the paper: every tuple of an NF² table is stored as a
// complex object consisting of
//
//   - data subtuples, which hold the "first level" atomic attribute
//     values of the object and of each of its subobjects, and carry no
//     structural information at all; and
//   - a Mini Directory (MD): a tree of MD subtuples holding all the
//     structural information (D pointers to data subtuples, C pointers
//     to other MD subtuples), whose layout corresponds exactly to the
//     hierarchical structure of the object.
//
// Three alternative Mini Directory layouts are implemented, exactly
// the storage structures of Fig 6:
//
//   - SS1: one MD subtuple per subtable AND per complex subobject;
//   - SS2: one MD subtuple per complex subobject only;
//   - SS3: one MD subtuple per subtable only (AIM-II's choice).
//
// Every complex object owns a local address space: a page list stored
// in the root MD subtuple. All D and C pointers are Mini TIDs whose
// page component indexes this page list, so they are valid only
// inside the object, are smaller than full TIDs, and survive moving
// the whole object at page level. Page-list gaps left by deletions
// are reused but never closed, keeping existing Mini TIDs stable.
//
// Flat (1NF) tables do not use this package: they have no Mini
// Directories (§4.1) and are stored directly through the subtuple
// store (see internal/flat).
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
)

// Layout selects the Mini Directory storage structure.
type Layout uint8

// The three storage structures of Fig 6.
const (
	SS1 Layout = 1 // MD subtuples for subtables and complex subobjects
	SS2 Layout = 2 // MD subtuples for complex subobjects only
	SS3 Layout = 3 // MD subtuples for subtables only (AIM-II default)
)

// String returns the paper's name of the layout.
func (l Layout) String() string {
	switch l {
	case SS1:
		return "SS1"
	case SS2:
		return "SS2"
	case SS3:
		return "SS3"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// Ref identifies a complex object: the TID of its root MD subtuple.
type Ref = page.TID

// ErrBadPath reports navigation along a path that does not exist in
// the object.
var ErrBadPath = errors.New("object: no such path in object")

// Manager stores and retrieves complex objects in one subtuple store.
type Manager struct {
	st     *subtuple.Store
	layout Layout
}

// NewManager creates a complex-object manager using the given Mini
// Directory layout.
func NewManager(st *subtuple.Store, layout Layout) *Manager {
	if layout < SS1 || layout > SS3 {
		panic("object: unknown layout")
	}
	return &Manager{st: st, layout: layout}
}

// Store returns the underlying subtuple store.
func (m *Manager) Store() *subtuple.Store { return m.st }

// Layout returns the manager's Mini Directory layout.
func (m *Manager) Layout() Layout { return m.layout }

// --- object context: page list and local addressing -----------------

// estimated per-record page overhead (slot entry + record headers).
const recOverhead = 32

// objCtx carries the state needed to work inside one complex object's
// local address space: its root TID, its page list, the window of
// pages its reads go through, what its reads carve (arena.go) and, on
// the write path, a free-space cache so bulk builds do not re-probe
// every page per insert. The page-list scan semantics follow §4.1: to
// place a new subtuple, the pages already owned by the object are tried
// first; only when none has room is a new page allocated and appended
// to the list (reusing a gap if one exists).
//
// Every operation that loads a context defers its done: an error path
// or a panic may leave the window's last view latched.
type objCtx struct {
	m     *Manager
	root  page.TID // zero until the root MD subtuple is stored
	pages []uint32 // local page number -> segment page number; 0 = gap
	asof  int64    // read-as-of timestamp; 0 = current state
	win   subtuple.Reader
	dirty bool        // page list changed since load
	free  map[int]int // write path only, made on first use
	// removedOn records local pages that lost subtuples, so reap can
	// turn fully emptied pages into page-list gaps (§4.1: "when a page
	// number is removed from the page list, the gap ... is not closed").
	removedOn map[int]bool

	// The root node body and the scaffolding of a read, which no tuple
	// it returns reaches.
	body   []byte
	hs     bump[levelHandle]
	minis  bump[page.MiniTID]
	groups bump[[]page.MiniTID]
	// The containers of the tuples a read returns, rewound with the
	// scaffolding when reuse is set, and the slab of their atoms.
	reuse bool
	vals  bump[model.Value]
	tups  bump[model.Tuple]
	tbls  bump[model.Table]
	slab  model.Slab
}

func (m *Manager) newCtx() *objCtx {
	return &objCtx{m: m, win: m.st.Reader()}
}

// loadCtx loads a fresh context on the object at ref (load). On success
// the caller owns the context and must call its done.
func (m *Manager) loadCtx(ref Ref, asof int64) (*objCtx, []byte, error) {
	o := &objCtx{m: m}
	body, err := o.load(ref, asof)
	if err != nil {
		return nil, nil, err
	}
	return o, body, nil
}

// load starts the context on the object at ref as of an instant
// (viewRoot) and copies the root node body into o.body, which it
// returns. The caller may keep the body until the context's next load.
func (o *objCtx) load(ref Ref, asof int64) ([]byte, error) {
	body, err := o.viewRoot(ref, asof)
	if err != nil {
		return nil, err
	}
	o.body = append(o.body[:0], body...)
	o.done()
	return o.body, nil
}

// viewRoot starts the context on the object at ref as of an instant: it
// views the root MD subtuple, decodes the page list of its envelope
// into the context and returns the root node body in place, valid until
// done. On error the context is ended.
func (o *objCtx) viewRoot(ref Ref, asof int64) ([]byte, error) {
	o.root, o.asof, o.win = ref, asof, o.m.st.Reader()
	raw, err := o.viewTID(ref)
	if err == nil {
		raw, err = o.decodeEnvelope(raw)
	}
	if err != nil {
		o.end()
		return nil, err
	}
	return raw, nil
}

// viewTID returns the payload of the subtuple at t in place, as of the
// context's instant. The bytes are the live page image under its
// shared latch: the caller decodes them, calls done, and only then
// views another subtuple (the latch is not reentrant, and nothing may
// be pinned while it is held).
func (o *objCtx) viewTID(t page.TID) ([]byte, error) {
	asof := o.asof
	if asof == 0 {
		asof = subtuple.Current
	}
	data, ok, err := o.win.View(t, asof)
	if err == nil && !ok {
		err = subtuple.ErrNotFound
	}
	return data, err
}

// view is viewTID through a Mini TID of the object's local address
// space.
func (o *objCtx) view(mt page.MiniTID) ([]byte, error) {
	t, err := o.resolve(mt)
	if err != nil {
		return nil, err
	}
	data, err := o.viewTID(t)
	if err != nil {
		return nil, o.classify(t, err)
	}
	return data, nil
}

// done ends the current view, if any.
func (o *objCtx) done() { o.win.Release() }

// end ends the context's work on its object: the current view, if any,
// and the decode tally of its reader, which it adds to the store's
// count (subtuple.Reader.Done) — once per object read, not per record.
func (o *objCtx) end() { o.win.Done() }

// envelope: [layout byte][pageCount uvarint][pageNo uint32 ...][body]
func (o *objCtx) encodeEnvelope(body []byte) []byte {
	b := make([]byte, 0, 8+4*len(o.pages)+len(body))
	b = append(b, byte(o.m.layout))
	b = binary.AppendUvarint(b, uint64(len(o.pages)))
	for _, pg := range o.pages {
		b = binary.LittleEndian.AppendUint32(b, pg)
	}
	return append(b, body...)
}

func (o *objCtx) decodeEnvelope(raw []byte) ([]byte, error) {
	if len(raw) < 2 {
		return nil, dberr.Corruptf("object: corrupt root MD subtuple")
	}
	if Layout(raw[0]) != o.m.layout {
		return nil, dberr.Corruptf("object: stored layout %s, manager uses %s", Layout(raw[0]), o.m.layout)
	}
	p := raw[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, dberr.Corruptf("object: corrupt page list length")
	}
	p = p[sz:]
	if n > uint64(len(p))/4 { // n*4 could overflow; divide instead
		return nil, dberr.Corruptf("object: corrupt page list")
	}
	o.pages = slices.Grow(o.pages[:0], int(n))[:n]
	for i := range o.pages {
		o.pages[i] = binary.LittleEndian.Uint32(p)
		p = p[4:]
	}
	return p, nil
}

// resolve translates a Mini TID into a segment TID via the page list,
// the "local page number i must be translated into a real page
// number" step of §4.1.
func (o *objCtx) resolve(mt page.MiniTID) (page.TID, error) {
	if mt.Nil() {
		return page.TID{}, dberr.Corruptf("object: resolve of nil Mini TID")
	}
	if int(mt.Page) >= len(o.pages) || o.pages[mt.Page] == 0 {
		return page.TID{}, dberr.Corruptf("object: Mini TID %v outside local address space", mt)
	}
	return page.TID{Page: o.pages[mt.Page], Slot: mt.Slot}, nil
}

// read is view for callers that keep the bytes across further reads
// and writes (the mutation path): the payload is copied out.
func (o *objCtx) read(mt page.MiniTID) ([]byte, error) {
	data, err := o.view(mt)
	if err != nil {
		return nil, err
	}
	data = append([]byte(nil), data...)
	o.done()
	return data, nil
}

// classify marks read failures inside the object's local address
// space as corruption: the page list and the MD pointers promised a
// record at t, so any shape of failure there (unallocated page,
// missing record aside) means the object structure lies. A pool out
// of frames is not such a failure, nor is a transient device fault
// that outlasted the store's retries: they say nothing about the
// object, which must not be quarantined for them.
func (o *objCtx) classify(t page.TID, err error) error {
	if dberr.IsCorrupt(err) || errors.Is(err, subtuple.ErrNotFound) || errors.Is(err, buffer.ErrExhausted) || segment.IsTransient(err) {
		return err
	}
	return dberr.Corruptf("object: broken pointer to %v: %v", t, err)
}

// place stores a new subtuple inside the object's local address
// space: scan the page list for a page with room, otherwise allocate
// a new page and add it to the list (filling a gap if possible).
func (o *objCtx) place(data []byte) (page.MiniTID, error) {
	if o.free == nil {
		o.free = make(map[int]int)
	}
	need := len(data) + recOverhead
	for i, pg := range o.pages {
		if pg == 0 {
			continue
		}
		free, known := o.free[i]
		if !known {
			var err error
			free, err = o.m.st.FreeOnPage(pg)
			if err != nil {
				return page.NilMini, err
			}
			o.free[i] = free
		}
		if free < need {
			continue
		}
		t, err := o.m.st.InsertOnPage(pg, data)
		if err == nil {
			o.free[i] = free - need
			return page.MiniTID{Page: uint16(i), Slot: t.Slot}, nil
		}
		if errors.Is(err, page.ErrNoSpace) {
			o.free[i] = 0
			continue
		}
		return page.NilMini, err
	}
	pg, err := o.m.st.AllocatePage()
	if err != nil {
		return page.NilMini, err
	}
	idx := -1
	for i, p := range o.pages {
		if p == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		o.pages = append(o.pages, pg)
		idx = len(o.pages) - 1
	} else {
		o.pages[idx] = pg
	}
	if idx > 0xFFFE {
		return page.NilMini, fmt.Errorf("object: local address space exceeds %d pages", 0xFFFF)
	}
	o.dirty = true
	o.free[idx] = page.Size - recOverhead
	t, err := o.m.st.InsertOnPage(pg, data)
	if err != nil {
		return page.NilMini, err
	}
	o.free[idx] -= need
	return page.MiniTID{Page: uint16(idx), Slot: t.Slot}, nil
}

// update rewrites a subtuple in place (the store forwards within the
// segment if it grew beyond its page; the Mini TID stays valid).
func (o *objCtx) update(mt page.MiniTID, data []byte) error {
	t, err := o.resolve(mt)
	if err != nil {
		return err
	}
	return o.m.st.Update(t, data)
}

// remove deletes a subtuple of the object and remembers the local
// page so reap can drop it from the page list if it emptied.
func (o *objCtx) remove(mt page.MiniTID) error {
	t, err := o.resolve(mt)
	if err != nil {
		return err
	}
	if err := o.m.st.Delete(t); err != nil {
		return err
	}
	if o.removedOn == nil {
		o.removedOn = make(map[int]bool)
	}
	o.removedOn[int(mt.Page)] = true
	delete(o.free, int(mt.Page))
	return nil
}

// reap turns fully emptied local pages into page-list gaps. The gap
// positions are kept (never compacted) so existing Mini TIDs stay
// valid; place() reuses gaps for future page allocations. The
// segment page itself is abandoned (no segment-level free list in
// this prototype). The page holding the root MD subtuple is never
// reaped while in use.
func (o *objCtx) reap() error {
	for idx := range o.removedOn {
		if idx >= len(o.pages) || o.pages[idx] == 0 {
			continue
		}
		if o.pages[idx] == o.root.Page {
			continue // root MD subtuple lives here
		}
		empty, err := o.m.st.PageEmpty(o.pages[idx])
		if err != nil {
			return err
		}
		if empty {
			o.pages[idx] = 0
			o.dirty = true
		}
	}
	o.removedOn = nil
	return nil
}

// flushRoot rewrites the root MD subtuple with the current page list
// and body.
func (o *objCtx) flushRoot(body []byte) error {
	return o.m.st.Update(o.root, o.encodeEnvelope(body))
}

// --- byte reader for MD bodies ---------------------------------------

type reader struct {
	b   []byte
	err error
}

func (r *reader) mini() page.MiniTID {
	if r.err != nil {
		return page.NilMini
	}
	m, err := page.DecodeMiniTID(r.b)
	if err != nil {
		r.err = err
		return page.NilMini
	}
	r.b = r.b[page.EncodedMiniTIDLen:]
	return m
}

func (r *reader) count() int {
	if r.err != nil {
		return 0
	}
	n, sz := binary.Uvarint(r.b)
	if sz <= 0 {
		r.err = dberr.Corruptf("object: corrupt MD subtuple count")
		return 0
	}
	r.b = r.b[sz:]
	return int(n)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return dberr.Corruptf("object: %d trailing bytes in MD subtuple", len(r.b))
	}
	return nil
}
