package object

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
)

// levelHandle is the decoded structural information of one
// (sub)object: its data subtuple pointer plus, depending on the
// layout, C pointers to subtable MD subtuples (SS1/SS3) or inline
// member pointer groups (SS2). self records where the node body
// lives so mutations can rewrite it: NilMini for the root (whose body
// lives in the root MD subtuple) and for SS3 members (whose entry is
// embedded in the parent subtable's MD subtuple).
type levelHandle struct {
	d      page.MiniTID
	subC   []page.MiniTID   // SS1, SS3: one per subtable
	groups [][]page.MiniTID // SS2: member pointers per subtable
	self   page.MiniTID
	isRoot bool
}

// rootHandle decodes the root node body.
func (o *objCtx) rootHandle(tt *model.TableType, body []byte) (levelHandle, error) {
	h := levelHandle{self: page.NilMini, isRoot: true}
	err := o.parseNode(&h, len(tt.TableIndexes()), body, nil)
	return h, err
}

// memberHandles returns the handles of all members of subtable gi
// (index among table-valued attributes) of the object level h, in
// stored order. For flat subtables the handles carry only the data
// pointer. The handles of one subtable are one carve of the read's
// handles, and so are their C pointers under SS1 and SS3: decoding a
// subtable costs a fixed number of allocations, not one per member,
// and none at all in an arena the last object sized.
func (o *objCtx) memberHandles(sub *model.TableType, h *levelHandle, gi int) ([]levelHandle, error) {
	if o.m.layout == SS2 {
		hs := o.hs.take(len(h.groups[gi]))
		for i, ptr := range h.groups[gi] {
			hs[i] = levelHandle{d: ptr, self: page.NilMini}
		}
		return hs, o.memberNodes(sub, hs)
	}
	raw, err := o.view(h.subC[gi])
	if err != nil {
		return nil, err
	}
	hs, err := o.parseSubtableMD(sub, raw)
	o.done()
	if err == nil && o.m.layout == SS1 {
		err = o.memberNodes(sub, hs)
	}
	return hs, err
}

// memberPtrs returns the pointers the parent structure of subtable gi
// of the level under h records, one per member in stored order: the
// inline group h holds under SS2, the subtable MD's pointer list under
// SS1, and under SS3 — for a flat subtable only, whose entries are bare
// pointers — likewise its pointer list. A flat member's pointer is its
// D pointer under every layout, and all its read needs.
func (o *objCtx) memberPtrs(h *levelHandle, gi int) ([]page.MiniTID, error) {
	if o.m.layout == SS2 {
		return h.groups[gi], nil
	}
	raw, err := o.view(h.subC[gi])
	if err != nil {
		return nil, err
	}
	ptrs, err := o.decodePtrList(raw)
	o.done()
	return ptrs, err
}

// memberList holds the members of one subtable in stored order, as
// members returns them.
type memberList struct {
	ptrs []page.MiniTID // a flat subtable's: the members' D pointers
	hs   []levelHandle  // a complex subtable's: the members' handles
}

// members returns the members of subtable gi of the level under h: a
// flat subtable's as the D pointers its parent structure records
// (memberPtrs), with no handle built for them, a complex one's as
// handles (memberHandles).
func (o *objCtx) members(sub *model.TableType, h *levelHandle, gi int) (memberList, error) {
	var l memberList
	var err error
	if sub.Flat() {
		l.ptrs, err = o.memberPtrs(h, gi)
	} else {
		l.hs, err = o.memberHandles(sub, h, gi)
	}
	return l, err
}

func (l *memberList) len() int { return len(l.ptrs) + len(l.hs) }

// at returns the handle of member i: a complex member's own, a flat
// member's built in *flat. The caller brings flat, so that no pointer
// into l escapes through the recursion it walks.
func (l *memberList) at(i int, flat *levelHandle) *levelHandle {
	if l.hs != nil {
		return &l.hs[i]
	}
	*flat = levelHandle{d: l.ptrs[i], self: page.NilMini}
	return flat
}

// mdEntries splits a subtable MD subtuple — a count, then one entry of
// es bytes per member — into the count and the entries. The count is
// compared with the body before anything is multiplied or sized by it:
// a rotten count is a corruption error, not a slab of its size, and so
// are bytes after the last entry.
func mdEntries(raw []byte, es int) (int, []byte, error) {
	n, sz := binary.Uvarint(raw)
	if sz <= 0 {
		return 0, nil, dberr.Corruptf("object: corrupt subtable MD")
	}
	body := raw[sz:]
	if n > uint64(len(body)/es) || len(body) != int(n)*es {
		return 0, nil, dberr.Corruptf("object: subtable MD has %d bytes, want %d entries × %d", len(body), n, es)
	}
	return int(n), body, nil
}

// decodePtrList decodes a pointer list — an SS1 subtable MD subtuple,
// or an SS3 one of a flat subtable — into a carve of the context's Mini
// TIDs: the one decoder of the format for the readers and writers that
// want the pointers themselves rather than handles (parseSubtableMD).
func (o *objCtx) decodePtrList(raw []byte) ([]page.MiniTID, error) {
	n, body, err := mdEntries(raw, page.EncodedMiniTIDLen)
	if err != nil {
		return nil, err
	}
	ptrs := o.minis.take(n)
	for i := range ptrs {
		if ptrs[i], err = page.DecodeMiniTID(body[i*page.EncodedMiniTIDLen:]); err != nil {
			return nil, err
		}
	}
	return ptrs, nil
}

// parseSubtableMD decodes a subtable MD subtuple (SS1: a count and one
// pointer per member; SS3: a count and one embedded entry per member)
// in place. Under SS1 the pointer is left in each handle's d, for
// memberNodes to follow.
func (o *objCtx) parseSubtableMD(sub *model.TableType, raw []byte) ([]levelHandle, error) {
	es := page.EncodedMiniTIDLen
	nsub := len(sub.TableIndexes())
	embedded := o.m.layout == SS3 && nsub > 0
	if embedded {
		es = entrySize(sub)
	}
	n, body, err := mdEntries(raw, es)
	if err != nil {
		return nil, err
	}
	hs := o.hs.take(n)
	var cs []page.MiniTID
	if embedded {
		cs = o.minis.take(n * nsub)
	}
	for i := range hs {
		hs[i].self = page.NilMini
		entry := body[i*es : (i+1)*es]
		if !embedded {
			if hs[i].d, err = page.DecodeMiniTID(entry); err != nil {
				return nil, err
			}
			continue
		}
		if err := o.parseNode(&hs[i], nsub, entry, cs[i*nsub:(i+1)*nsub]); err != nil {
			return nil, err
		}
	}
	return hs, nil
}

// memberNodes completes the handles of SS1 and SS2 members. The
// pointer recorded in the parent structure (left in d) is the D
// pointer of a flat member and the C pointer to the own MD subtuple of
// a complex one, which is read here.
func (o *objCtx) memberNodes(sub *model.TableType, hs []levelHandle) error {
	nsub := len(sub.TableIndexes())
	if nsub == 0 {
		return nil
	}
	var cs []page.MiniTID
	if o.m.layout == SS1 {
		cs = o.minis.take(len(hs) * nsub)
	}
	for i := range hs {
		self := hs[i].d
		raw, err := o.view(self)
		if err != nil {
			return err
		}
		var c []page.MiniTID
		if cs != nil {
			c = cs[i*nsub : (i+1)*nsub]
		}
		err = o.parseNode(&hs[i], nsub, raw, c)
		o.done()
		if err != nil {
			return err
		}
		hs[i].self = self
	}
	return nil
}

// readAtoms fetches and decodes the data subtuple of a level.
func (o *objCtx) readAtoms(d page.MiniTID) ([]model.Value, error) {
	raw, err := o.view(d)
	if err != nil {
		return nil, err
	}
	atoms, err := model.DecodeAtoms(raw)
	o.done()
	return atoms, err
}

// readAtomsInto decodes the data subtuple of a level straight into
// the level's tuple, its atoms into the read's slab. Data subtuples
// written before an ALTER TABLE ADD carry fewer atoms than the current
// schema; the missing (newest) attributes read as null.
func (o *objCtx) readAtomsInto(dst model.Tuple, tt *model.TableType, d page.MiniTID) error {
	raw, err := o.view(d)
	if err != nil {
		return err
	}
	slots := tt.AtomicIndexes()
	n, err := model.DecodeAtomsInto(raw, dst, slots, &o.slab)
	o.done()
	if err != nil {
		return err
	}
	nullAtoms(dst, slots[n:])
	return nil
}

func nullAtoms(dst model.Tuple, slots []int) {
	for _, ai := range slots {
		dst[ai] = model.Null{}
	}
}

// fetch is the one materializer: it builds the (sub)object under the
// handle as a tuple of the full schema shape, reading only what ps
// selects. Unrequested atomic attributes read as null and unrequested
// subtables as empty tables — as null too in an arena with reuse, whose
// caller keeps atoms only; requested subtable levels carry their true
// membership. Each subtuple is viewed in place, decoded into its
// destination and let go before the next one is touched; nothing the
// tuple references is shared with a page. The containers — the tuple,
// its subtable headers, Tuples slices and member tuples — are carved
// from the context: fresh, unless the context is an arena with reuse,
// where they are valid until its next read. The atoms of one read share
// a slab whose chunks no other read shares: they stay valid for good.
func (o *objCtx) fetch(tt *model.TableType, h *levelHandle, ps *PathSet) (model.Tuple, error) {
	tup := model.Tuple(o.vals.take(len(tt.Attrs)))
	if err := o.fetchInto(tup, tt, h, ps); err != nil {
		return nil, err
	}
	return tup, nil
}

func (o *objCtx) fetchInto(dst model.Tuple, tt *model.TableType, h *levelHandle, ps *PathSet) error {
	if err := o.fetchAtoms(dst, tt, h.d, ps); err != nil {
		return err
	}
	for gi, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		sps := ps.sub(ti)
		if sps == nil {
			if o.reuse {
				dst[ti] = model.Null{} // the caller keeps atoms only
			} else {
				dst[ti] = o.table(sub.Ordered)
			}
			continue
		}
		tbl, err := o.fetchSubtable(sub, h, gi, sps)
		if err != nil {
			return err
		}
		dst[ti] = tbl
	}
	return nil
}

// fetchAtoms fills the atomic attributes of a level from its data
// subtuple d when ps requests them, and with nulls when it does not.
func (o *objCtx) fetchAtoms(dst model.Tuple, tt *model.TableType, d page.MiniTID, ps *PathSet) error {
	if ps.All || ps.Atoms {
		return o.readAtomsInto(dst, tt, d)
	}
	nullAtoms(dst, tt.AtomicIndexes())
	return nil
}

// fetchSubtable materializes subtable gi of the level under h. The
// member tuples are cut from one carve of values, each capped to its
// own length so that appending to one cannot reach the next. A flat
// member is read straight from the D pointer its parent structure
// records (members); only complex members get handles.
func (o *objCtx) fetchSubtable(sub *model.TableType, h *levelHandle, gi int, ps *PathSet) (*model.Table, error) {
	ms, err := o.members(sub, h, gi)
	if err != nil {
		return nil, err
	}
	tbl := o.table(sub.Ordered)
	n := ms.len()
	if n == 0 {
		return tbl, nil
	}
	k := len(sub.Attrs)
	vals := o.vals.take(n * k)
	tbl.Tuples = o.tups.take(n)
	var flat levelHandle
	for i := range n {
		mt := model.Tuple(vals[i*k : (i+1)*k : (i+1)*k])
		if err := o.fetchInto(mt, sub, ms.at(i, &flat), ps); err != nil {
			return nil, err
		}
		tbl.Tuples[i] = mt
	}
	return tbl, nil
}

// Read materializes the whole complex object.
func (m *Manager) Read(tt *model.TableType, ref Ref) (model.Tuple, error) {
	return m.ReadPruned(tt, ref, 0, nil)
}

// ReadAsOf materializes the complex object as of the given instant
// (0 means current state). The store must be versioned for non-zero
// timestamps.
func (m *Manager) ReadAsOf(tt *model.TableType, ref Ref, asof int64) (model.Tuple, error) {
	return m.ReadPruned(tt, ref, asof, nil)
}

// ReadPruned materializes only the parts of the object selected by ps
// (nil ps reads everything), as of the given instant (0 = current).
// This is the path-pruned read the access layer uses for projection
// and predicate pushdown — the promise of §4.1: the read touches the
// MD subtuples along the requested paths plus the data subtuples of
// the levels whose atoms are requested, and fetches each page of the
// object once. When ps carries a pre-test, it runs first, in the same
// window of pages; an object that fails it is reported as a nil
// tuple with a nil error, and nothing of it is materialized.
//
// A one-shot read carves from an arena of its own, fresh everything;
// an object cursor reads through one Arena for all its objects.
func (m *Manager) ReadPruned(tt *model.TableType, ref Ref, asof int64, ps *PathSet) (model.Tuple, error) {
	return m.NewArena(false).ReadPruned(tt, ref, asof, ps)
}

// Step addresses one navigation move: descend into the table-valued
// attribute Attr (an index into the level's Attrs) and select the
// member at position Pos. Pos == -1 addresses the subtable itself
// (only valid as the final step).
type Step struct {
	Attr int
	Pos  int
}

// locate descends to the handle addressed by steps (all with
// Pos >= 0) and returns it with the type of its level; path, when
// non-nil, collects the data-subtuple Mini TIDs of the subobjects the
// descent passes (the hierarchical data path of Fig 7b). The descent
// touches only MD subtuples — "navigation in a complex object can be
// done on the structural information without having to access the
// data at all" (§4.1) — except SS2/SS1 member-node reads, which are
// themselves MD subtuples.
func (o *objCtx) locate(tt *model.TableType, h levelHandle, steps []Step, path *[]page.MiniTID) (*model.TableType, levelHandle, error) {
	cur, curT := h, tt
	for _, st := range steps {
		gi, err := giOf(curT, st.Attr)
		if err != nil {
			return nil, levelHandle{}, err
		}
		sub := curT.Attrs[st.Attr].Type.Table
		hs, err := o.memberHandles(sub, &cur, gi)
		if err != nil {
			return nil, levelHandle{}, err
		}
		if st.Pos < 0 || st.Pos >= len(hs) {
			return nil, levelHandle{}, fmt.Errorf("%w: position %d of %d members", ErrBadPath, st.Pos, len(hs))
		}
		cur, curT = hs[st.Pos], sub
		if path != nil {
			*path = append(*path, cur.d)
		}
	}
	return curT, cur, nil
}

// open loads the object's context as of an instant (0 = current) and
// its root handle, and descends to the level addressed by steps. The
// caller ends the context with done.
func (m *Manager) open(tt *model.TableType, ref Ref, asof int64, steps []Step) (*objCtx, *model.TableType, levelHandle, error) {
	o, body, err := m.loadCtx(ref, asof)
	if err != nil {
		return nil, nil, levelHandle{}, err
	}
	h, err := o.rootHandle(tt, body)
	if err == nil {
		var lt *model.TableType
		if lt, h, err = o.locate(tt, h, steps, nil); err == nil {
			return o, lt, h, nil
		}
	}
	o.end()
	return nil, nil, levelHandle{}, err
}

// ReadSubobject materializes the subobject addressed by steps without
// reading the rest of the object.
func (m *Manager) ReadSubobject(tt *model.TableType, ref Ref, steps ...Step) (model.Tuple, error) {
	o, lt, lh, err := m.open(tt, ref, 0, steps)
	if err != nil {
		return nil, err
	}
	defer o.end()
	return o.fetch(lt, &lh, allSet)
}

// ReadSubtable materializes one subtable instance: steps address a
// subobject (possibly none for the top level) and attr names the
// table-valued attribute to read.
func (m *Manager) ReadSubtable(tt *model.TableType, ref Ref, attr int, steps ...Step) (*model.Table, error) {
	o, lt, lh, err := m.open(tt, ref, 0, steps)
	if err != nil {
		return nil, err
	}
	defer o.end()
	gi, err := giOf(lt, attr)
	if err != nil {
		return nil, err
	}
	return o.fetchSubtable(lt.Attrs[attr].Type.Table, &lh, gi, allSet)
}

// ReadAtomsAt returns only the atomic attribute values of the
// (sub)object addressed by steps — a partial retrieval that does not
// touch the subobject's subtables.
func (m *Manager) ReadAtomsAt(tt *model.TableType, ref Ref, steps ...Step) ([]model.Value, error) {
	o, _, lh, err := m.open(tt, ref, 0, steps)
	if err != nil {
		return nil, err
	}
	defer o.end()
	return o.readAtoms(lh.d)
}

// ReadDataPath reads the data subtuple at the end of a hierarchical
// address path (the Mini TIDs of the data subtuples of successive
// complex subobjects, as in Fig 7b) with a single subtuple access
// after loading the root — the direct location of "a certain piece of
// data" that §4.2 demands from index addresses.
func (m *Manager) ReadDataPath(ref Ref, dpath []page.MiniTID) ([]model.Value, error) {
	o, _, err := m.loadCtx(ref, 0)
	if err != nil {
		return nil, err
	}
	defer o.end()
	if len(dpath) == 0 {
		return nil, fmt.Errorf("object: empty data path")
	}
	return o.readAtoms(dpath[len(dpath)-1])
}

// Stats describes the physical composition of one complex object —
// the quantities compared across SS1/SS2/SS3 in §4.1 and /DGW85/.
type Stats struct {
	Layout        Layout
	MDSubtuples   int // including the root MD subtuple
	MDBytes       int
	DataSubtuples int
	DataBytes     int
	Pointers      int // D and C pointers in all MD subtuples
	Pages         int // pages in the local address space (excluding gaps)
	PageListLen   int // page-list positions including gaps
	PageListGaps  int // gap positions left by emptied pages (§4.1)
}

// ObjectStats walks the object's Mini Directory and tallies its
// physical composition.
func (m *Manager) ObjectStats(tt *model.TableType, ref Ref) (Stats, error) {
	o, _, h, err := m.open(tt, ref, 0, nil)
	if err != nil {
		return Stats{}, err
	}
	defer o.end()
	s := Stats{Layout: m.layout, MDSubtuples: 1, PageListLen: len(o.pages)}
	raw, err := o.viewTID(ref)
	if err != nil {
		return Stats{}, err
	}
	s.MDBytes = len(raw)
	o.done()
	for _, pg := range o.pages {
		if pg != 0 {
			s.Pages++
		} else {
			s.PageListGaps++
		}
	}
	if err := o.statsLevel(tt, &h, &s); err != nil {
		return Stats{}, err
	}
	return s, nil
}

// size returns the payload length of a subtuple of the object.
func (o *objCtx) size(mt page.MiniTID) (int, error) {
	raw, err := o.view(mt)
	o.done()
	return len(raw), err
}

func (o *objCtx) statsLevel(tt *model.TableType, h *levelHandle, s *Stats) error {
	n, err := o.size(h.d)
	if err != nil {
		return err
	}
	s.DataSubtuples++
	s.DataBytes += n
	// This level's own pointers: one D pointer plus, per layout, one C
	// pointer per subtable (SS1/SS3) or one pointer per member in each
	// inline group (SS2).
	s.Pointers++
	layout := o.m.layout
	for gi, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		hs, err := o.memberHandles(sub, h, gi)
		if err != nil {
			return err
		}
		switch layout {
		case SS1, SS3:
			s.Pointers++ // C pointer to the subtable MD
			n, err := o.size(h.subC[gi])
			if err != nil {
				return err
			}
			s.MDSubtuples++
			s.MDBytes += n
			if layout == SS1 || sub.Flat() {
				// SS1: the subtable MD holds one pointer per member.
				// SS3 with flat members: each entry is one D pointer.
				s.Pointers += len(hs)
			}
			// SS3 with complex members: the entries carry the members'
			// own D and C pointers, counted in the recursion.
		case SS2:
			s.Pointers += len(hs)
		}
		for i := range hs {
			if sub.Flat() {
				n, err := o.size(hs[i].d)
				if err != nil {
					return err
				}
				s.DataSubtuples++
				s.DataBytes += n
				continue
			}
			if layout == SS1 || layout == SS2 {
				// The complex member has its own MD subtuple.
				n, err := o.size(hs[i].self)
				if err != nil {
					return err
				}
				s.MDSubtuples++
				s.MDBytes += n
			}
			if err := o.statsLevel(sub, &hs[i], s); err != nil {
				return err
			}
		}
	}
	return nil
}

// DataPathAt returns the hierarchical data path (the Mini TIDs of the
// data subtuples of the complex subobjects from level 1 down to the
// target) for the subobject addressed by steps; empty steps address
// the object itself, whose path is its own data subtuple.
func (m *Manager) DataPathAt(tt *model.TableType, ref Ref, steps ...Step) ([]page.MiniTID, error) {
	o, _, h, err := m.open(tt, ref, 0, nil)
	if err != nil {
		return nil, err
	}
	defer o.end()
	if len(steps) == 0 {
		return []page.MiniTID{h.d}, nil
	}
	path := make([]page.MiniTID, 0, len(steps))
	if _, _, err := o.locate(tt, h, steps, &path); err != nil {
		return nil, err
	}
	return path, nil
}

// FindByDataPath locates the subobject whose hierarchical data path
// is dpath and returns the navigation steps to it — the inverse of
// DataPathAt, used to resolve tuple names and index addresses back to
// subobjects.
func (m *Manager) FindByDataPath(tt *model.TableType, ref Ref, dpath []page.MiniTID) ([]Step, error) {
	o, _, h, err := m.open(tt, ref, 0, nil)
	if err != nil {
		return nil, err
	}
	defer o.end()
	if len(dpath) == 1 && dpath[0] == h.d {
		return []Step{}, nil
	}
	var steps []Step
	cur, curT := h, tt
	for _, want := range dpath {
		found := false
		for gi, ti := range curT.TableIndexes() {
			sub := curT.Attrs[ti].Type.Table
			hs, err := o.memberHandles(sub, &cur, gi)
			if err != nil {
				return nil, err
			}
			for pos, mh := range hs {
				if mh.d == want {
					steps = append(steps, Step{Attr: ti, Pos: pos})
					cur, curT = mh, sub
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: data path component %v not found", ErrBadPath, want)
		}
	}
	return steps, nil
}

// HistoryAt returns the version history (newest first) of the atomic
// attribute values of the (sub)object addressed by steps — the
// walk-through-time access of §5, surfaced at the object level but,
// as in the paper, not at the language interface.
func (m *Manager) HistoryAt(tt *model.TableType, ref Ref, steps ...Step) ([]AtomsVersion, error) {
	o, _, lh, err := m.open(tt, ref, 0, steps)
	if err != nil {
		return nil, err
	}
	defer o.end()
	tid, err := o.resolve(lh.d)
	if err != nil {
		return nil, err
	}
	raws, err := m.st.History(tid)
	if err != nil {
		return nil, err
	}
	out := make([]AtomsVersion, 0, len(raws))
	for _, v := range raws {
		av := AtomsVersion{FromTS: v.FromTS, Deleted: v.Deleted}
		if !v.Deleted {
			av.Atoms, err = model.DecodeAtoms(v.Payload)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, av)
	}
	return out, nil
}

// AtomsVersion is one historical state of a (sub)object's atomic
// attribute values.
type AtomsVersion struct {
	FromTS  int64
	Atoms   []model.Value
	Deleted bool
}
