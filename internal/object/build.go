package object

import (
	"encoding/binary"

	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
)

// placeAtoms stores the data subtuple holding the level's atomic
// attribute values. Every (sub)object gets a data subtuple, even when
// it has no atomic attributes (an empty one) — this keeps hierarchical
// addresses uniform (§4.3 notes the need for a slightly modified
// scheme there; materializing the empty data subtuple is ours).
func placeAtoms(o *objCtx, tt *model.TableType, tup model.Tuple) (page.MiniTID, error) {
	payload, err := model.EncodeAtoms(model.Atoms(tt, tup))
	if err != nil {
		return page.NilMini, err
	}
	return o.place(payload)
}

// buildLevel stores the data subtuples and MD subtuples of one
// (sub)object according to the manager's layout and returns the
// object-node body:
//
//	SS1/SS3: [D mini][C mini per subtable]       (fixed length)
//	SS2:     [D mini] + per subtable: [count][member pointer ...]
//
// For SS1 and SS2 this body is also what gets stored as a complex
// subobject's own MD subtuple; for SS3 it is the per-member entry
// embedded in the parent subtable's MD subtuple.
func (m *Manager) buildLevel(o *objCtx, tt *model.TableType, tup model.Tuple) ([]byte, error) {
	d, err := placeAtoms(o, tt, tup)
	if err != nil {
		return nil, err
	}
	body := page.AppendMiniTID(nil, d)
	for _, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		tbl, _ := tup[ti].(*model.Table)
		switch m.layout {
		case SS1, SS3:
			mdMini, err := m.buildSubtableMD(o, sub, tbl)
			if err != nil {
				return nil, err
			}
			body = page.AppendMiniTID(body, mdMini)
		case SS2:
			body = binary.AppendUvarint(body, uint64(tbl.Len()))
			for _, member := range tbl.Tuples {
				ptr, err := m.buildMemberSS2(o, sub, member)
				if err != nil {
					return nil, err
				}
				body = page.AppendMiniTID(body, ptr)
			}
		}
	}
	return body, nil
}

// buildSubtableMD stores one subtable instance's MD subtuple (SS1 and
// SS3 only) and returns its Mini TID. The sequence of entries encodes
// the sorting order of ordered subtables (lists), as §4.1 prescribes.
func (m *Manager) buildSubtableMD(o *objCtx, sub *model.TableType, tbl *model.Table) (page.MiniTID, error) {
	body := binary.AppendUvarint(nil, uint64(tbl.Len()))
	for _, member := range tbl.Tuples {
		switch {
		case sub.Flat():
			// Flat subobject: one data subtuple, one D pointer.
			d, err := placeAtoms(o, sub, member)
			if err != nil {
				return page.NilMini, err
			}
			body = page.AppendMiniTID(body, d)
		case m.layout == SS1:
			// Complex subobject gets its own MD subtuple; the subtable
			// MD holds a C pointer to it.
			nodeBody, err := m.buildLevel(o, sub, member)
			if err != nil {
				return page.NilMini, err
			}
			c, err := o.place(nodeBody)
			if err != nil {
				return page.NilMini, err
			}
			body = page.AppendMiniTID(body, c)
		default: // SS3
			// The member's structural entry is embedded right here;
			// complex subobjects have no MD subtuple of their own.
			entry, err := m.buildLevel(o, sub, member)
			if err != nil {
				return page.NilMini, err
			}
			body = append(body, entry...)
		}
	}
	return o.place(body)
}

// buildMemberSS2 stores one member of a subtable under SS2 and
// returns the pointer recorded in the parent node: a D pointer to the
// data subtuple for flat members, a C pointer to the member's own
// (variable length) MD subtuple for complex members.
func (m *Manager) buildMemberSS2(o *objCtx, sub *model.TableType, member model.Tuple) (page.MiniTID, error) {
	if sub.Flat() {
		return placeAtoms(o, sub, member)
	}
	nodeBody, err := m.buildLevel(o, sub, member)
	if err != nil {
		return page.NilMini, err
	}
	return o.place(nodeBody)
}

// Insert stores the tuple as a new complex object and returns its
// reference (the TID of its root MD subtuple). The root MD subtuple
// is placed inside the object's own page set, so the whole object —
// structure and data — is clustered on its local address space.
func (m *Manager) Insert(tt *model.TableType, tup model.Tuple) (Ref, error) {
	if err := model.Conform(tt, tup); err != nil {
		return Ref{}, err
	}
	o := m.newCtx()
	body, err := m.buildLevel(o, tt, tup)
	if err != nil {
		return Ref{}, err
	}
	o.dirty = false
	mini, err := o.place(o.encodeEnvelope(body))
	if err != nil {
		return Ref{}, err
	}
	root, err := o.resolve(mini)
	if err != nil {
		return Ref{}, err
	}
	o.root = root
	if o.dirty {
		// Placing the root extended the page list; rewrite the
		// envelope so the list is complete.
		if err := m.st.Update(root, o.encodeEnvelope(body)); err != nil {
			return Ref{}, err
		}
	}
	return root, nil
}

// entrySize returns the fixed byte length of an SS3 member entry (or
// an SS1/SS3 object-node body) for the given level type: one D
// pointer plus one C pointer per subtable.
func entrySize(tt *model.TableType) int {
	return page.EncodedMiniTIDLen * (1 + len(tt.TableIndexes()))
}

// parseNode decodes an object-node body produced by buildLevel, of a
// level with nsub subtables, into h (d, and subC or groups; the other
// fields are the caller's). The body may be a view of a page: nothing
// in h aliases it. subC is stored in cs when the caller brings a
// slice of nsub pointers, in a carve of the context's otherwise.
func (o *objCtx) parseNode(h *levelHandle, nsub int, body []byte, cs []page.MiniTID) error {
	r := reader{b: body}
	h.d = r.mini()
	switch o.m.layout {
	case SS1, SS3:
		if cs == nil {
			cs = o.minis.take(nsub)
		}
		for i := range cs {
			cs[i] = r.mini()
		}
		h.subC = cs
	case SS2:
		h.groups = o.groups.take(nsub)
		for i := range h.groups {
			n := r.count()
			// Each member pointer occupies EncodedMiniTIDLen bytes, so a
			// count beyond the remaining body is rot — reject it before
			// sizing the slice by it.
			if n > len(r.b)/page.EncodedMiniTIDLen {
				return dberr.Corruptf("object: member count %d exceeds node body", n)
			}
			g := o.minis.take(n)
			for j := range g {
				g[j] = r.mini()
			}
			h.groups[i] = g
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return dberr.Corruptf("object: trailing bytes in node body")
	}
	return nil
}

// encodeNode re-serializes a handle back into a node body.
func (m *Manager) encodeNode(h levelHandle) []byte {
	body := page.AppendMiniTID(nil, h.d)
	switch m.layout {
	case SS1, SS3:
		for _, c := range h.subC {
			body = page.AppendMiniTID(body, c)
		}
	case SS2:
		for _, g := range h.groups {
			body = binary.AppendUvarint(body, uint64(len(g)))
			for _, ptr := range g {
				body = page.AppendMiniTID(body, ptr)
			}
		}
	}
	return body
}
