package object

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/page"
)

// giOf maps an attribute index to its position among the level's
// table-valued attributes.
func giOf(tt *model.TableType, attr int) (int, error) {
	if attr < 0 || attr >= len(tt.Attrs) || tt.Attrs[attr].Type.Kind != model.KindTable {
		return 0, fmt.Errorf("%w: attr %d is not a subtable", ErrBadPath, attr)
	}
	gi := 0
	for _, ti := range tt.TableIndexes() {
		if ti == attr {
			return gi, nil
		}
		gi++
	}
	return 0, fmt.Errorf("%w: attr %d is not a subtable", ErrBadPath, attr)
}

// UpdateAtoms overwrites the atomic attribute values of the
// (sub)object addressed by steps. Only the data subtuple is touched;
// the Mini Directory is not changed at all — the separation of
// structure and data at work.
func (m *Manager) UpdateAtoms(tt *model.TableType, ref Ref, vals []model.Value, steps ...Step) error {
	return m.UpdateAtomsProbed(tt, ref, steps, vals, nil, nil)
}

// UpdateAtomsProbed is UpdateAtoms reporting, for every probe at the
// updated level, the probed atom before and after: fn(old, new) runs
// once per such probe, before the new payload is written, with the
// previous payload cut in place by the same object context that writes
// the new one. Both hits carry the subobject's data path and data TID,
// which the update does not change. Probes at other levels cannot
// change and are not looked at; without a probe at the level the
// previous payload is not read.
func (m *Manager) UpdateAtomsProbed(tt *model.TableType, ref Ref, steps []Step, vals []model.Value, probes []Probe, fn func(old, new *Hit) error) error {
	w, lt, lh, err := m.walkTo(tt, ref, steps, probes)
	if err != nil {
		return err
	}
	defer w.o.end()
	idx := lt.AtomicIndexes()
	if len(vals) != len(idx) {
		return fmt.Errorf("object: %d atomic values, level has %d atomic attributes", len(vals), len(idx))
	}
	for i, ai := range idx {
		if model.IsNull(vals[i]) {
			continue
		}
		if vals[i].Kind() != lt.Attrs[ai].Type.Kind {
			return fmt.Errorf("object: attribute %q requires %s, got %s", lt.Attrs[ai].Name, lt.Attrs[ai].Type.Kind, vals[i].Kind())
		}
	}
	payload, err := model.EncodeAtoms(vals)
	if err != nil {
		return err
	}
	if fn != nil && w.here() {
		if err := w.view(lt, lh.d); err != nil {
			return err
		}
		n := len(w.hits)
		if err := w.cut(payload, len(idx)); err != nil {
			return err
		}
		tid, path, err := w.addr(lh.d)
		if err != nil {
			return err
		}
		for i, before := range w.hits[:n] {
			after := w.hits[n+i]
			w.hit[0] = Hit{Probe: before.probe, Path: path, Data: tid, Key: w.keyOf(before)}
			w.hit[1] = Hit{Probe: after.probe, Path: path, Data: tid, Key: w.keyOf(after)}
			if err := fn(&w.hit[0], &w.hit[1]); err != nil {
				return err
			}
		}
	}
	return w.o.update(lh.d, payload)
}

// InsertMember inserts a new member tuple into the subtable attr of
// the (sub)object addressed by steps, at position pos (-1 appends; for
// ordered subtables the position defines the list order). Only the
// affected subtable's structural information is rewritten.
func (m *Manager) InsertMember(tt *model.TableType, ref Ref, steps []Step, attr, pos int, member model.Tuple) error {
	_, err := m.InsertMemberPos(tt, ref, steps, attr, pos, member)
	return err
}

// InsertMemberPos is InsertMember reporting the position the member
// took: the subtree of the new member is steps followed by
// Step{attr, position}.
func (m *Manager) InsertMemberPos(tt *model.TableType, ref Ref, steps []Step, attr, pos int, member model.Tuple) (int, error) {
	o, rootBody, err := m.loadCtx(ref, 0)
	if err != nil {
		return 0, err
	}
	defer o.end()
	h, err := o.rootHandle(tt, rootBody)
	if err != nil {
		return 0, err
	}
	lt, lh, err := o.locate(tt, h, steps, nil)
	if err != nil {
		return 0, err
	}
	gi, err := giOf(lt, attr)
	if err != nil {
		return 0, err
	}
	sub := lt.Attrs[attr].Type.Table
	if err := model.Conform(sub, member); err != nil {
		return 0, err
	}

	switch m.layout {
	case SS1, SS2:
		// Build the member and obtain the single pointer recorded in
		// the parent structure.
		var ptr page.MiniTID
		if sub.Flat() {
			ptr, err = placeAtoms(o, sub, member)
		} else {
			var nodeBody []byte
			nodeBody, err = m.buildLevel(o, sub, member)
			if err == nil {
				ptr, err = o.place(nodeBody)
			}
		}
		if err != nil {
			return 0, err
		}
		if m.layout == SS1 {
			// Splice the pointer into the subtable MD subtuple.
			raw, err := o.read(lh.subC[gi])
			if err != nil {
				return 0, err
			}
			ptrs, err := o.decodePtrList(raw)
			if err != nil {
				return 0, err
			}
			if pos < 0 {
				pos = len(ptrs)
			}
			ptrs, err = spliceIn(ptrs, pos, ptr)
			if err != nil {
				return 0, err
			}
			if err := o.update(lh.subC[gi], encodePtrList(ptrs)); err != nil {
				return 0, err
			}
		} else {
			// SS2: the group lives inline in the parent node body.
			if pos < 0 {
				pos = len(lh.groups[gi])
			}
			g, err := spliceIn(lh.groups[gi], pos, ptr)
			if err != nil {
				return 0, err
			}
			lh.groups[gi] = g
			nb := m.encodeNode(lh)
			if lh.isRoot {
				rootBody = nb
				o.dirty = true
			} else if err := o.update(lh.self, nb); err != nil {
				return 0, err
			}
		}
	case SS3:
		// Build the member's embedded entry and splice it into the
		// subtable MD subtuple.
		var entry []byte
		if sub.Flat() {
			d, err := placeAtoms(o, sub, member)
			if err != nil {
				return 0, err
			}
			entry = page.AppendMiniTID(nil, d)
		} else {
			entry, err = m.buildLevel(o, sub, member)
			if err != nil {
				return 0, err
			}
		}
		raw, err := o.read(lh.subC[gi])
		if err != nil {
			return 0, err
		}
		es := len(entry)
		n, bodyBytes, err := mdEntries(raw, es)
		if err != nil {
			return 0, err
		}
		if pos < 0 {
			pos = n
		}
		if pos > n {
			return 0, fmt.Errorf("%w: position %d of %d members", ErrBadPath, pos, n)
		}
		nb := binary.AppendUvarint(nil, uint64(n+1))
		nb = append(nb, bodyBytes[:pos*es]...)
		nb = append(nb, entry...)
		nb = append(nb, bodyBytes[pos*es:]...)
		if err := o.update(lh.subC[gi], nb); err != nil {
			return 0, err
		}
	}
	if o.dirty {
		return pos, o.flushRoot(rootBody)
	}
	return pos, nil
}

func spliceIn(ptrs []page.MiniTID, pos int, ptr page.MiniTID) ([]page.MiniTID, error) {
	if pos > len(ptrs) {
		return nil, fmt.Errorf("%w: position %d of %d members", ErrBadPath, pos, len(ptrs))
	}
	out := make([]page.MiniTID, 0, len(ptrs)+1)
	out = append(out, ptrs[:pos]...)
	out = append(out, ptr)
	out = append(out, ptrs[pos:]...)
	return out, nil
}

func encodePtrList(ptrs []page.MiniTID) []byte {
	b := binary.AppendUvarint(nil, uint64(len(ptrs)))
	for _, p := range ptrs {
		b = page.AppendMiniTID(b, p)
	}
	return b
}

// DeleteMember removes the member at position pos of subtable attr of
// the (sub)object addressed by steps, freeing all its subtuples.
func (m *Manager) DeleteMember(tt *model.TableType, ref Ref, steps []Step, attr, pos int) error {
	o, rootBody, err := m.loadCtx(ref, 0)
	if err != nil {
		return err
	}
	defer o.end()
	h, err := o.rootHandle(tt, rootBody)
	if err != nil {
		return err
	}
	lt, lh, err := o.locate(tt, h, steps, nil)
	if err != nil {
		return err
	}
	gi, err := giOf(lt, attr)
	if err != nil {
		return err
	}
	sub := lt.Attrs[attr].Type.Table
	hs, err := o.memberHandles(sub, &lh, gi)
	if err != nil {
		return err
	}
	if pos < 0 || pos >= len(hs) {
		return fmt.Errorf("%w: position %d of %d members", ErrBadPath, pos, len(hs))
	}
	mh := hs[pos]
	// Free the member's subtuples.
	if sub.Flat() {
		if err := o.remove(mh.d); err != nil {
			return err
		}
	} else {
		if err := m.freeLevel(o, sub, mh); err != nil {
			return err
		}
		if (m.layout == SS1 || m.layout == SS2) && !mh.self.Nil() {
			if err := o.remove(mh.self); err != nil {
				return err
			}
		}
	}
	// Remove the member's entry from the parent structure.
	switch m.layout {
	case SS1:
		raw, err := o.read(lh.subC[gi])
		if err != nil {
			return err
		}
		ptrs, err := o.decodePtrList(raw)
		if err != nil {
			return err
		}
		if err := o.update(lh.subC[gi], encodePtrList(slices.Delete(ptrs, pos, pos+1))); err != nil {
			return err
		}
	case SS2:
		g := lh.groups[gi]
		lh.groups[gi] = append(append([]page.MiniTID(nil), g[:pos]...), g[pos+1:]...)
		nb := m.encodeNode(lh)
		if lh.isRoot {
			rootBody = nb
			o.dirty = true
		} else if err := o.update(lh.self, nb); err != nil {
			return err
		}
	case SS3:
		raw, err := o.read(lh.subC[gi])
		if err != nil {
			return err
		}
		es := entrySize(sub)
		n, bodyBytes, err := mdEntries(raw, es)
		if err != nil {
			return err
		}
		nb := binary.AppendUvarint(nil, uint64(n-1))
		nb = append(nb, bodyBytes[:pos*es]...)
		nb = append(nb, bodyBytes[(pos+1)*es:]...)
		if err := o.update(lh.subC[gi], nb); err != nil {
			return err
		}
	}
	if err := o.reap(); err != nil {
		return err
	}
	if o.dirty {
		return o.flushRoot(rootBody)
	}
	return nil
}

// freeLevel deletes all subtuples reachable from the handle (data
// subtuples, subtable MDs and member nodes), excluding the node
// record of the handle itself. A flat member is removed through the D
// pointer its parent structure records (members).
func (m *Manager) freeLevel(o *objCtx, tt *model.TableType, h levelHandle) error {
	for gi, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		ms, err := o.members(sub, &h, gi)
		if err != nil {
			return err
		}
		var flat levelHandle
		for i := range ms.len() {
			mh := ms.at(i, &flat)
			if sub.Flat() {
				if err := o.remove(mh.d); err != nil {
					return err
				}
				continue
			}
			if err := m.freeLevel(o, sub, *mh); err != nil {
				return err
			}
			if (m.layout == SS1 || m.layout == SS2) && !mh.self.Nil() {
				if err := o.remove(mh.self); err != nil {
					return err
				}
			}
		}
		if m.layout == SS1 || m.layout == SS3 {
			if err := o.remove(h.subC[gi]); err != nil {
				return err
			}
		}
	}
	return o.remove(h.d)
}

// Delete removes the whole complex object: every data and MD subtuple
// including the root. In a versioned store the subtuples are
// tombstoned and the object remains readable with ReadAsOf.
func (m *Manager) Delete(tt *model.TableType, ref Ref) error {
	o, _, h, err := m.open(tt, ref, 0, nil)
	if err != nil {
		return err
	}
	defer o.end()
	if err := m.freeLevel(o, tt, h); err != nil {
		return err
	}
	return m.st.Delete(ref)
}
