package object

import (
	"encoding/binary"

	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/subtuple"
)

// The reference read: the object read as it was before the in-place
// reader — one copying subtuple read (Store.ReadAsOf: pin, latch, copy
// the record out, unpin) per subtuple, an intermediate []Value per data
// subtuple, assemble. It shares nothing with the reader but the
// envelope and Mini TID arithmetic of objCtx, and is what the property
// tests hold fetch against. (That one copied record equals the old
// record-by-record walk is the subtuple package's own property test.)

type oracleHandle struct {
	d      page.MiniTID
	subC   []page.MiniTID
	groups [][]page.MiniTID
}

type oracle struct {
	m    *Manager
	o    *objCtx // page list only; its window is never used
	asof int64
}

func (m *Manager) oracleRead(tt *model.TableType, ref Ref, asof int64) (model.Tuple, error) {
	or := &oracle{m: m, o: &objCtx{m: m}, asof: asof}
	raw, err := or.readTID(ref)
	if err != nil {
		return nil, err
	}
	body, err := or.o.decodeEnvelope(raw)
	if err != nil {
		return nil, err
	}
	h, err := or.parseNode(tt, body)
	if err != nil {
		return nil, err
	}
	return or.readLevel(tt, h)
}

func (or *oracle) readTID(t page.TID) ([]byte, error) {
	asof := or.asof
	if asof == 0 {
		asof = subtuple.Current
	}
	data, ok, err := or.m.st.ReadAsOf(t, asof)
	if err == nil && !ok {
		err = subtuple.ErrNotFound
	}
	return data, err
}

func (or *oracle) read(mt page.MiniTID) ([]byte, error) {
	t, err := or.o.resolve(mt)
	if err != nil {
		return nil, err
	}
	data, err := or.readTID(t)
	if err != nil {
		return nil, or.o.classify(t, err)
	}
	return data, nil
}

func (or *oracle) parseNode(tt *model.TableType, body []byte) (oracleHandle, error) {
	r := &reader{b: body}
	h := oracleHandle{d: r.mini()}
	nsub := len(tt.TableIndexes())
	switch or.m.layout {
	case SS1, SS3:
		h.subC = make([]page.MiniTID, nsub)
		for i := range h.subC {
			h.subC[i] = r.mini()
		}
	case SS2:
		h.groups = make([][]page.MiniTID, nsub)
		for i := range h.groups {
			n := r.count()
			if n > len(r.b)/page.EncodedMiniTIDLen {
				return oracleHandle{}, dberr.Corruptf("object: member count %d exceeds node body", n)
			}
			g := make([]page.MiniTID, n)
			for j := range g {
				g[j] = r.mini()
			}
			h.groups[i] = g
		}
	}
	return h, r.done()
}

func (or *oracle) memberHandles(sub *model.TableType, h oracleHandle, gi int) ([]oracleHandle, error) {
	node := func(ptr page.MiniTID) (oracleHandle, error) {
		if sub.Flat() {
			return oracleHandle{d: ptr}, nil
		}
		raw, err := or.read(ptr)
		if err != nil {
			return oracleHandle{}, err
		}
		return or.parseNode(sub, raw)
	}
	var out []oracleHandle
	switch or.m.layout {
	case SS1:
		raw, err := or.read(h.subC[gi])
		if err != nil {
			return nil, err
		}
		r := &reader{b: raw}
		n := r.count()
		for i := 0; i < n && r.err == nil; i++ {
			mh, err := node(r.mini())
			if err != nil {
				return nil, err
			}
			out = append(out, mh)
		}
		return out, r.err
	case SS2:
		for _, ptr := range h.groups[gi] {
			mh, err := node(ptr)
			if err != nil {
				return nil, err
			}
			out = append(out, mh)
		}
		return out, nil
	default: // SS3
		raw, err := or.read(h.subC[gi])
		if err != nil {
			return nil, err
		}
		n, sz := binary.Uvarint(raw)
		if sz <= 0 {
			return nil, dberr.Corruptf("object: corrupt subtable MD")
		}
		body := raw[sz:]
		es := entrySize(sub)
		if sub.Flat() {
			es = page.EncodedMiniTIDLen
		}
		if len(body) != int(n)*es {
			return nil, dberr.Corruptf("object: subtable MD has %d bytes, want %d entries × %d", len(body), n, es)
		}
		for i := 0; i < int(n); i++ {
			chunk := body[i*es : (i+1)*es]
			if sub.Flat() {
				d, err := page.DecodeMiniTID(chunk)
				if err != nil {
					return nil, err
				}
				out = append(out, oracleHandle{d: d})
				continue
			}
			mh, err := or.parseNode(sub, chunk)
			if err != nil {
				return nil, err
			}
			out = append(out, mh)
		}
		return out, nil
	}
}

func (or *oracle) readLevel(tt *model.TableType, h oracleHandle) (model.Tuple, error) {
	raw, err := or.read(h.d)
	if err != nil {
		return nil, err
	}
	atoms, err := model.DecodeAtoms(raw)
	if err != nil {
		return nil, err
	}
	idx := tt.AtomicIndexes()
	if len(atoms) > len(idx) {
		return nil, dberr.Corruptf("object: data subtuple has %d atoms, schema wants %d", len(atoms), len(idx))
	}
	tup := make(model.Tuple, len(tt.Attrs))
	for i, ai := range idx {
		tup[ai] = model.Null{}
		if i < len(atoms) {
			tup[ai] = atoms[i]
		}
	}
	for gi, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		hs, err := or.memberHandles(sub, h, gi)
		if err != nil {
			return nil, err
		}
		tbl := &model.Table{Ordered: sub.Ordered}
		for _, mh := range hs {
			mt, err := or.readLevel(sub, mh)
			if err != nil {
				return nil, err
			}
			tbl.Append(mt)
		}
		tup[ti] = tbl
	}
	return tup, nil
}
