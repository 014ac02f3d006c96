package object

import (
	"slices"

	"repro/internal/model"
	"repro/internal/page"
)

// Probe selects one atomic attribute of every subobject at one level
// of an object: Level lists the table-valued attribute indexes from the
// top level down (empty: the top level itself) and Atom is the
// attribute's position among the level's atomic attributes. A Text
// probe asks for a string atom's text rather than its index key. An
// index is a probe plus an address rule; a walk serves all the indexes
// of a table at once.
type Probe struct {
	Level []int
	Atom  int
	Text  bool
}

// Hit is one subobject a walk reached for one probe. Path and Key are
// the walk's own buffers, valid only during the callback: a caller
// that keeps them copies.
type Hit struct {
	Probe int            // position of the probe in the walk's list
	Path  []page.MiniTID // hierarchical data path (Fig 7b)
	Data  page.TID       // segment TID of the subobject's data subtuple
	// Key is the probed atom as an index key (model.Atom.AppendKey) or,
	// for a Text probe, the bytes of a string atom. A Text probe on an
	// atom that is not a string has no hit in WalkProbes and a nil Key in
	// UpdateAtomsProbed.
	Key []byte
}

// walker is one pass over an object's subtree for a list of probes: the
// object context, the level it stands on (attrs, path) and the keys cut
// from the current level's data subtuple.
type walker struct {
	o      *objCtx
	probes []Probe
	attrs  []int          // table-valued attributes from the top level down to here
	path   []page.MiniTID // data subtuples of the subobjects on levels 1..len(attrs)
	root   [1]page.MiniTID
	keys   []byte
	hits   []cut
	hit    [2]Hit
	flat   levelHandle // the handle of the flat member being walked
	fn     func(*Hit) error
}

// cut is one probed atom of the current level: its key in w.keys, or
// none (a Text probe on an atom that is not a string).
type cut struct {
	probe      int
	start, end int
	none       bool
}

// reaches reports whether some probe's level lies in the subtree rooted
// at the subobject steps address.
func reaches(probes []Probe, steps []Step) bool {
	for _, p := range probes {
		if len(p.Level) >= len(steps) && slices.EqualFunc(p.Level[:len(steps)], steps, func(a int, st Step) bool { return a == st.Attr }) {
			return true
		}
	}
	return false
}

// walkTo opens the object and descends to the subobject steps address,
// returning a walker standing on it.
func (m *Manager) walkTo(tt *model.TableType, ref Ref, steps []Step, probes []Probe) (*walker, *model.TableType, levelHandle, error) {
	o, body, err := m.loadCtx(ref, 0)
	if err != nil {
		return nil, nil, levelHandle{}, err
	}
	w := &walker{o: o, probes: probes}
	for _, st := range steps {
		w.attrs = append(w.attrs, st.Attr)
	}
	h, err := o.rootHandle(tt, body)
	var lt *model.TableType
	if err == nil {
		lt, h, err = o.locate(tt, h, steps, &w.path)
	}
	if err != nil {
		w.o.end()
		return nil, nil, levelHandle{}, err
	}
	return w, lt, h, nil
}

// WalkProbes opens the object once and calls fn for every probe whose
// level lies in the subtree rooted at the subobject steps address
// (empty: the whole object) and every subobject of the subtree at that
// level. Each data subtuple is viewed once, however many probes share
// its level, and only the probed atoms are cut from it, in place; the
// data subtuples of levels no probe names are not read at all. fn runs
// with no page latched. A walk that no probe reaches does not open the
// object. newest is the largest version stamp among the subtuples the
// walk viewed (subtuple.Reader.Newest): as of any instant from it on,
// the walk's hits are those of the object's state at that instant.
func (m *Manager) WalkProbes(tt *model.TableType, ref Ref, steps []Step, probes []Probe, fn func(*Hit) error) (newest int64, err error) {
	if !reaches(probes, steps) {
		return 0, nil
	}
	w, lt, h, err := m.walkTo(tt, ref, steps, probes)
	if err != nil {
		return 0, err
	}
	defer w.o.end()
	w.fn = fn
	err = w.level(lt, &h)
	return w.o.win.Newest(), err
}

// level emits the hits of the level under h and descends into every
// subtable some probe continues into, a flat one's members straight
// from their D pointers (members).
func (w *walker) level(lt *model.TableType, h *levelHandle) error {
	if w.here() {
		if err := w.view(lt, h.d); err != nil {
			return err
		}
		tid, path, err := w.addr(h.d)
		if err != nil {
			return err
		}
		for _, c := range w.hits {
			if c.none {
				continue
			}
			w.hit[0] = Hit{Probe: c.probe, Path: path, Data: tid, Key: w.keyOf(c)}
			if err := w.fn(&w.hit[0]); err != nil {
				return err
			}
		}
	}
	for gi, ti := range lt.TableIndexes() {
		if !w.below(ti) {
			continue
		}
		sub := lt.Attrs[ti].Type.Table
		ms, err := w.o.members(sub, h, gi)
		if err != nil {
			return err
		}
		w.attrs = append(w.attrs, ti)
		for i := range ms.len() {
			mh := ms.at(i, &w.flat) // a flat member has no level below it
			w.path = append(w.path, mh.d)
			if err := w.level(sub, mh); err != nil {
				return err
			}
			w.path = w.path[:len(w.path)-1]
		}
		w.attrs = w.attrs[:len(w.attrs)-1]
	}
	return nil
}

// here reports whether some probe sits at the current level.
func (w *walker) here() bool {
	for i := range w.probes {
		if slices.Equal(w.probes[i].Level, w.attrs) {
			return true
		}
	}
	return false
}

// below reports whether some probe continues from the current level
// into the table-valued attribute ti.
func (w *walker) below(ti int) bool {
	d := len(w.attrs)
	for i := range w.probes {
		l := w.probes[i].Level
		if len(l) > d && l[d] == ti && slices.Equal(l[:d], w.attrs) {
			return true
		}
	}
	return false
}

// view views the data subtuple d of the current level and cuts its
// probed atoms, with w.hits and w.keys reset.
func (w *walker) view(lt *model.TableType, d page.MiniTID) error {
	w.keys, w.hits = w.keys[:0], w.hits[:0]
	raw, err := w.o.view(d)
	if err != nil {
		return err
	}
	err = w.cut(raw, len(lt.AtomicIndexes()))
	w.o.done()
	return err
}

// cut appends one cut per probe at the current level, taken from the
// encoded payload of a level with room atomic attributes. A payload
// written before an ALTER TABLE ADD is short: the missing atoms are
// null, as they decode.
func (w *walker) cut(raw []byte, room int) error {
	for i := range w.probes {
		p := &w.probes[i]
		if !slices.Equal(p.Level, w.attrs) {
			continue
		}
		a, err := model.AtomAt(raw, room, p.Atom)
		if err != nil {
			return err
		}
		c := cut{probe: i, start: len(w.keys)}
		switch {
		case !p.Text:
			w.keys = a.AppendKey(w.keys)
		case a.Kind == model.KindString:
			w.keys = append(w.keys, a.Bytes()...)
		default:
			c.none = true
		}
		c.end = len(w.keys)
		w.hits = append(w.hits, c)
	}
	return nil
}

// keyOf returns a cut's key, nil for none.
func (w *walker) keyOf(c cut) []byte {
	if c.none {
		return nil
	}
	return w.keys[c.start:c.end]
}

// addr returns the segment TID of the current level's data subtuple d
// and the level's hierarchical data path: the subobjects' data
// subtuples from level 1 down, or d alone for the top level.
func (w *walker) addr(d page.MiniTID) (page.TID, []page.MiniTID, error) {
	tid, err := w.o.resolve(d)
	if len(w.attrs) == 0 {
		w.root[0] = d
		return tid, w.root[:], err
	}
	return tid, w.path, err
}
