package engine

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/textindex"
)

// Index upkeep of NF² tables is a delta over the subtree a write
// touched (DESIGN.md §5). A Mini TID stays valid for as long as its
// subtuple lives, so an entry changes only when its own subobject's key
// changes or the subobject is inserted or deleted: an UpdateAtoms
// compares the old and new atoms of the one subobject it rewrites, a
// member insert or delete walks that member's subtree, a whole-object
// insert or delete walks the object — once for all the table's indexes.

// tableIndexes is one table's live value and text indexes: the one
// record the planner, index upkeep and index DDL read them from. For an
// NF² table it holds them as the probes of one object walk too: probe i
// feeds value[i] for i < len(value), and text[i-len(value)] after that.
// A flat table has no probes; its writes go through indexFlat.
type tableIndexes struct {
	value  []*index.Index
	text   []*textindex.Index
	probes []object.Probe
}

// newTableIndexes makes the record of table t's indexes. A text index
// of an NF² table needs a STRING attribute; one of a flat table indexes
// the attribute's string values and skips the rest.
func newTableIndexes(t *catalog.Table, value []*index.Index, text []*textindex.Index) (tableIndexes, error) {
	ti := tableIndexes{value: value, text: text}
	if t.Kind != catalog.Complex {
		return ti, nil
	}
	ti.probes = make([]object.Probe, 0, len(value)+len(text))
	for _, ix := range value {
		ti.probes = append(ti.probes, ix.Probe())
	}
	for _, x := range text {
		level, _, atom, kind, err := index.ResolvePath(t.Type, x.Path)
		if err != nil {
			return tableIndexes{}, err
		}
		if kind != model.KindString {
			return tableIndexes{}, fmt.Errorf("engine: text index requires a STRING attribute, got %s", kind)
		}
		ti.probes = append(ti.probes, object.Probe{Level: level, Atom: atom, Text: true})
	}
	return ti, nil
}

// without returns the record less the index named name, each remaining
// probe kept beside its index.
func (ti tableIndexes) without(name string) tableIndexes {
	var out tableIndexes
	keep := func(i int) {
		if ti.probes != nil {
			out.probes = append(out.probes, ti.probes[i])
		}
	}
	for i, ix := range ti.value {
		if ix.Name != name {
			out.value = append(out.value, ix)
			keep(i)
		}
	}
	for i, x := range ti.text {
		if x.Name != name {
			out.text = append(out.text, x)
			keep(len(ti.value) + i)
		}
	}
	return out
}

// delta is one write's index work: the entries walks gather before or
// after the mutation, applied once the mutation succeeded. Keys and
// paths are copied into the delta's own buffers.
type delta struct {
	ix    tableIndexes
	ref   page.TID
	add   bool // what hit records
	ents  []deltaEnt
	keys  []byte
	paths []page.MiniTID
	steps []object.Step
}

// deltaEnt is one entry to add or remove: probe, key and address, the
// key and path as ranges of the delta's buffers.
type deltaEnt struct {
	probe        int
	add          bool
	tid          page.TID
	key0, key1   int
	path0, path1 int
}

// newDelta returns an empty delta for object ref of a table with the
// live indexes ix.
func newDelta(ix tableIndexes, ref page.TID) *delta {
	return &delta{ix: ix, ref: ref}
}

// reset empties the delta for object ref.
func (d *delta) reset(ref page.TID) {
	d.ref = ref
	d.ents, d.keys, d.paths = d.ents[:0], d.keys[:0], d.paths[:0]
}

// walk gathers the entries of every index of the table inside the
// subtree steps address (empty: the whole object), to add or to remove.
// newest is the walk's (object.Manager.WalkProbes).
func (d *delta) walk(m *object.Manager, tt *model.TableType, steps []object.Step, add bool) (newest int64, err error) {
	d.add = add
	return m.WalkProbes(tt, d.ref, steps, d.ix.probes, d.hit)
}

// member returns the steps of member pos of subtable attr under steps.
func (d *delta) member(steps []object.Step, attr, pos int) []object.Step {
	d.steps = append(append(d.steps[:0], steps...), object.Step{Attr: attr, Pos: pos})
	return d.steps
}

func (d *delta) hit(h *object.Hit) error {
	d.record(h, d.add)
	return nil
}

// update records what an UpdateAtoms changes of one probed atom: the
// entry under the old key leaves and one under the new key arrives, at
// the same address. An unchanged key is no work.
func (d *delta) update(old, new *object.Hit) error {
	if bytes.Equal(old.Key, new.Key) {
		return nil
	}
	if old.Key != nil {
		d.record(old, false)
	}
	if new.Key != nil {
		d.record(new, true)
	}
	return nil
}

// record copies a hit's key and address into the delta's buffers.
func (d *delta) record(h *object.Hit, add bool) {
	tid, path := d.ref, h.Path
	if h.Probe < len(d.ix.value) {
		a := d.ix.value[h.Probe].EntryAddr(d.ref, h)
		tid, path = a.TID, a.Path
	}
	e := deltaEnt{probe: h.Probe, add: add, tid: tid, key0: len(d.keys), path0: len(d.paths)}
	d.keys = append(d.keys, h.Key...)
	d.paths = append(d.paths, path...)
	e.key1, e.path1 = len(d.keys), len(d.paths)
	d.ents = append(d.ents, e)
}

// apply carries the delta out on the live indexes. An added entry gets
// its own copy of its path; a removal only compares. The caller has made
// the storage change the delta follows: each removal first raises its
// index's watermark to one clock reading taken now, after that change
// (index.BTree).
func (d *delta) apply(clock func() int64) {
	var at int64
	for _, e := range d.ents {
		if !e.add && at == 0 {
			at = clock()
		}
		key := d.keys[e.key0:e.key1]
		addr := index.Addr{TID: e.tid}
		if e.path1 > e.path0 {
			addr.Path = d.paths[e.path0:e.path1]
			if e.add {
				addr.Path = slices.Clone(addr.Path)
			}
		}
		if e.probe < len(d.ix.value) {
			tree := d.ix.value[e.probe].Tree()
			if e.add {
				tree.Insert(key, addr)
			} else {
				tree.Raise(at)
				tree.Delete(key, addr)
			}
			continue
		}
		ti := d.ix.text[e.probe-len(d.ix.value)]
		if e.add {
			ti.Add(string(key), addr)
		} else {
			ti.Raise(at)
			ti.Remove(string(key), addr)
		}
	}
}

// fill adds the entries of every object of a complex table to the
// given indexes, one walk per object. newest is the largest version
// stamp among the directory chunks and the subtuples the walks read: as
// of any instant from it on, the table holds the entries filled.
func (db *DB) fill(t *catalog.Table, value []*index.Index, text []*textindex.Index) (newest int64, err error) {
	ix, err := newTableIndexes(t, value, text)
	if err != nil {
		return 0, err
	}
	refs, newest, err := db.dirRefs(t)
	if err != nil {
		return 0, err
	}
	m := db.mgrs[t.Name]
	d := newDelta(ix, page.TID{})
	for _, ref := range refs {
		d.reset(ref)
		n, err := d.walk(m, t.Type, nil, true)
		if err != nil {
			return 0, err
		}
		newest = max(newest, n)
		d.apply(db.opts.Clock)
	}
	return newest, nil
}
