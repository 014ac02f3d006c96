package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/textindex"
	"repro/internal/tname"
)

// snapshot is the read policy of a runtime: which committed state a
// read without an explicit ASOF observes. The zero value reads the
// current committed state through the live indexes. ts alone pins
// versioned tables to a replica's visibility horizon — the commit
// timestamp of the last fully applied group — so a query (or an open
// cursor) observes one consistent committed snapshot while the applier
// publishes newer commits under it. tx pins them to the transaction's
// begin timestamp (the ordinary ASOF version-chain walk: snapshot
// isolation costs nothing the time-travel machinery does not already
// pay) and overlays the transaction's buffered writes. Explicit ASOF
// reads keep their instant and skip the overlay: they are historical
// queries, not reads of the snapshot's world. Unversioned tables keep
// no history, so every policy reads their latest state.
type snapshot struct {
	ts int64
	tx *Txn
}

// pin resolves the instant a read of t at asof observes (0 = current).
func (s snapshot) pin(t *catalog.Table, asof int64) int64 {
	if asof != 0 || !t.Versioned {
		return asof
	}
	if s.tx != nil {
		return s.tx.snapTS
	}
	return s.ts
}

// overlay returns the transaction whose buffered writes a read at asof
// must see, nil if none.
func (s snapshot) overlay(asof int64) *Txn {
	if asof != 0 {
		return nil
	}
	return s.tx
}

// runtime implements exec.Runtime over a DB: the reads (scan.go) under
// a snapshot policy, the writes as auto-commit storage mutations
// (txnRuntime replaces those with buffered ones).
type runtime struct {
	db   *DB
	snap snapshot
}

// Table implements exec.Runtime.
func (r *runtime) Table(name string) (*catalog.Table, bool) { return r.db.cat.Table(name) }

// Indexes implements exec.Runtime. The live indexes describe the
// current committed state, and each answers a lookup at an earlier
// instant from its watermark on, before which the planner scans: every
// read but a replica's goes through them at the instant ReadAt
// resolves. A replica horizon (snap.ts) exposes none: its applier
// redoes page writes only and maintains no index (promotion rebuilds
// them).
func (r *runtime) Indexes(table string) []*index.Index {
	if r.snap.ts != 0 {
		return nil
	}
	return r.db.live[table].value
}

// TextIndexes implements exec.Runtime (nil under the same rule as
// Indexes).
func (r *runtime) TextIndexes(table string) []*textindex.Index {
	if r.snap.ts != 0 {
		return nil
	}
	return r.db.live[table].text
}

// ReadAt implements exec.Runtime: a read observes the instant pin
// resolves — an explicit ASOF's, a transaction's snapTS on a versioned
// table, the current state everywhere else — and a transaction's
// overlay adds the objects of its own pending writes, which no index
// holds yet. Lookups at the instant need no lock: an index answers one
// only from its watermark on (DESIGN.md §5.1).
func (r *runtime) ReadAt(table string, asof int64) (int64, []page.TID) {
	if asof != 0 || r.snap == (snapshot{}) {
		return asof, nil
	}
	t, ok := r.db.cat.Table(table)
	if !ok {
		return 0, nil
	}
	at := r.snap.pin(t, 0)
	if r.snap.tx == nil {
		return at, nil
	}
	return at, r.snap.tx.ownRefs(table)
}

// InsertTuple implements exec.Runtime.
func (r *runtime) InsertTuple(t *catalog.Table, tup model.Tuple) error {
	return r.db.Insert(t.Name, tup)
}

// DeleteTuple implements exec.Runtime.
func (r *runtime) DeleteTuple(t *catalog.Table, ref page.TID) error {
	return r.db.Delete(t.Name, ref)
}

// UpdateAtoms implements exec.Runtime.
func (r *runtime) UpdateAtoms(t *catalog.Table, ref page.TID, steps []object.Step, vals []model.Value) error {
	return r.db.UpdateAtoms(t.Name, ref, steps, vals)
}

// InsertMember implements exec.Runtime.
func (r *runtime) InsertMember(t *catalog.Table, ref page.TID, steps []object.Step, attr int, member model.Tuple) error {
	return r.db.InsertMember(t.Name, ref, steps, attr, member)
}

// DeleteMember implements exec.Runtime.
func (r *runtime) DeleteMember(t *catalog.Table, ref page.TID, steps []object.Step, attr, pos int) error {
	return r.db.DeleteMember(t.Name, ref, steps, attr, pos)
}

// ParseTime implements exec.Runtime.
func (r *runtime) ParseTime(v model.Value) (int64, error) { return exec.ParseTimeValue(v) }

// TName implements exec.Runtime: it mints a tuple name for the
// (sub)object a query variable is bound to.
func (r *runtime) TName(t *catalog.Table, ref page.TID, steps []object.Step) (string, error) {
	if ref.Page >= synthBase {
		return "", fmt.Errorf("engine: TNAME of a tuple inserted in this transaction is unavailable before commit")
	}
	m, ok := r.db.mgrs[t.Name]
	if !ok {
		return "", fmt.Errorf("engine: TNAME requires an NF² table, %q is flat", t.Name)
	}
	reg := tname.NewRegistry(m, t.Type)
	n, err := reg.SubobjectName(ref, steps...)
	if err != nil {
		return "", err
	}
	return n.Encode(), nil
}

// Refs returns the object references of a complex table (or tuple
// TIDs of a flat one).
func (db *DB) Refs(table string) ([]page.TID, error) {
	t, ok := db.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", table)
	}
	if t.Kind == catalog.Flat {
		var refs []page.TID
		err := db.flats[table].Scan(func(tid page.TID, _ model.Tuple) error {
			refs = append(refs, tid)
			return nil
		})
		return refs, db.guardRead(table, page.TID{}, err)
	}
	refs, _, err := db.dirRefs(t)
	return refs, db.guardDir(table, err)
}

// --- DML with index maintenance -----------------------------------------
//
// A write on an NF² table gathers its index delta (upkeep.go), mutates
// and applies the delta only if the mutation succeeded. A failed
// statement rebuilds every index anyway: its rollback reloads the
// runtime.

// Insert adds a tuple to a table, maintaining all indexes.
func (db *DB) Insert(table string, tup model.Tuple) error {
	t, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if err := model.Conform(t.Type, tup); err != nil {
		return err
	}
	if t.Kind == catalog.Flat {
		tid, err := db.flats[table].Insert(tup)
		if err != nil {
			return err
		}
		return db.indexFlat(t, tid, tup, true)
	}
	ref, err := db.mgrs[table].Insert(t.Type, tup)
	if err != nil {
		return err
	}
	return db.RegisterImported(t, ref)
}

// indexFlat adds (or removes) one flat tuple's entries in all the
// table's value and text indexes. A removal follows the storage change
// that made the entries stale, and first raises each index's watermark
// to a clock reading taken now (index.BTree).
func (db *DB) indexFlat(t *catalog.Table, tid page.TID, tup model.Tuple, add bool) error {
	live := db.live[t.Name]
	var at int64
	if !add {
		at = db.opts.Clock()
	}
	for _, ix := range live.value {
		var err error
		if add {
			err = ix.AddFlat(tid, tup, t.Type)
		} else {
			ix.Tree().Raise(at)
			err = ix.RemoveFlat(tid, tup, t.Type)
		}
		if err != nil {
			return err
		}
	}
	for _, ti := range live.text {
		s, ok := tup[t.Type.AttrIndex(ti.Path[0])].(model.Str)
		if !ok {
			continue
		}
		if add {
			ti.Add(string(s), index.Addr{TID: tid})
		} else {
			ti.Raise(at)
			ti.Remove(string(s), index.Addr{TID: tid})
		}
	}
	return nil
}

// Delete removes a tuple/object by reference, maintaining indexes.
func (db *DB) Delete(table string, ref page.TID) error {
	t, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if err := db.quarCheck(table, ref); err != nil {
		return err
	}
	if err := db.autoConflict(table, ref); err != nil {
		return err
	}
	if t.Kind == catalog.Flat {
		fs := db.flats[table]
		tup, err := fs.Read(ref)
		if err != nil {
			return db.guardRead(table, ref, err)
		}
		if err := fs.Delete(ref); err != nil {
			return err
		}
		return db.indexFlat(t, ref, tup, false)
	}
	m := db.mgrs[table]
	d := newDelta(db.live[table], ref)
	if _, err := d.walk(m, t.Type, nil, false); err != nil {
		return db.guardRead(table, ref, err)
	}
	if err := db.dirRemove(t, ref); err != nil {
		return db.guardDir(table, err)
	}
	if err := m.Delete(t.Type, ref); err != nil {
		return db.guardRead(table, ref, err)
	}
	d.apply(db.opts.Clock)
	return nil
}

// UpdateAtoms overwrites the atomic attributes of the (sub)object
// addressed by steps (for flat tables vals covers all attributes).
func (db *DB) UpdateAtoms(table string, ref page.TID, steps []object.Step, vals []model.Value) error {
	t, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if err := db.quarCheck(table, ref); err != nil {
		return err
	}
	if err := db.autoConflict(table, ref); err != nil {
		return err
	}
	if t.Kind == catalog.Flat {
		fs := db.flats[table]
		old, err := fs.Read(ref)
		if err != nil {
			return db.guardRead(table, ref, err)
		}
		if err := fs.Update(ref, model.Tuple(vals)); err != nil {
			return err
		}
		if err := db.indexFlat(t, ref, old, false); err != nil {
			return err
		}
		return db.indexFlat(t, ref, model.Tuple(vals), true)
	}
	d := newDelta(db.live[table], ref)
	if err := db.mgrs[table].UpdateAtomsProbed(t.Type, ref, steps, vals, d.ix.probes, d.update); err != nil {
		return db.guardRead(table, ref, err)
	}
	d.apply(db.opts.Clock)
	return nil
}

// InsertMember adds a member to a subtable of a stored object.
func (db *DB) InsertMember(table string, ref page.TID, steps []object.Step, attr int, member model.Tuple) error {
	t, err := db.subtableTarget(table, ref)
	if err != nil {
		return err
	}
	m := db.mgrs[table]
	pos, err := m.InsertMemberPos(t.Type, ref, steps, attr, -1, member)
	if err != nil {
		return db.guardRead(table, ref, err)
	}
	d := newDelta(db.live[table], ref)
	if _, err := d.walk(m, t.Type, d.member(steps, attr, pos), true); err != nil {
		return db.guardRead(table, ref, err)
	}
	d.apply(db.opts.Clock)
	return nil
}

// DeleteMember removes a member of a subtable of a stored object.
func (db *DB) DeleteMember(table string, ref page.TID, steps []object.Step, attr, pos int) error {
	t, err := db.subtableTarget(table, ref)
	if err != nil {
		return err
	}
	m := db.mgrs[table]
	d := newDelta(db.live[table], ref)
	if _, err := d.walk(m, t.Type, d.member(steps, attr, pos), false); err != nil {
		return db.guardRead(table, ref, err)
	}
	if err := m.DeleteMember(t.Type, ref, steps, attr, pos); err != nil {
		return db.guardRead(table, ref, err)
	}
	d.apply(db.opts.Clock)
	return nil
}

// subtableTarget checks a subtable write on object ref of an NF² table
// and enrolls it in conflict detection.
func (db *DB) subtableTarget(table string, ref page.TID) (*catalog.Table, error) {
	t, ok := db.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", table)
	}
	if t.Kind != catalog.Complex {
		return nil, fmt.Errorf("engine: table %q is flat; subtable DML needs an NF² table", table)
	}
	if err := db.quarCheck(table, ref); err != nil {
		return nil, err
	}
	if err := db.autoConflict(table, ref); err != nil {
		return nil, err
	}
	return t, nil
}

// RegisterImported adds an already-stored object (e.g. one imported
// from a page-level checkout) to the table's directory and indexes.
func (db *DB) RegisterImported(t *catalog.Table, ref page.TID) error {
	if err := db.dirAdd(t, ref); err != nil {
		return db.guardDir(t.Name, err)
	}
	d := newDelta(db.live[t.Name], ref)
	if _, err := d.walk(db.mgrs[t.Name], t.Type, nil, true); err != nil {
		return db.guardRead(t.Name, ref, err)
	}
	d.apply(db.opts.Clock)
	return nil
}
