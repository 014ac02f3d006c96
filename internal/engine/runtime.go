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

// Write implements exec.Runtime: an auto-commit write enrolls its
// object in conflict detection and goes to storage at once.
func (r *runtime) Write(w exec.Write) error {
	if w.Op != exec.WInsert {
		if err := r.db.autoConflict(w.Table, w.Ref); err != nil {
			return err
		}
	}
	return r.db.apply(w)
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

// --- the one apply ---------------------------------------------------------
//
// Every storage mutation is one exec.Write carried out by apply: an
// auto-commit statement's as it runs (runtime.Write), a transaction's
// at commit (applyWrites), a loader's through Insert. A write on an NF²
// table gathers its index delta (upkeep.go), mutates, and applies the
// delta only if the mutation succeeded. A failed statement rebuilds
// every index anyway: its rollback reloads the runtime.

// apply carries write w out on storage and the live indexes. It
// resolves the table by name, since a directory head move replaces the
// catalog's entry (setDirHead). The caller holds applyMu.
func (db *DB) apply(w exec.Write) error {
	t, ok := db.cat.Table(w.Table)
	if !ok {
		return fmt.Errorf("engine: no table %q", w.Table)
	}
	if w.Op == exec.WInsert {
		if err := model.Conform(t.Type, w.Tuple); err != nil {
			return err
		}
	} else if err := db.quarCheck(t.Name, w.Ref); err != nil {
		return err
	}
	if t.Kind == catalog.Flat {
		return db.applyFlat(t, w)
	}
	m, ix := db.mgrs[t.Name], db.live[t.Name]
	switch w.Op {
	case exec.WInsert:
		ref, err := m.Insert(t.Type, w.Tuple)
		if err != nil {
			return err
		}
		return db.register(t, ref)
	case exec.WUpdateAtoms:
		// A delta of its own: only a walk moves one to the heap.
		u := newDelta(ix, w.Ref)
		if err := m.UpdateAtomsProbed(t.Type, w.Ref, w.Steps, w.Vals, u.ix.probes, u.update); err != nil {
			return db.guardRead(t.Name, w.Ref, err)
		}
		u.apply(db.opts.Clock)
		return nil
	}
	d := newDelta(ix, w.Ref)
	var err error
	switch w.Op {
	case exec.WDelete:
		if _, err := d.walk(m, t.Type, nil, false); err != nil {
			return db.guardRead(t.Name, w.Ref, err)
		}
		if err := db.dirRemove(t, w.Ref); err != nil {
			return db.guardDir(t.Name, err)
		}
		err = m.Delete(t.Type, w.Ref)
	case exec.WInsertMember:
		var pos int
		if pos, err = m.InsertMemberPos(t.Type, w.Ref, w.Steps, w.Attr, -1, w.Tuple); err == nil {
			_, err = d.walk(m, t.Type, d.member(w.Steps, w.Attr, pos), true)
		}
	case exec.WDeleteMember:
		if _, err = d.walk(m, t.Type, d.member(w.Steps, w.Attr, w.Pos), false); err == nil {
			err = m.DeleteMember(t.Type, w.Ref, w.Steps, w.Attr, w.Pos)
		}
	default:
		return fmt.Errorf("engine: unknown write op %d", w.Op)
	}
	if err != nil {
		return db.guardRead(t.Name, w.Ref, err)
	}
	d.apply(db.opts.Clock)
	return nil
}

// applyFlat is apply on a flat table, whose tuple is the whole object:
// indexFlat keeps its entries.
func (db *DB) applyFlat(t *catalog.Table, w exec.Write) error {
	fs := db.flats[t.Name]
	switch w.Op {
	case exec.WInsert:
		tid, err := fs.Insert(w.Tuple)
		if err != nil {
			return err
		}
		return db.indexFlat(t, tid, w.Tuple, true)
	case exec.WDelete, exec.WUpdateAtoms:
	default:
		return fmt.Errorf("engine: table %q is flat; subtable DML needs an NF² table", t.Name)
	}
	old, err := fs.Read(w.Ref)
	if err != nil {
		return db.guardRead(t.Name, w.Ref, err)
	}
	if w.Op == exec.WDelete {
		err = fs.Delete(w.Ref)
	} else {
		err = fs.Update(w.Ref, model.Tuple(w.Vals))
	}
	if err != nil {
		return err
	}
	if err := db.indexFlat(t, w.Ref, old, false); err != nil || w.Op == exec.WDelete {
		return err
	}
	return db.indexFlat(t, w.Ref, model.Tuple(w.Vals), true)
}

// register adds object ref, already stored, to table t's directory and
// indexes: the end of an insert and of a check-in.
func (db *DB) register(t *catalog.Table, ref page.TID) error {
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
