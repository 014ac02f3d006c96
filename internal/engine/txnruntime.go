package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
)

// txnRuntime is the storage interface a transaction's executor runs
// against: the reads are the shared runtime's under snapshot{tx: tx}
// (runtime.go, scan.go); the writes below go to the transaction's
// buffer instead of storage. Each mutation starts from OpenRef(t, ref,
// 0, nil), which under this snapshot is a private copy of the object's
// current image in the transaction: the buffered one if the transaction
// wrote it, else the committed image at the snapshot.
type txnRuntime struct {
	runtime
}

// setPending records the new image of one object, keeping insertion
// order for stable scans. Entries are replaced whole, never mutated,
// and the replaced one is logged for statement-level rollback (undoStmt).
func (tx *Txn) setPending(k wkey, p *pendingObj) {
	prev, ok := tx.pending[k]
	if !ok {
		tx.order = append(tx.order, k)
	}
	tx.undo = append(tx.undo, pendingUndo{k, prev})
	tx.pending[k] = p
}

// wasInserted reports whether the pending entry (if any) belongs to a
// tuple this transaction created.
func (tx *Txn) wasInserted(k wkey) bool {
	p := tx.pending[k]
	return p != nil && p.inserted
}

// InsertTuple implements exec.Runtime: the tuple gets a synthetic ref
// and lives in the buffer until commit. A brand-new tuple cannot
// conflict with anything, so no write lock is taken.
func (rt *txnRuntime) InsertTuple(t *catalog.Table, tup model.Tuple) error {
	tx := rt.snap.tx
	if err := model.Conform(t.Type, tup); err != nil {
		return err
	}
	ref := tx.newSynthRef()
	k := wkey{t.Name, ref}
	tx.setPending(k, &pendingObj{tup: tup.Clone(), inserted: true})
	tx.ops = append(tx.ops, txOp{kind: opInsert, table: t.Name, ref: ref})
	return nil
}

// DeleteTuple implements exec.Runtime.
func (rt *txnRuntime) DeleteTuple(t *catalog.Table, ref page.TID) error {
	tx := rt.snap.tx
	k := wkey{t.Name, ref}
	if ref.Page >= synthBase {
		if _, err := rt.OpenRef(t, ref, 0, nil, false); err != nil {
			return err
		}
		// Deleting a tuple inserted in this transaction elides the
		// insert at commit; no stored object is touched.
		tx.setPending(k, &pendingObj{deleted: true, inserted: true})
		return nil
	}
	if err := tx.registerWrite(k); err != nil {
		return err
	}
	if _, err := rt.OpenRef(t, ref, 0, nil, false); err != nil {
		return err
	}
	tx.setPending(k, &pendingObj{deleted: true})
	tx.ops = append(tx.ops, txOp{kind: opDelete, table: t.Name, ref: ref})
	return nil
}

// UpdateAtoms implements exec.Runtime.
func (rt *txnRuntime) UpdateAtoms(t *catalog.Table, ref page.TID, steps []object.Step, vals []model.Value) error {
	tx := rt.snap.tx
	k := wkey{t.Name, ref}
	if ref.Page < synthBase {
		if err := tx.registerWrite(k); err != nil {
			return err
		}
	}
	img, err := rt.OpenRef(t, ref, 0, nil, false)
	if err != nil {
		return err
	}
	if err := applyUpdateAtoms(t, img, steps, vals); err != nil {
		return err
	}
	tx.setPending(k, &pendingObj{tup: img, inserted: tx.wasInserted(k)})
	if ref.Page < synthBase {
		tx.ops = append(tx.ops, txOp{
			kind: opUpdateAtoms, table: t.Name, ref: ref,
			steps: append([]object.Step(nil), steps...),
			vals:  append([]model.Value(nil), vals...),
		})
	}
	return nil
}

// InsertMember implements exec.Runtime.
func (rt *txnRuntime) InsertMember(t *catalog.Table, ref page.TID, steps []object.Step, attr int, member model.Tuple) error {
	tx := rt.snap.tx
	k := wkey{t.Name, ref}
	if ref.Page < synthBase {
		if err := tx.registerWrite(k); err != nil {
			return err
		}
	}
	img, err := rt.OpenRef(t, ref, 0, nil, false)
	if err != nil {
		return err
	}
	if err := applyInsertMember(t, img, steps, attr, member); err != nil {
		return err
	}
	tx.setPending(k, &pendingObj{tup: img, inserted: tx.wasInserted(k)})
	if ref.Page < synthBase {
		tx.ops = append(tx.ops, txOp{
			kind: opInsertMember, table: t.Name, ref: ref,
			steps: append([]object.Step(nil), steps...),
			attr:  attr, tup: member.Clone(),
		})
	}
	return nil
}

// DeleteMember implements exec.Runtime.
func (rt *txnRuntime) DeleteMember(t *catalog.Table, ref page.TID, steps []object.Step, attr, pos int) error {
	tx := rt.snap.tx
	k := wkey{t.Name, ref}
	if ref.Page < synthBase {
		if err := tx.registerWrite(k); err != nil {
			return err
		}
	}
	img, err := rt.OpenRef(t, ref, 0, nil, false)
	if err != nil {
		return err
	}
	if err := applyDeleteMember(t, img, steps, attr, pos); err != nil {
		return err
	}
	tx.setPending(k, &pendingObj{tup: img, inserted: tx.wasInserted(k)})
	if ref.Page < synthBase {
		tx.ops = append(tx.ops, txOp{
			kind: opDeleteMember, table: t.Name, ref: ref,
			steps: append([]object.Step(nil), steps...),
			attr:  attr, pos: pos,
		})
	}
	return nil
}

// --- logical DML on buffered images -------------------------------------
//
// These mirror the semantics of the storage-level mutations
// (object.Manager and flat.Store) on in-memory tuples, so a
// transaction's reads of its own writes agree exactly with what commit
// will apply.

// navigate descends a tuple image along steps, returning the addressed
// (sub)tuple and its level's type.
func navigate(tt *model.TableType, tup model.Tuple, steps []object.Step) (model.Tuple, *model.TableType, error) {
	cur, lt := tup, tt
	for _, s := range steps {
		if s.Attr < 0 || s.Attr >= len(lt.Attrs) || lt.Attrs[s.Attr].Type.Kind != model.KindTable {
			return nil, nil, fmt.Errorf("engine: step attribute %d is not a subtable", s.Attr)
		}
		sub, ok := cur[s.Attr].(*model.Table)
		if !ok {
			return nil, nil, fmt.Errorf("engine: subtable attribute %d is null", s.Attr)
		}
		if s.Pos < 0 || s.Pos >= len(sub.Tuples) {
			return nil, nil, fmt.Errorf("engine: member position %d out of range (%d members)", s.Pos, len(sub.Tuples))
		}
		cur = sub.Tuples[s.Pos]
		lt = lt.Attrs[s.Attr].Type.Table
	}
	return cur, lt, nil
}

// applyUpdateAtoms overwrites the atomic attributes of the level at
// steps in place. For flat tables vals covers all attributes; for
// complex ones it matches the level's AtomicIndexes order. Nulls
// overwrite, as in the stored form.
func applyUpdateAtoms(t *catalog.Table, img model.Tuple, steps []object.Step, vals []model.Value) error {
	if t.Kind == catalog.Flat {
		if len(vals) != len(img) {
			return fmt.Errorf("engine: update has %d values, tuple %d attributes", len(vals), len(img))
		}
		copy(img, vals)
		return nil
	}
	cur, lt, err := navigate(t.Type, img, steps)
	if err != nil {
		return err
	}
	ai := lt.AtomicIndexes()
	if len(vals) != len(ai) {
		return fmt.Errorf("engine: update has %d values, level has %d atomic attributes", len(vals), len(ai))
	}
	for j, i := range ai {
		cur[i] = vals[j]
	}
	return nil
}

// applyInsertMember appends a member to the subtable at steps/attr.
func applyInsertMember(t *catalog.Table, img model.Tuple, steps []object.Step, attr int, member model.Tuple) error {
	cur, lt, err := navigate(t.Type, img, steps)
	if err != nil {
		return err
	}
	if attr < 0 || attr >= len(lt.Attrs) || lt.Attrs[attr].Type.Kind != model.KindTable {
		return fmt.Errorf("engine: attribute %d is not a subtable", attr)
	}
	st := lt.Attrs[attr].Type.Table
	if err := model.Conform(st, member); err != nil {
		return err
	}
	sub, ok := cur[attr].(*model.Table)
	if !ok {
		sub = &model.Table{Ordered: st.Ordered}
		cur[attr] = sub
	}
	sub.Append(member.Clone())
	return nil
}

// applyDeleteMember removes the member at pos of the subtable at
// steps/attr.
func applyDeleteMember(t *catalog.Table, img model.Tuple, steps []object.Step, attr, pos int) error {
	cur, lt, err := navigate(t.Type, img, steps)
	if err != nil {
		return err
	}
	if attr < 0 || attr >= len(lt.Attrs) || lt.Attrs[attr].Type.Kind != model.KindTable {
		return fmt.Errorf("engine: attribute %d is not a subtable", attr)
	}
	sub, ok := cur[attr].(*model.Table)
	if !ok || pos < 0 || pos >= len(sub.Tuples) {
		return fmt.Errorf("engine: member position %d out of range", pos)
	}
	sub.Tuples = append(sub.Tuples[:pos], sub.Tuples[pos+1:]...)
	return nil
}
