package engine

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/object"
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

// Write implements exec.Runtime: the write is buffered until commit,
// and the pending image of its object takes it at once (applyImage). An
// inserted tuple gets a synthetic ref; a brand-new tuple cannot
// conflict with anything, so it takes no write lock, and nor does a
// write to one. Writes to a tuple inserted in this transaction are not
// buffered: commit inserts its final image.
func (rt *txnRuntime) Write(w exec.Write) error {
	tx := rt.snap.tx
	t, ok := rt.Table(w.Table)
	if !ok {
		return fmt.Errorf("engine: no table %q", w.Table)
	}
	if w.Op == exec.WInsert {
		if err := model.Conform(t.Type, w.Tuple); err != nil {
			return err
		}
		ref := tx.newSynthRef()
		tx.setPending(wkey{t.Name, ref}, &pendingObj{tup: w.Tuple.Clone(), inserted: true})
		tx.writes = append(tx.writes, exec.Write{Op: exec.WInsert, Table: t.Name, Ref: ref})
		return nil
	}
	k := wkey{t.Name, w.Ref}
	stored := w.Ref.Page < synthBase
	if stored {
		if err := tx.registerWrite(k); err != nil {
			return err
		}
	}
	img, err := rt.OpenRef(t, w.Ref, 0, nil, false)
	if err != nil {
		return err
	}
	p := &pendingObj{deleted: w.Op == exec.WDelete, inserted: tx.wasInserted(k)}
	if !p.deleted {
		if err := applyImage(t, img, w); err != nil {
			return err
		}
		p.tup = img
	}
	tx.setPending(k, p)
	if stored {
		w.Steps = slices.Clone(w.Steps)
		w.Vals = slices.Clone(w.Vals)
		w.Tuple = w.Tuple.Clone()
		tx.writes = append(tx.writes, w)
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

// applyImage carries write w out on img, the buffered image of its
// object, in place. An UpdateAtoms of a flat tuple covers all its
// attributes, one of an NF² level its AtomicIndexes order; nulls
// overwrite, as in the stored form.
func applyImage(t *catalog.Table, img model.Tuple, w exec.Write) error {
	if t.Kind == catalog.Flat && w.Op == exec.WUpdateAtoms {
		if len(w.Vals) != len(img) {
			return fmt.Errorf("engine: update has %d values, tuple %d attributes", len(w.Vals), len(img))
		}
		copy(img, w.Vals)
		return nil
	}
	cur, lt, err := navigate(t.Type, img, w.Steps)
	if err != nil {
		return err
	}
	if w.Op == exec.WUpdateAtoms {
		ai := lt.AtomicIndexes()
		if len(w.Vals) != len(ai) {
			return fmt.Errorf("engine: update has %d values, level has %d atomic attributes", len(w.Vals), len(ai))
		}
		for j, i := range ai {
			cur[i] = w.Vals[j]
		}
		return nil
	}
	if w.Attr < 0 || w.Attr >= len(lt.Attrs) || lt.Attrs[w.Attr].Type.Kind != model.KindTable {
		return fmt.Errorf("engine: attribute %d is not a subtable", w.Attr)
	}
	st := lt.Attrs[w.Attr].Type.Table
	sub, ok := cur[w.Attr].(*model.Table)
	if w.Op == exec.WDeleteMember {
		if !ok || w.Pos < 0 || w.Pos >= len(sub.Tuples) {
			return fmt.Errorf("engine: member position %d out of range", w.Pos)
		}
		sub.Tuples = append(sub.Tuples[:w.Pos], sub.Tuples[w.Pos+1:]...)
		return nil
	}
	if err := model.Conform(st, w.Tuple); err != nil {
		return err
	}
	if !ok {
		sub = &model.Table{Ordered: st.Ordered}
		cur[w.Attr] = sub
	}
	sub.Append(w.Tuple.Clone())
	return nil
}
