package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/sql"
)

// coerceValue converts a literal expression (possibly a nested
// TupleLit/TableLit) into a model value of the expected type.
// Integers widen to floats and strings parse into times; an empty
// table literal matches either ordering.
func (e *Executor) coerceValue(x sql.Expr, typ model.Type, en *env) (model.Value, error) {
	if typ.Kind == model.KindTable {
		tl, ok := x.(*sql.TableLit)
		if !ok {
			return nil, fmt.Errorf("exec: expected a table literal for %s", typ)
		}
		if tl.Ordered != typ.Table.Ordered && len(tl.Rows) > 0 {
			return nil, fmt.Errorf("exec: ordering mismatch: literal %v, type %s", tl.Ordered, typ)
		}
		out := &model.Table{Ordered: typ.Table.Ordered}
		for _, row := range tl.Rows {
			tup, err := e.coerceTuple(row, typ.Table, en)
			if err != nil {
				return nil, err
			}
			out.Append(tup)
		}
		return out, nil
	}
	v, err := e.evalExpr(x, en)
	if err != nil {
		return nil, err
	}
	a, err := v.asAtom()
	if err != nil {
		return nil, err
	}
	return coerceAtom(a, typ.Kind)
}

func coerceAtom(a model.Value, k model.Kind) (model.Value, error) {
	if model.IsNull(a) {
		return model.Null{}, nil
	}
	if a.Kind() == k {
		return a, nil
	}
	switch k {
	case model.KindFloat:
		if i, ok := a.(model.Int); ok {
			return model.Float(float64(i)), nil
		}
	case model.KindTime:
		ts, err := ParseTimeValue(a)
		if err == nil {
			return model.Time(ts), nil
		}
	}
	return nil, fmt.Errorf("exec: cannot use %s value %v as %s", a.Kind(), a, k)
}

// coerceTuple converts a TupleLit into a tuple of the level type.
func (e *Executor) coerceTuple(x sql.Expr, tt *model.TableType, en *env) (model.Tuple, error) {
	tl, ok := x.(*sql.TupleLit)
	if !ok {
		return nil, fmt.Errorf("exec: expected a tuple literal")
	}
	if len(tl.Elems) != len(tt.Attrs) {
		return nil, fmt.Errorf("exec: tuple literal has %d values, type %s wants %d", len(tl.Elems), tt, len(tt.Attrs))
	}
	tup := make(model.Tuple, len(tt.Attrs))
	for i, attr := range tt.Attrs {
		v, err := e.coerceValue(tl.Elems[i], attr.Type, en)
		if err != nil {
			return nil, fmt.Errorf("exec: attribute %q: %w", attr.Name, err)
		}
		tup[i] = v
	}
	return tup, nil
}

// FromList returns the FROM list and WHERE clause a statement ranges
// over — a SELECT's, or the part of an UPDATE, a DELETE or an INSERT
// INTO a subtable that locates its targets — and false for a statement
// without one.
func FromList(st sql.Statement) ([]sql.FromItem, sql.Expr, bool) {
	switch s := st.(type) {
	case *sql.Select:
		return s.From, s.Where, true
	case *sql.Update:
		return s.From, s.Where, true
	case *sql.Delete:
		return s.From, s.Where, true
	case *sql.Insert:
		return s.From, s.Where, s.Path != nil
	}
	return nil, nil, false
}

// ExecPreparedDML runs an INSERT, UPDATE or DELETE whose FROM list was
// bound ahead of time — its block (Bind: path sets, nil for full
// objects, and quantifier fetch sets) and this execution's candidate
// lists (nil = full scans) — returning the number of tuples or members
// it inserted, updated or deleted. Targets are located through the
// same pipeline a SELECT reads through, the WHERE re-tested on every
// binding, and collected before anything is written. Every DML
// statement runs through here.
func (e *Executor) ExecPreparedDML(ctx context.Context, st sql.Statement, blk *Block, cands []Candidates, params []model.Value) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch s := st.(type) {
	case *sql.Insert:
		return e.execInsert(ctx, s, blk, cands, params)
	case *sql.Delete:
		return e.execDelete(ctx, s, blk, cands, params)
	case *sql.Update:
		return e.execUpdate(ctx, s, blk, cands, params)
	}
	return 0, fmt.Errorf("exec: %T is not an INSERT, UPDATE or DELETE", st)
}

// execInsert adds whole tuples to a stored table, or members to the
// subtable addressed by ins.Path for every binding of its FROM list.
func (e *Executor) execInsert(ctx context.Context, ins *sql.Insert, blk *Block, cands []Candidates, params []model.Value) (int, error) {
	if ins.Table != "" {
		t, ok := e.RT.Table(ins.Table)
		if !ok {
			return 0, fmt.Errorf("exec: unknown table %q", ins.Table)
		}
		n := 0
		for _, row := range ins.Rows {
			tup, err := e.coerceTuple(row, t.Type, rootEnv(params, blk))
			if err != nil {
				return n, err
			}
			if err := e.RT.InsertTuple(t, tup); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	// Subtable insert: INSERT INTO path FROM ... WHERE ... VALUES ...
	type target struct {
		tbl   *catalog.Table
		ref   page.TID
		steps []object.Step
		attr  int
		tt    *model.TableType
	}
	var targets []target
	var prov provenance
	scope := rootEnv(params, blk)
	err := e.forEach(ctx, ins.From, ins.Where, scope, cands, blk.Paths, func() error {
		_, memberType, hasProv, err := e.evalFromPath(ins.Path, scope, &prov)
		if err != nil {
			return err
		}
		if !hasProv {
			return fmt.Errorf("exec: INSERT target %s is not updatable (no stored provenance)", ins.Path)
		}
		targets = append(targets, target{
			tbl: prov.tbl, ref: prov.ref,
			steps: append([]object.Step(nil), prov.steps...),
			attr:  prov.attr, tt: memberType,
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	targets = dedupeTargets(targets, func(tg target) targetKey {
		k := newTargetKey(tg.tbl, tg.ref, tg.steps)
		k.attr = tg.attr
		return k
	})
	n := 0
	for _, tg := range targets {
		for _, row := range ins.Rows {
			member, err := e.coerceTuple(row, tg.tt, rootEnv(params, blk))
			if err != nil {
				return n, err
			}
			if err := e.RT.InsertMember(tg.tbl, tg.ref, tg.steps, tg.attr, member); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// targetKey identifies one DML target for deduplication: the stored
// (sub)object or subtable it addresses — table, object, encoded steps
// and, for a subtable, its attribute — and, for an UPDATE, the values
// to be written (the same level bound twice with different values is
// two changes, applied in order).
type targetKey struct {
	table string
	ref   page.TID
	steps string
	attr  int
	vals  string
}

func newTargetKey(tbl *catalog.Table, ref page.TID, steps []object.Step) targetKey {
	b := make([]byte, 0, 4*len(steps))
	for _, st := range steps {
		b = binary.AppendVarint(b, int64(st.Attr))
		b = binary.AppendVarint(b, int64(st.Pos))
	}
	return targetKey{table: tbl.Name, ref: ref, steps: string(b)}
}

// dedupeTargets keeps the first target of every key, in order.
func dedupeTargets[T any](ts []T, key func(T) targetKey) []T {
	seen := make(map[targetKey]bool, len(ts))
	out := ts[:0]
	for _, t := range ts {
		k := key(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// execDelete collects the target variable's bindings and removes them
// afterwards — whole objects when the variable ranges over a stored
// table, subtable members when it ranges over a subtable (deleting
// "arbitrary parts of complex objects", §4.1).
func (e *Executor) execDelete(ctx context.Context, del *sql.Delete, blk *Block, cands []Candidates, params []model.Value) (int, error) {
	type victim struct {
		tbl   *catalog.Table
		ref   page.TID
		steps []object.Step
	}
	var victims []victim
	scope := rootEnv(params, blk)
	err := e.forEach(ctx, del.From, del.Where, scope, cands, blk.Paths, func() error {
		b, ok := scope.lookup(del.Var)
		if !ok {
			return fmt.Errorf("exec: DELETE variable %q is not bound", del.Var)
		}
		if b.tbl == nil {
			return fmt.Errorf("exec: DELETE target %q has no stored provenance", del.Var)
		}
		victims = append(victims, victim{tbl: b.tbl, ref: b.ref, steps: append([]object.Step(nil), b.steps...)})
		return nil
	})
	if err != nil {
		return 0, err
	}
	victims = dedupeTargets(victims, func(v victim) targetKey { return newTargetKey(v.tbl, v.ref, v.steps) })
	// Delete nested members before whole objects, and members of the
	// same subtable in descending position order so earlier positions
	// stay valid.
	sort.SliceStable(victims, func(i, j int) bool {
		a, b := victims[i], victims[j]
		if len(a.steps) != len(b.steps) {
			return len(a.steps) > len(b.steps)
		}
		for k := range a.steps {
			if a.steps[k].Pos != b.steps[k].Pos {
				return a.steps[k].Pos > b.steps[k].Pos
			}
		}
		return false
	})
	n := 0
	for _, v := range victims {
		if len(v.steps) == 0 {
			if err := e.RT.DeleteTuple(v.tbl, v.ref); err != nil {
				return n, err
			}
		} else {
			last := v.steps[len(v.steps)-1]
			parent := v.steps[:len(v.steps)-1]
			if err := e.RT.DeleteMember(v.tbl, v.ref, parent, last.Attr, last.Pos); err != nil {
				return n, err
			}
		}
		n++
	}
	return n, nil
}

// execUpdate overwrites the atomic attributes of the target variable's
// level.
func (e *Executor) execUpdate(ctx context.Context, upd *sql.Update, blk *Block, cands []Candidates, params []model.Value) (int, error) {
	type change struct {
		tbl   *catalog.Table
		ref   page.TID
		steps []object.Step
		vals  []model.Value
	}
	var changes []change
	scope := rootEnv(params, blk)
	err := e.forEach(ctx, upd.From, upd.Where, scope, cands, blk.Paths, func() error {
		b, ok := scope.lookup(upd.Var)
		if !ok {
			return fmt.Errorf("exec: UPDATE variable %q is not bound", upd.Var)
		}
		if b.tbl == nil {
			return fmt.Errorf("exec: UPDATE target %q has no stored provenance", upd.Var)
		}
		// Current atomic values of the level, then apply SET clauses.
		atomIdx := b.tt.AtomicIndexes()
		vals := make([]model.Value, len(atomIdx))
		for i, ai := range atomIdx {
			vals[i] = b.tup[ai]
		}
		for _, set := range upd.Set {
			ai := b.tt.AttrIndex(set.Attr)
			if ai < 0 {
				return fmt.Errorf("exec: no attribute %q in %s", set.Attr, b.tt)
			}
			if b.tt.Attrs[ai].Type.Kind == model.KindTable {
				return fmt.Errorf("exec: SET %s: table-valued attributes are updated with INSERT INTO/DELETE on the subtable", set.Attr)
			}
			v, err := e.evalExpr(set.Expr, scope)
			if err != nil {
				return err
			}
			a, err := v.asAtom()
			if err != nil {
				return err
			}
			a, err = coerceAtom(a, b.tt.Attrs[ai].Type.Kind)
			if err != nil {
				return err
			}
			pos := 0
			for _, j := range atomIdx {
				if j == ai {
					vals[pos] = a
					break
				}
				pos++
			}
		}
		changes = append(changes, change{tbl: b.tbl, ref: b.ref, steps: append([]object.Step(nil), b.steps...), vals: vals})
		return nil
	})
	if err != nil {
		return 0, err
	}
	changes = dedupeTargets(changes, func(c change) targetKey {
		k := newTargetKey(c.tbl, c.ref, c.steps)
		k.vals = model.CanonicalTuple(c.vals)
		return k
	})
	for _, c := range changes {
		if err := e.RT.UpdateAtoms(c.tbl, c.ref, c.steps, c.vals); err != nil {
			return 0, err
		}
	}
	return len(changes), nil
}
