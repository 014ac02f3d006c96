package exec

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/sql"
)

// selectIn evaluates a select block in an outer environment by
// opening a streaming cursor and draining it. planning enables index
// access paths (only sensible for blocks over stored tables).
func (e *Executor) selectIn(ctx context.Context, sel *sql.Select, outer *env, planning bool) (*model.Table, *model.TableType, error) {
	c, err := e.openCursor(ctx, sel, outer, planning)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	out := &model.Table{Ordered: c.tt.Ordered}
	for {
		tup, ok, err := c.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return out, c.tt, nil
		}
		out.Append(tup)
	}
}

// forEach performs the nested-loop binding of range variables: "a
// good mental model ... is to associate them with a loop which runs
// over all tuples of the relation they are bound to" (§3). It pulls
// complete bindings from the same pipeline a SELECT reads through —
// candidate lists and path sets included — re-tests where on every one
// (a candidate list is only a superset) and invokes body once per
// binding that satisfies it. The context is checked once per binding,
// so a cancelled scan stops within one tuple's worth of work, with no
// pages left pinned.
func (e *Executor) forEach(ctx context.Context, items []sql.FromItem, where sql.Expr, scope *env, cands map[int]*Candidates, paths map[int]*object.PathSet, body func() error) error {
	p := newPipeline(e, ctx, items, scope, cands, paths)
	defer p.close()
	for {
		ok, err := p.next()
		if err != nil || !ok {
			return err
		}
		if where != nil {
			keep, err := e.evalCond(where, scope)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
		}
		if err := body(); err != nil {
			return err
		}
	}
}

// provenance describes where a FROM path's members live inside a
// stored object, enabling DML through the bound variable.
type provenance struct {
	tbl   *catalog.Table
	ref   page.TID
	steps []object.Step
	attr  int
	asof  int64
}

// evalFromPath evaluates a FROM path to the table to iterate, its
// member type, and — when the base variable is bound to a stored
// object and every traversal is positional — the provenance needed to
// mutate through the new variable.
func (e *Executor) evalFromPath(p *sql.PathExpr, scope *env) (*model.Table, *model.TableType, *provenance, error) {
	b, ok := scope.lookup(p.Var)
	if !ok {
		return nil, nil, nil, fmt.Errorf("exec: unknown variable %q", p.Var)
	}
	cur := value{tup: b.tup, tt: b.tt}
	var prov *provenance
	if b.tbl != nil {
		prov = &provenance{tbl: b.tbl, ref: b.ref, steps: append([]object.Step(nil), b.steps...), asof: b.asof}
	}
	pendingAttr := -1 // table attribute awaiting a position
	for _, st := range p.Steps {
		if cur.isNull() {
			return nil, nil, nil, nil
		}
		if st.Name != "" {
			if !cur.isTuple() {
				return nil, nil, nil, fmt.Errorf("exec: FROM %s: attribute %q applied to a non-tuple", p, st.Name)
			}
			ai := cur.tt.AttrIndex(st.Name)
			if ai < 0 {
				return nil, nil, nil, fmt.Errorf("exec: FROM %s: no attribute %q in %s", p, st.Name, cur.tt)
			}
			attr := cur.tt.Attrs[ai]
			v := cur.tup[ai]
			if attr.Type.Kind == model.KindTable {
				pendingAttr = ai
				cur = value{atom: v, tt: attr.Type.Table}
			} else {
				return nil, nil, nil, fmt.Errorf("exec: FROM %s: %q is atomic", p, st.Name)
			}
			continue
		}
		tbl, ok := cur.atom.(*model.Table)
		if !ok {
			return nil, nil, nil, fmt.Errorf("exec: FROM %s: [%d] applied to a non-table", p, st.Index)
		}
		if st.Index > tbl.Len() {
			return nil, nil, nil, nil
		}
		if prov != nil && pendingAttr >= 0 {
			prov.steps = append(prov.steps, object.Step{Attr: pendingAttr, Pos: st.Index - 1})
		}
		pendingAttr = -1
		cur = value{tup: tbl.Tuples[st.Index-1], tt: cur.tt}
	}
	if cur.isTuple() || cur.atom == nil {
		return nil, nil, nil, fmt.Errorf("exec: FROM %s does not denote a table", p)
	}
	tbl, ok := cur.atom.(*model.Table)
	if !ok {
		return nil, nil, nil, fmt.Errorf("exec: FROM %s does not denote a table", p)
	}
	if prov != nil {
		if pendingAttr < 0 {
			prov = nil // path did not end in an attribute traversal
		} else {
			prov.attr = pendingAttr
		}
	}
	return tbl, cur.tt, prov, nil
}

// buildResult constructs one result tuple for the current bindings.
func (e *Executor) buildResult(ctx context.Context, sel *sql.Select, rt *model.TableType, scope *env) (model.Tuple, error) {
	if sel.Star {
		b, _ := scope.lookup(sel.From[0].Var)
		return b.tup.Clone(), nil
	}
	tup := make(model.Tuple, len(sel.Items))
	for i, item := range sel.Items {
		if item.Sub != nil {
			sub, _, err := e.selectIn(ctx, item.Sub, scope, false)
			if err != nil {
				return nil, err
			}
			tup[i] = sub
			continue
		}
		v, err := e.evalExpr(item.Expr, scope)
		if err != nil {
			return nil, err
		}
		a, err := v.asAtom()
		if err != nil {
			return nil, err
		}
		if t, ok := a.(*model.Table); ok {
			a = t.Clone()
		}
		tup[i] = a
	}
	return tup, nil
}
