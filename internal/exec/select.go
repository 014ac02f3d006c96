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

// forEach performs the nested-loop binding of range variables: "a
// good mental model ... is to associate them with a loop which runs
// over all tuples of the relation they are bound to" (§3). It pulls
// complete bindings from the same pipeline a SELECT reads through —
// candidate lists and path sets included — re-tests where on every one
// (a candidate list is only a superset) and invokes body once per
// binding that satisfies it. The context is checked once per binding,
// so a cancelled scan stops within one tuple's worth of work, with no
// pages left pinned.
func (e *Executor) forEach(ctx context.Context, items []sql.FromItem, where sql.Expr, scope *env, cands []Candidates, paths map[int]*object.PathSet, body func() error) error {
	var p pipeline
	p.init(e, ctx, items, scope, cands, paths, nil)
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

// evalFromPath evaluates a FROM path to the table to iterate and its
// member type. When the base variable is bound to a stored object and
// every traversal is positional it also fills prov — reusing its steps
// storage — with the provenance needed to mutate through the new
// variable, and reports so.
func (e *Executor) evalFromPath(p *sql.PathExpr, scope *env, prov *provenance) (*model.Table, *model.TableType, bool, error) {
	b, ok := scope.lookup(p.Var)
	if !ok {
		return nil, nil, false, fmt.Errorf("exec: unknown variable %q", p.Var)
	}
	cur := value{tup: b.tup, tt: b.tt}
	hasProv := b.tbl != nil
	if hasProv {
		*prov = provenance{tbl: b.tbl, ref: b.ref, steps: append(prov.steps[:0], b.steps...), asof: b.asof}
	}
	pendingAttr := -1 // table attribute awaiting a position
	for _, st := range p.Steps {
		if cur.isNull() {
			return nil, nil, false, nil
		}
		if st.Name != "" {
			if !cur.isTuple() {
				return nil, nil, false, fmt.Errorf("exec: FROM %s: attribute %q applied to a non-tuple", p, st.Name)
			}
			ai := cur.tt.AttrIndex(st.Name)
			if ai < 0 {
				return nil, nil, false, fmt.Errorf("exec: FROM %s: no attribute %q in %s", p, st.Name, cur.tt)
			}
			attr := cur.tt.Attrs[ai]
			v := cur.tup[ai]
			if attr.Type.Kind == model.KindTable {
				pendingAttr = ai
				cur = value{atom: v, tt: attr.Type.Table}
			} else {
				return nil, nil, false, fmt.Errorf("exec: FROM %s: %q is atomic", p, st.Name)
			}
			continue
		}
		tbl, ok := cur.atom.(*model.Table)
		if !ok {
			return nil, nil, false, fmt.Errorf("exec: FROM %s: [%d] applied to a non-table", p, st.Index)
		}
		if st.Index > tbl.Len() {
			return nil, nil, false, nil
		}
		if hasProv && pendingAttr >= 0 {
			prov.steps = append(prov.steps, object.Step{Attr: pendingAttr, Pos: st.Index - 1})
		}
		pendingAttr = -1
		cur = value{tup: tbl.Tuples[st.Index-1], tt: cur.tt}
	}
	if cur.isTuple() || cur.atom == nil {
		return nil, nil, false, fmt.Errorf("exec: FROM %s does not denote a table", p)
	}
	tbl, ok := cur.atom.(*model.Table)
	if !ok {
		return nil, nil, false, fmt.Errorf("exec: FROM %s does not denote a table", p)
	}
	// A path that did not end in an attribute traversal has no place to
	// insert into or delete from.
	hasProv = hasProv && pendingAttr >= 0
	if hasProv {
		prov.attr = pendingAttr
	}
	return tbl, cur.tt, hasProv, nil
}

// buildResult constructs one result tuple for the current bindings. What
// the block takes (Block.take) goes into the row as fetched; an item
// with a position (Block.pos) is copied from its binding; everything
// else is evaluated and copied.
func (c *Cursor) buildResult() (model.Tuple, error) {
	take, pos := c.blk.take, c.blk.pos
	if c.blk.Sel.Star {
		b, _ := c.scope.lookup(c.blk.Sel.From[0].Var)
		if take != nil {
			return b.tup, nil
		}
		return b.tup.Clone(), nil
	}
	tup := c.newTuple(len(c.blk.Sel.Items))
	for i, item := range c.blk.Sel.Items {
		if pos != nil && pos[i].tt != nil {
			if b := &c.pipe.iters[pos[i].from].b; b.tt == pos[i].tt {
				tup[i] = b.tup[pos[i].attr]
				continue
			}
		}
		taken := take != nil && take[i]
		if item.Sub != nil {
			var sub *model.Table
			var err error
			if taken {
				sub, err = c.fetchedSubtable(i)
			} else {
				sub, err = c.subTable(i)
			}
			if err != nil {
				return nil, err
			}
			tup[i] = sub
			continue
		}
		v, err := c.pipe.e.evalExpr(item.Expr, &c.scope)
		if err != nil {
			return nil, err
		}
		a, err := v.asAtom()
		if err != nil {
			return nil, err
		}
		if t, ok := a.(*model.Table); ok && !taken {
			a = t.Clone()
		}
		tup[i] = a
	}
	return tup, nil
}

// fetchedSubtable is the result of the identity sub-block of select item
// i when the row takes it: the subtable its FROM path names in the
// fetched tuple, or, for a null path, an empty table of the sub-block's
// ordering, as subTable would build.
func (c *Cursor) fetchedSubtable(i int) (*model.Table, error) {
	sub := c.blk.Subs[i]
	p := sub.Sel.From[0].Source.Path
	v, err := c.pipe.e.evalPath(p, &c.scope)
	if err != nil {
		return nil, err
	}
	if v.isNull() {
		return &model.Table{Ordered: sub.Type.Ordered}, nil
	}
	if tbl, ok := v.atom.(*model.Table); ok && !v.isTuple() {
		return tbl, nil
	}
	return nil, fmt.Errorf("exec: FROM %s does not denote a table", p)
}
