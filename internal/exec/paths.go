package exec

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/sql"
)

// Required-path derivation: while a statement is bound (Bind), the
// executor walks each block's entire expression tree (projections,
// WHERE, EXISTS/ALL chains, CONTAINS, COUNT, ORDER BY, nested
// sub-selects) and computes, per range variable over a stored table,
// the set of paths the block can possibly touch. The storage layer
// then fetches only those paths (object.PathSet); everything else in
// the object stays unread.
//
// Derivation is conservative: any construct whose access pattern
// cannot be proven narrow marks the whole subtree (MarkAll), and any
// analysis failure at all falls back to AllPaths for every variable
// of the block — wrong derivation must never be able to change query
// results, only forgo the pruning win.

// pathNode pairs a PathSet position with the schema level it
// describes.
type pathNode struct {
	ps *object.PathSet
	tt *model.TableType
}

// pathScope is the bind-time scope: a chained var → pathNode
// environment mirroring the executor's env chains (so shadowing behaves
// identically). A node's schema level types the block's expressions; its
// PathSet collects what they read. blk is the block whose expressions the
// scope binds, which records the quantifiers over stored tables found in
// them.
type pathScope struct {
	vars   map[string]pathNode
	parent *pathScope
	blk    *Block
}

func newPathScope(parent *pathScope) *pathScope {
	s := &pathScope{vars: make(map[string]pathNode), parent: parent}
	if parent != nil {
		s.blk = parent.blk
	}
	return s
}

func (s *pathScope) lookup(name string) (pathNode, bool) {
	for c := s; c != nil; c = c.parent {
		if n, ok := c.vars[name]; ok {
			return n, true
		}
	}
	return pathNode{}, false
}

// deriveDML walks what a DML statement reads of its bindings: the WHERE
// clause; for an UPDATE the target level's atoms (they are rewritten
// whole) and the SET expressions; for an INSERT INTO a subtable the
// membership along the target path. A DELETE needs nothing more than
// its WHERE: a victim is addressed by its reference plus member
// positions, and binding a FROM path already requests the membership
// those positions come from.
func (e *Executor) deriveDML(st sql.Statement, scope *pathScope, roots map[int]*object.PathSet) error {
	from, where, ok := FromList(st)
	if !ok {
		return fmt.Errorf("exec: %T has no FROM list", st)
	}
	if err := e.bindFrom(from, scope, roots); err != nil {
		return err
	}
	if err := e.markExpr(where, scope); err != nil {
		return err
	}
	switch s := st.(type) {
	case *sql.Update:
		n, ok := scope.lookup(s.Var)
		if !ok {
			return fmt.Errorf("exec: UPDATE variable %q is not bound", s.Var)
		}
		n.ps.MarkAtoms()
		for _, set := range s.Set {
			if err := e.markExpr(set.Expr, scope); err != nil {
				return err
			}
		}
	case *sql.Insert:
		_, _, err := e.walkPath(s.Path, scope)
		return err
	}
	return nil
}

// bindFrom binds a FROM list's variables into scope, recording a fresh
// root node per stored-table item into roots. A source that is not a
// table is an error.
func (e *Executor) bindFrom(from []sql.FromItem, scope *pathScope, roots map[int]*object.PathSet) error {
	for i, fi := range from {
		tt, err := e.sourceType(fi.Source, scope)
		if err != nil {
			return err
		}
		if fi.Source.Table != "" {
			ps := &object.PathSet{}
			scope.vars[fi.Var] = pathNode{ps: ps, tt: tt}
			roots[i] = ps
			continue
		}
		// Iterating the subtable needs its membership, which Descend
		// along the walk requests; the members' contents are whatever
		// the block marks through this variable.
		n, _, err := e.walkPath(fi.Source.Path, scope)
		if err != nil {
			return err
		}
		scope.vars[fi.Var] = n
	}
	return nil
}

// walkPath descends a path expression through the PathSet tree. The
// returned node is the schema level the path ends at; atomic reports
// that the path terminated in an atomic attribute (whose level atoms
// have been marked). For a path ending at a table-valued attribute the
// node is that subtable's member level (membership requested, contents
// not yet); for one ending at a member tuple ([k] indexing, or the
// bare variable) it is likewise the member level.
func (e *Executor) walkPath(p *sql.PathExpr, scope *pathScope) (pathNode, bool, error) {
	n, ok := scope.lookup(p.Var)
	if !ok {
		return pathNode{}, false, fmt.Errorf("exec: unknown variable %q", p.Var)
	}
	for _, st := range p.Steps {
		if st.Name == "" {
			continue // [k]: member selection stays at this level
		}
		ai := n.tt.AttrIndex(st.Name)
		if ai < 0 {
			return pathNode{}, false, fmt.Errorf("exec: no attribute %q in %s", st.Name, n.tt)
		}
		attr := n.tt.Attrs[ai]
		if attr.Type.Kind != model.KindTable {
			// All atoms of a level share one data subtuple, so the whole
			// level's atom set is the fetch granularity.
			n.ps.MarkAtoms()
			return n, true, nil
		}
		n = pathNode{ps: n.ps.Descend(ai), tt: attr.Type.Table}
	}
	return n, false, nil
}

// markValuePath records a path used as a value: an atomic terminal
// needs its level's atoms; a terminal denoting a member tuple or a
// whole subtable may be compared, cloned or projected in full, so the
// subtree is fetched completely (flat levels need only their atoms).
func (e *Executor) markValuePath(p *sql.PathExpr, scope *pathScope) error {
	n, atomic, err := e.walkPath(p, scope)
	if err != nil {
		return err
	}
	if atomic {
		return nil
	}
	if n.tt != nil && n.tt.Flat() {
		n.ps.MarkAtoms()
	} else {
		n.ps.MarkAll()
	}
	return nil
}

// markExpr walks one expression, recording every path requirement.
func (e *Executor) markExpr(x sql.Expr, scope *pathScope) error {
	switch x := x.(type) {
	case nil:
		return nil
	case *sql.Literal:
		return nil
	case *sql.Param:
		return nil
	case *sql.PathExpr:
		return e.markValuePath(x, scope)
	case *sql.Unary:
		return e.markExpr(x.E, scope)
	case *sql.Binary:
		if err := e.markExpr(x.L, scope); err != nil {
			return err
		}
		return e.markExpr(x.R, scope)
	case *sql.Quant:
		inner := newPathScope(scope)
		if x.Source.Table != "" {
			// Quantification over a stored table opens its own scan,
			// which fetches what the condition reads through the
			// quantified variable and is pre-tested with quantTest; the
			// block records both for evalQuant. The quantified variable
			// imposes nothing on the block's roots.
			t, ok := e.RT.Table(x.Source.Table)
			if !ok {
				return fmt.Errorf("exec: unknown table %q", x.Source.Table)
			}
			ps := &object.PathSet{}
			inner.vars[x.Var] = pathNode{ps: ps, tt: t.Type}
			err := e.markExpr(x.Cond, inner)
			if err != nil || e.FullPaths {
				ps = nil
			} else {
				ps.Test = quantTest(x, t)
			}
			scope.blk.quants = append(scope.blk.quants, boundQuant{x, ps})
			return err
		}
		n, atomic, err := e.walkPath(x.Source.Path, scope)
		if err != nil {
			return err
		}
		if atomic || n.tt == nil {
			return fmt.Errorf("exec: quantifier source %s is not a table", x.Source.Path)
		}
		inner.vars[x.Var] = n
		return e.markExpr(x.Cond, inner)
	case *sql.Contains:
		return e.markExpr(x.Text, scope)
	case *sql.TNameOf:
		// Minting a tuple name needs provenance only, no data.
		return nil
	case *sql.Count:
		if p, ok := x.Arg.(*sql.PathExpr); ok {
			// COUNT needs only the subtable's membership.
			n, atomic, err := e.walkPath(p, scope)
			if err != nil {
				return err
			}
			if atomic || n.tt == nil {
				return fmt.Errorf("exec: COUNT requires a table-valued argument")
			}
			return nil
		}
		return e.markExpr(x.Arg, scope)
	}
	return fmt.Errorf("exec: cannot derive paths for %T", x)
}
