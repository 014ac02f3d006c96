package exec

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/sql"
)

// Required-path derivation: before a select block opens its scans,
// the executor walks the block's entire expression tree (projections,
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

// pathScope is a chained var → pathNode environment mirroring the
// executor's env chains (so shadowing behaves identically).
type pathScope struct {
	vars   map[string]pathNode
	parent *pathScope
}

func newPathScope(parent *pathScope) *pathScope {
	return &pathScope{vars: make(map[string]pathNode), parent: parent}
}

func (s *pathScope) lookup(name string) (pathNode, bool) {
	for c := s; c != nil; c = c.parent {
		if n, ok := c.vars[name]; ok {
			return n, true
		}
	}
	return pathNode{}, false
}

// derivePaths computes the PathSet of every FROM item of sel that
// ranges over a stored table, keyed by item index (variable names can
// be rebound within one FROM list, so the index is the stable key).
// outer supplies nodes for variables bound by enclosing blocks (for
// the top-level block these are throwaway nodes: the enclosing fetch
// already satisfied their requirements). Each root carries the pre-test
// compiled from the block's WHERE (pretest.go). On any analysis failure
// it returns nil and the caller reads full objects.
func (e *Executor) derivePaths(sel *sql.Select, outer *pathScope) map[int]*object.PathSet {
	scope := newPathScope(outer)
	roots := make(map[int]*object.PathSet)
	if err := e.deriveBlock(sel, scope, roots); err != nil {
		return nil
	}
	e.pushTests(sel.From, sel.Where, roots)
	return roots
}

// DerivePaths computes the projection-pushdown path sets, pre-tests
// included, of the stored-table FROM items of a top-level statement — a
// SELECT, or the FROM list of a DML statement (bind-phase half of
// openCursor and ExecDML). nil means full object reads and no pre-tests:
// FullPaths is set, the statement has no FROM list, or derivation could
// not prove a narrow fetch.
func (e *Executor) DerivePaths(st sql.Statement) map[int]*object.PathSet {
	if e.FullPaths {
		return nil
	}
	if sel, ok := st.(*sql.Select); ok {
		return e.derivePaths(sel, newPathScope(nil))
	}
	roots := make(map[int]*object.PathSet)
	if err := e.deriveDML(st, newPathScope(nil), roots); err != nil {
		return nil
	}
	from, where, _ := FromList(st)
	e.pushTests(from, where, roots)
	return roots
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

// quantPaths computes the PathSet of a quantifier over a stored table:
// what its condition can touch through the quantified variable, and the
// pre-test that rules out objects that cannot decide it. The enclosing
// variables are already bound, so marks against them are discarded. nil
// (full objects, no pre-test) when pushdown is off or derivation fails.
func (e *Executor) quantPaths(q *sql.Quant, t *catalog.Table, en *env) *object.PathSet {
	if e.FullPaths {
		return nil
	}
	scope := newPathScope(throwawayScope(en))
	ps := &object.PathSet{}
	scope.vars[q.Var] = pathNode{ps: ps, tt: t.Type}
	if err := e.markExpr(q.Cond, scope); err != nil {
		return nil
	}
	ps.Test = quantTest(q, t)
	return ps
}

// throwawayScope builds an outer pathScope from an executor env: each
// already-bound variable gets a discard node (its tuple is already
// fetched; marks recorded against it have no effect).
func throwawayScope(en *env) *pathScope {
	s := newPathScope(nil)
	for c := en; c != nil; c = c.parent {
		for name, b := range c.vars {
			if _, shadowed := s.vars[name]; !shadowed {
				s.vars[name] = pathNode{ps: &object.PathSet{}, tt: b.tt}
			}
		}
	}
	return s
}

// deriveBlock binds sel's FROM variables into scope (recording fresh
// root nodes for stored tables into roots) and walks every expression
// of the block.
func (e *Executor) deriveBlock(sel *sql.Select, scope *pathScope, roots map[int]*object.PathSet) error {
	if err := e.bindFrom(sel.From, scope, roots); err != nil {
		return err
	}
	if sel.Star {
		if len(sel.From) != 1 {
			return fmt.Errorf("exec: SELECT * requires exactly one FROM item")
		}
		if n, ok := scope.lookup(sel.From[0].Var); ok {
			n.ps.MarkAll()
		}
	}
	for _, item := range sel.Items {
		if item.Sub != nil {
			if err := e.deriveBlock(item.Sub, newPathScope(scope), nil); err != nil {
				return err
			}
			continue
		}
		if err := e.markExpr(item.Expr, scope); err != nil {
			return err
		}
	}
	if sel.Where != nil {
		if err := e.markExpr(sel.Where, scope); err != nil {
			return err
		}
	}
	for _, ob := range sel.OrderBy {
		if err := e.markExpr(ob.Expr, scope); err != nil {
			return err
		}
	}
	return nil
}

// bindFrom binds a FROM list's variables into scope, recording a fresh
// root node per stored-table item into roots (when non-nil).
func (e *Executor) bindFrom(from []sql.FromItem, scope *pathScope, roots map[int]*object.PathSet) error {
	for i, fi := range from {
		if fi.Source.Table != "" {
			t, ok := e.RT.Table(fi.Source.Table)
			if !ok {
				return fmt.Errorf("exec: unknown table %q", fi.Source.Table)
			}
			ps := &object.PathSet{}
			scope.vars[fi.Var] = pathNode{ps: ps, tt: t.Type}
			if roots != nil {
				roots[i] = ps
			}
			continue
		}
		n, atomic, err := e.walkPath(fi.Source.Path, scope)
		if err != nil {
			return err
		}
		if atomic {
			return fmt.Errorf("exec: FROM %s does not denote a table", fi.Source.Path)
		}
		// Iterating the subtable needs its membership, which Descend
		// along the walk already requested; the members' contents are
		// whatever the block marks through this variable.
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
			// Quantification over a stored table opens its own scan
			// (evalQuant derives that scan's paths with quantPaths);
			// the quantified variable imposes nothing on the block's
			// roots.
			t, ok := e.RT.Table(x.Source.Table)
			if !ok {
				return fmt.Errorf("exec: unknown table %q", x.Source.Table)
			}
			inner.vars[x.Var] = pathNode{ps: &object.PathSet{}, tt: t.Type}
		} else {
			n, atomic, err := e.walkPath(x.Source.Path, scope)
			if err != nil {
				return err
			}
			if atomic || n.tt == nil {
				return fmt.Errorf("exec: quantifier source %s is not a table", x.Source.Path)
			}
			inner.vars[x.Var] = n
		}
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
