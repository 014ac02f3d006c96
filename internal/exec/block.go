package exec

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/sql"
)

// Block is the bind product of one select block, or of the FROM list of
// a DML statement: everything execution would otherwise work out again
// per run — and, for a sub-block, per outer row. One recursive walk over
// the statement builds the whole tree (Bind); it is immutable after
// that, so one tree serves any number of concurrent executions.
type Block struct {
	// Sel is the select block (nil for a DML statement's FROM list).
	Sel *sql.Select
	// Type is the block's result schema (nil for a DML FROM list).
	Type *model.TableType
	// Paths holds the fetch set, pre-test included, of each stored-table
	// FROM item, keyed by item index. nil means full objects and no
	// pre-tests: FullPaths is set, or derivation could not prove a narrow
	// fetch for this block or one nested in it.
	Paths map[int]*object.PathSet
	// Subs holds the child block of each SELECT-list sub-block, indexed
	// like Sel.Items (nil entries for plain items; nil when there is
	// none).
	Subs []*Block
	// quants holds the fetch set and pre-test of each quantifier over a
	// stored table in the block's own expressions.
	quants []boundQuant
	// ident records that a sub-block is an identity projection of the
	// subtable it iterates (identity).
	ident bool
	// take marks, by select item of a top-level block, the items whose
	// value a result row takes from the fetched tuple itself instead of
	// copying it (takes); for SELECT * its one entry stands for the whole
	// tuple. nil when the row takes nothing: the block's scans then
	// recycle their containers (newCursor).
	take []bool
	// pos holds, by select item, the position a row copies the item's
	// value from instead of evaluating it (positions); nil when no item
	// has one.
	pos []itemPos
}

// itemPos is where a select item v.A reads its atom: attribute attr of
// the binding of FROM item from, whose type at bind was tt. A zero
// itemPos (tt nil) marks an item that is evaluated.
type itemPos struct {
	from, attr int
	tt         *model.TableType
}

type boundQuant struct {
	q  *sql.Quant
	ps *object.PathSet
}

// quantFetch returns the fetch set and pre-test bound for a quantifier
// over a stored table; nil (full objects, no pre-test) when none was.
func (b *Block) quantFetch(q *sql.Quant) *object.PathSet {
	if b == nil {
		return nil
	}
	for _, qp := range b.quants {
		if qp.q == q {
			return qp.ps
		}
	}
	return nil
}

// Bind builds the block tree of a statement against the catalog. For a
// SELECT that is, per block of the tree, the result schema, the root path
// sets with their pre-tests, one child block per sub-block and the path
// set of every quantifier over a stored table; for an UPDATE, a DELETE or
// an INSERT INTO a subtable the path sets of its FROM list and its
// quantifiers. Only a select can fail — its schema is part of the bind; a
// statement without a FROM list gets an empty block.
func (e *Executor) Bind(st sql.Statement) (*Block, error) {
	if sel, ok := st.(*sql.Select); ok {
		blk, _, err := e.bindSelect(sel, nil)
		return blk, err
	}
	blk := &Block{}
	if from, where, ok := FromList(st); ok {
		scope := newPathScope(nil)
		scope.blk = blk
		roots := make(map[int]*object.PathSet)
		if e.deriveDML(st, scope, roots) == nil {
			e.pushTests(from, where, roots)
			if !e.FullPaths {
				blk.Paths = roots
			}
		}
	}
	return blk, nil
}

// bindSelect binds one select block in the scope of the block enclosing
// it (nil at the top): it types the FROM items and the select list,
// binds each sub-block in turn, and marks every path the block's
// expressions read. Marks through an outer variable land in the outer
// block's path sets, which is what its fetch must cover. A schema error
// fails the bind; a derivation failure only leaves this block and the
// blocks enclosing it reading full objects, and ok reports whether the
// block's subtree derived.
func (e *Executor) bindSelect(sel *sql.Select, outer *pathScope) (blk *Block, ok bool, err error) {
	blk = &Block{Sel: sel}
	scope := newPathScope(outer)
	scope.blk = blk
	roots := make(map[int]*object.PathSet)
	if err := e.bindFrom(sel.From, scope, roots); err != nil {
		return nil, false, err
	}
	ordered := selectOrdered(sel, scope)
	ok = true
	if sel.Star {
		if len(sel.From) != 1 {
			return nil, false, fmt.Errorf("exec: SELECT * requires exactly one FROM item; list the attributes instead")
		}
		n := scope.vars[sel.From[0].Var]
		n.ps.MarkAll()
		blk.Type = n.tt.Clone()
		blk.Type.Ordered = ordered
	} else {
		attrs := make([]model.Attr, len(sel.Items))
		for i, item := range sel.Items {
			attrs[i].Name = item.ResultName()
			if attrs[i].Name == "" {
				attrs[i].Name = fmt.Sprintf("COL%d", i+1)
			}
			if item.Sub != nil {
				sub, subOK, err := e.bindSelect(item.Sub, scope)
				if err != nil {
					return nil, false, err
				}
				if blk.Subs == nil {
					blk.Subs = make([]*Block, len(sel.Items))
				}
				blk.Subs[i] = sub
				attrs[i].Type = model.Type{Kind: model.KindTable, Table: sub.Type}
				ok = ok && subOK
				continue
			}
			in, err := e.inferExpr(item.Expr, scope)
			if err != nil {
				return nil, false, err
			}
			if attrs[i].Type, err = in.atomType(); err != nil {
				return nil, false, fmt.Errorf("exec: select item %d: %w", i+1, err)
			}
			ok = e.markExpr(item.Expr, scope) == nil && ok
		}
		if blk.Type, err = model.NewTableType(ordered, attrs...); err != nil {
			return nil, false, err
		}
		blk.pos = positions(sel, scope)
	}
	if outer == nil {
		blk.take = takes(sel, blk)
	} else {
		blk.ident = identity(sel, blk, scope)
	}
	ok = e.markExpr(sel.Where, scope) == nil && ok
	for _, ob := range sel.OrderBy {
		ok = e.markExpr(ob.Expr, scope) == nil && ok
	}
	e.pushTests(sel.From, sel.Where, roots)
	if ok && !e.FullPaths {
		blk.Paths = roots
	}
	return blk, ok, nil
}

// selectOrdered decides whether the result is an ordered table: an
// explicit ORDER BY always orders, and a plain projection of a single
// ordered source preserves its order (so selecting from a list yields
// a list).
func selectOrdered(sel *sql.Select, scope *pathScope) bool {
	if len(sel.OrderBy) > 0 {
		return true
	}
	if len(sel.From) == 1 {
		if n, ok := scope.lookup(sel.From[0].Var); ok && n.tt != nil {
			return n.tt.Ordered
		}
	}
	return false
}

// identity reports whether a sub-block projects the subtable it iterates
// unchanged: one FROM item v.A, no WHERE, DISTINCT, ORDER BY or ASOF, the
// source's ordering, and as select list SELECT * or every attribute of
// the member type in order under its own name, each a plain path to the
// attribute or an identity sub-block over it. Its result for a row then
// equals the subtable as fetched, member for member.
func identity(sel *sql.Select, blk *Block, scope *pathScope) bool {
	if len(sel.From) != 1 || sel.Where != nil || sel.Distinct || len(sel.OrderBy) > 0 {
		return false
	}
	fi := sel.From[0]
	if fi.AsOf != nil || attrStep(fi.Source.Path) == "" {
		return false
	}
	mt := scope.vars[fi.Var].tt
	if blk.Type.Ordered != mt.Ordered {
		return false
	}
	if sel.Star {
		return true
	}
	if len(sel.Items) != len(mt.Attrs) {
		return false
	}
	for i, item := range sel.Items {
		name := mt.Attrs[i].Name
		p, _ := item.Expr.(*sql.PathExpr)
		if item.Sub != nil && blk.Subs[i].ident {
			p = item.Sub.From[0].Source.Path
		}
		if p == nil || p.Var != fi.Var || attrStep(p) != name || blk.Type.Attrs[i].Name != name {
			return false
		}
	}
	return true
}

// positions decides, per select item, whether a row copies the item's
// atom from a binding at a position fixed here instead of evaluating
// the item: an item v.A naming an atomic attribute of a variable v that
// the block's own FROM list binds. Several FROM items may bind v; the
// last of them is the binding in scope when a row is built (env.bind).
// Every other item — computed, with a [k] step, a subtable, or through
// an outer variable — is evaluated. The position records the binding's
// type, and a row whose binding has another (a schema changed under a
// running plan) evaluates the item instead.
func positions(sel *sql.Select, scope *pathScope) []itemPos {
	var pos []itemPos
	for i, item := range sel.Items {
		p, _ := item.Expr.(*sql.PathExpr)
		name := attrStep(p)
		if name == "" {
			continue
		}
		from := -1
		for j, fi := range sel.From {
			if fi.Var == p.Var {
				from = j
			}
		}
		if from < 0 {
			continue
		}
		tt := scope.vars[p.Var].tt
		ai := tt.AttrIndex(name)
		if ai < 0 || tt.Attrs[ai].Type.Kind == model.KindTable {
			continue
		}
		if pos == nil {
			pos = make([]itemPos, len(sel.Items))
		}
		pos[i] = itemPos{from: from, attr: ai, tt: tt}
	}
	return pos
}

// takes decides, for a top-level block, where a result row may take a
// fetched value itself instead of a copy. The row must be the value's
// only holder:
//
//   - (a) the block has one FROM item x, a stored table, so every row
//     comes from a fetch of its own (the Runtime contract: OpenScan and
//     OpenRef hand out tuples nothing else holds);
//   - (b) no earlier item of the row took the same subtable (every
//     value an item may take is a subtable x.A, so none contains
//     another).
//
// The items that may take are SELECT *, a path item x.A denoting a
// subtable and an identity sub-block over x.A (takeable); every other
// item, and every item of a sub-block, copies what it keeps.
func takes(sel *sql.Select, blk *Block) []bool {
	if len(sel.From) != 1 || sel.From[0].Source.Table == "" {
		return nil
	}
	if sel.Star {
		return takeRow
	}
	x := sel.From[0].Var
	var take []bool
next:
	for i := range sel.Items {
		a := blk.takeable(i, x)
		if a == "" {
			continue
		}
		for j := range i {
			if take != nil && take[j] && blk.takeable(j, x) == a {
				continue next
			}
		}
		if take == nil {
			take = make([]bool, len(sel.Items))
		}
		take[i] = true
	}
	return take
}

// takeRow is the take of a SELECT * row, which takes the fetched tuple.
var takeRow = []bool{true}

// takeable returns the attribute A of x whose subtable select item i
// would take — as the source of an identity sub-block, or as a path item
// x.A denoting a subtable — and "" for any other item.
func (b *Block) takeable(i int, x string) string {
	item := b.Sel.Items[i]
	p, _ := item.Expr.(*sql.PathExpr)
	if item.Sub != nil && b.Subs[i].ident {
		p = item.Sub.From[0].Source.Path
	} else if b.Type.Attrs[i].Type.Kind != model.KindTable {
		return ""
	}
	if p == nil || p.Var != x {
		return ""
	}
	return attrStep(p)
}

// attrStep returns the attribute a path of one attribute step names, and
// "" for any other path. Only such a path from a tuple reaches a
// subtable without a [k] step.
func attrStep(p *sql.PathExpr) string {
	if p == nil || len(p.Steps) != 1 {
		return ""
	}
	return p.Steps[0].Name
}

// Describe renders the block tree for EXPLAIN, one line per FROM item of
// from. A path item iterates the subtable of its outer binding; a stored
// item is read by the access path access(i) names — a full table scan
// when it names none, as for every stored item of a sub-block — with its
// fetch set and pre-test. Each quantifier over a stored table follows
// with its own fetch set and pre-test, then the lines of each sub-block,
// indented under a line naming the select item that owns it; the line
// says so when the row takes the fetched subtable instead.
func (b *Block) Describe(rt Runtime, from []sql.FromItem, access func(i int) string) []string {
	return b.describe(rt, from, access, "", nil)
}

func (b *Block) describe(rt Runtime, from []sql.FromItem, access func(int) string, indent string, out []string) []string {
	for i, fi := range from {
		if fi.Source.Table == "" {
			out = append(out, fmt.Sprintf("%s%s IN %s: iterate subtable of outer binding", indent, fi.Var, fi.Source.Path))
			continue
		}
		how := "full table scan"
		if access != nil {
			if a := access(i); a != "" {
				how = a
			}
		}
		out = append(out, fmt.Sprintf("%s%s IN %s: %s, %s", indent, fi.Var, fi.Source.Table, how, describeFetch(rt, fi.Source.Table, b.Paths[i])))
	}
	for _, qp := range b.quants {
		kind := "EXISTS"
		if qp.q.All {
			kind = "ALL"
		}
		out = append(out, fmt.Sprintf("%s%s %s IN %s: full table scan, %s", indent, kind, qp.q.Var, qp.q.Source.Table, describeFetch(rt, qp.q.Source.Table, qp.ps)))
	}
	for i, sub := range b.Subs {
		if sub != nil {
			how := ""
			if b.take != nil && b.take[i] {
				how = " fetched subtable, not rebuilt"
			}
			out = append(out, fmt.Sprintf("%s%s = (SELECT …):%s", indent, b.Type.Attrs[i].Name, how))
			out = sub.describe(rt, sub.Sel.From, nil, indent+"  ", out)
		}
	}
	return out
}

// describeFetch renders the fetch set ("*" for the whole object) and the
// pre-test of a read of a stored table.
func describeFetch(rt Runtime, table string, ps *object.PathSet) string {
	fetch := "*"
	if t, ok := rt.Table(table); ok && ps != nil {
		fetch = ps.Describe(t.Type)
	}
	return "fetch " + fetch + ", " + ps.DescribeTest()
}
