package exec

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/sql"
	"repro/internal/textindex"
)

// Pre-tests: the part of a WHERE clause the object reader can decide on
// encoded atoms in place, before it builds anything (object.Test). A
// top-level conjunct is pushed onto the root path set of a stored NF²
// table's FROM item when it names that item's variable and nothing
// else, and is built only from
//
//   - =, <>, <, <=, >, >= between an atomic attribute and a non-null
//     literal of a kind model.Compare accepts against the attribute's
//     schema kind (the same kind, or Int against Float), so the
//     comparison cannot fail;
//   - CONTAINS on a string attribute;
//   - AND, OR, NOT;
//   - EXISTS and ALL over a subtable of the variable in scope, whose
//     condition obeys the same rules for the quantified variable.
//
// The test computes exactly the value the evaluator would give the
// conjunct, so an object that fails it fails the WHERE. The executor
// still re-tests the whole WHERE on every tuple the reader hands out:
// the pre-test only narrows, like an index candidate list.

// pushTests compiles, for each stored NF² table item of a FROM list, the
// conjuncts of where that are pushable onto it into the pre-test of its
// root path set.
func (e *Executor) pushTests(from []sql.FromItem, where sql.Expr, roots map[int]*object.PathSet) {
	if where == nil {
		return
	}
	conj := conjuncts(where, nil)
	for i, fi := range from {
		ps, t := roots[i], e.complexTable(fi.Source.Table)
		if ps == nil || t == nil || rebound(from[i+1:], fi.Var) {
			continue
		}
		var tests []*object.Test
		for _, c := range conj {
			if x, ok := compileTest(c, fi.Var, t.Type); ok {
				tests = append(tests, x)
			}
		}
		ps.Test = allOf(tests)
	}
}

// quantTest compiles the pre-test of a quantifier over a stored table:
// for EXISTS the pushable conjuncts of its condition (an object that
// fails them is no witness); for ALL the negated condition, when all of
// it compiles (an object that fails it is no counterexample).
func quantTest(q *sql.Quant, t *catalog.Table) *object.Test {
	if t.Kind != catalog.Complex {
		return nil
	}
	if q.All {
		c, ok := compileTest(q.Cond, q.Var, t.Type)
		if !ok {
			return nil
		}
		return &object.Test{Op: object.TestNot, Args: []*object.Test{c}}
	}
	var tests []*object.Test
	for _, c := range conjuncts(q.Cond, nil) {
		if x, ok := compileTest(c, q.Var, t.Type); ok {
			tests = append(tests, x)
		}
	}
	return allOf(tests)
}

// complexTable resolves a stored NF² table by name; nil for a flat
// table, a path source or an unknown name.
func (e *Executor) complexTable(name string) *catalog.Table {
	if name == "" {
		return nil
	}
	t, ok := e.RT.Table(name)
	if !ok || t.Kind != catalog.Complex {
		return nil
	}
	return t
}

// rebound reports whether a later FROM item binds v again, so that the
// WHERE's v is not the earlier item's.
func rebound(later []sql.FromItem, v string) bool {
	for _, fi := range later {
		if fi.Var == v {
			return true
		}
	}
	return false
}

// conjuncts appends the top-level conjuncts of x to out.
func conjuncts(x sql.Expr, out []sql.Expr) []sql.Expr {
	if b, ok := x.(*sql.Binary); ok && b.Op == "AND" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, x)
}

// allOf is the conjunction of tests: nil for none.
func allOf(tests []*object.Test) *object.Test {
	switch len(tests) {
	case 0:
		return nil
	case 1:
		return tests[0]
	}
	return &object.Test{Op: object.TestAnd, Args: tests}
}

// compileTest compiles x as a predicate over the level of type tt that
// variable v is bound to; false when x is not pushable.
func compileTest(x sql.Expr, v string, tt *model.TableType) (*object.Test, bool) {
	switch x := x.(type) {
	case *sql.Binary:
		switch x.Op {
		case "AND", "OR":
			op := object.TestAnd
			if x.Op == "OR" {
				op = object.TestOr
			}
			var args []*object.Test
			for _, side := range []sql.Expr{x.L, x.R} {
				a, ok := compileTest(side, v, tt)
				if !ok {
					return nil, false
				}
				if a.Op == op {
					args = append(args, a.Args...)
				} else {
					args = append(args, a)
				}
			}
			return &object.Test{Op: op, Args: args}, true
		case "=", "<>", "<", "<=", ">", ">=":
			return compileCmp(x, v, tt)
		}
	case *sql.Unary:
		if a, ok := compileTest(x.E, v, tt); ok && x.Op == "NOT" {
			return &object.Test{Op: object.TestNot, Args: []*object.Test{a}}, true
		}
	case *sql.Contains:
		ai, ok := atomOf(x.Text, v, tt)
		if !ok || tt.Attrs[ai].Type.Kind != model.KindString {
			return nil, false
		}
		return &object.Test{Op: object.TestAtom, Attr: ai, Pred: containsPred{tt.Attrs[ai].Name, x.Mask}}, true
	case *sql.Quant:
		p := x.Source.Path
		if p == nil || p.Var != v || len(p.Steps) != 1 || p.Steps[0].Name == "" {
			return nil, false
		}
		ai := tt.AttrIndex(p.Steps[0].Name)
		if ai < 0 || tt.Attrs[ai].Type.Kind != model.KindTable {
			return nil, false
		}
		cond, ok := compileTest(x.Cond, x.Var, tt.Attrs[ai].Type.Table)
		if !ok {
			return nil, false
		}
		op := object.TestExists
		if x.All {
			op = object.TestAll
		}
		return &object.Test{Op: op, Attr: ai, Name: tt.Attrs[ai].Name, Args: []*object.Test{cond}}, true
	}
	return nil, false
}

// compileCmp compiles a comparison between an atomic attribute of v and
// a literal, in either order.
func compileCmp(x *sql.Binary, v string, tt *model.TableType) (*object.Test, bool) {
	op, path, other := x.Op, x.L, x.R
	if _, ok := literalOf(x.L); ok {
		op, path, other = flipCmp(op), x.R, x.L
	}
	val, ok := literalOf(other)
	if !ok {
		return nil, false
	}
	ai, ok := atomOf(path, v, tt)
	if !ok || !comparableKinds(tt.Attrs[ai].Type.Kind, val.Kind()) {
		return nil, false
	}
	return &object.Test{Op: object.TestAtom, Attr: ai, Pred: cmpPred{tt.Attrs[ai].Name, op, val}}, true
}

// cmpPred is attr op lit on an encoded atom, as evalBinary decides it.
type cmpPred struct {
	attr, op string
	lit      model.Value
}

func (p cmpPred) Holds(a model.Atom) (bool, bool) {
	if a.IsNull() {
		return false, true // a null comparison is false
	}
	c, err := a.Compare(p.lit)
	if err != nil {
		return false, false
	}
	return cmpHolds(p.op, c), true
}

func (p cmpPred) String() string {
	lit := p.lit.String()
	switch p.lit.(type) {
	case model.Str, model.Time:
		lit = sqlString(lit)
	}
	return p.attr + " " + p.op + " " + lit
}

// containsPred is attr CONTAINS mask on an encoded atom, as
// evalContains decides it.
type containsPred struct{ attr, mask string }

func (p containsPred) Holds(a model.Atom) (bool, bool) {
	if a.IsNull() {
		return false, true
	}
	if a.Kind != model.KindString {
		return false, false
	}
	return textindex.ContainsBytes(a.Bytes(), p.mask), true
}

func (p containsPred) String() string { return p.attr + " CONTAINS " + sqlString(p.mask) }

// literalOf returns the value of a non-null literal operand; the parser
// reads -3 as the negation of a literal, which evaluates to one.
func literalOf(x sql.Expr) (model.Value, bool) {
	switch x := x.(type) {
	case *sql.Literal:
		return x.Val, !model.IsNull(x.Val)
	case *sql.Unary:
		if l, ok := x.E.(*sql.Literal); ok && x.Op == "-" {
			switch n := l.Val.(type) {
			case model.Int:
				return -n, true
			case model.Float:
				return -n, true
			}
		}
	}
	return nil, false
}

// atomOf resolves x as v.ATTR for an atomic attribute of tt, returning
// the attribute's index.
func atomOf(x sql.Expr, v string, tt *model.TableType) (int, bool) {
	p, ok := x.(*sql.PathExpr)
	if !ok || p.Var != v || len(p.Steps) != 1 || p.Steps[0].Name == "" {
		return 0, false
	}
	ai := tt.AttrIndex(p.Steps[0].Name)
	return ai, ai >= 0 && tt.Attrs[ai].Type.Kind != model.KindTable
}

// comparableKinds reports whether model.Compare orders values of the two
// kinds without error.
func comparableKinds(a, b model.Kind) bool {
	numeric := func(k model.Kind) bool { return k == model.KindInt || k == model.KindFloat }
	return a == b || numeric(a) && numeric(b)
}

// flipCmp is the comparison that holds for (b, a) exactly when op holds
// for (a, b).
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// cmpHolds applies a comparison operator to a Compare result.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// sqlString renders a string literal as it is written in a statement.
func sqlString(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
