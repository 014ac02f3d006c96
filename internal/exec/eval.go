package exec

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sql"
	"repro/internal/textindex"
)

// value is the result of evaluating an expression: either an atomic
// model.Value / *model.Table, or a member tuple selected by list
// indexing (x.AUTHORS[1]), which carries its level type.
type value struct {
	atom model.Value
	tup  model.Tuple
	tt   *model.TableType // schema of tup, or of atom when it is a *Table
}

func atomVal(v model.Value) value { return value{atom: v} }

func (v value) isTuple() bool { return v.tup != nil }

func (v value) isNull() bool { return !v.isTuple() && model.IsNull(v.atom) }

// asAtom coerces the value into an atomic model.Value for comparison
// and projection: single-attribute tuples unwrap to their value (the
// paper compares x.AUTHORS[1] directly with 'Jones').
func (v value) asAtom() (model.Value, error) {
	if !v.isTuple() {
		return v.atom, nil
	}
	if len(v.tup) == 1 {
		return v.tup[0], nil
	}
	return nil, fmt.Errorf("exec: tuple with %d attributes used as an atomic value", len(v.tup))
}

// evalExpr evaluates an expression in the environment.
func (e *Executor) evalExpr(x sql.Expr, en *env) (value, error) {
	switch x := x.(type) {
	case *sql.Literal:
		return atomVal(x.Val), nil
	case *sql.Param:
		v, ok := en.param(x.Ord)
		if !ok {
			return value{}, fmt.Errorf("exec: no value bound for parameter ?%d (use Prepare and pass arguments)", x.Ord)
		}
		return atomVal(v), nil
	case *sql.PathExpr:
		return e.evalPath(x, en)
	case *sql.Unary:
		return e.evalUnary(x, en)
	case *sql.Binary:
		return e.evalBinary(x, en)
	case *sql.Quant:
		ok, err := e.evalQuant(x, en)
		return atomVal(model.Bool(ok)), err
	case *sql.Contains:
		return e.evalContains(x, en)
	case *sql.TNameOf:
		b, ok := en.lookup(x.Var)
		if !ok {
			return value{}, fmt.Errorf("exec: unknown variable %q", x.Var)
		}
		if b.tbl == nil {
			return value{}, fmt.Errorf("exec: TNAME(%s): variable has no stored provenance", x.Var)
		}
		token, err := e.RT.TName(b.tbl, b.ref, b.steps)
		if err != nil {
			return value{}, err
		}
		return atomVal(model.Str(token)), nil
	case *sql.Count:
		v, err := e.evalExpr(x.Arg, en)
		if err != nil {
			return value{}, err
		}
		tbl, ok := v.atom.(*model.Table)
		if !ok {
			return value{}, fmt.Errorf("exec: COUNT requires a table-valued argument")
		}
		return atomVal(model.Int(int64(tbl.Len()))), nil
	}
	return value{}, fmt.Errorf("exec: cannot evaluate %T", x)
}

// evalPath walks a path expression from its variable binding.
func (e *Executor) evalPath(p *sql.PathExpr, en *env) (value, error) {
	b, ok := en.lookup(p.Var)
	if !ok {
		return value{}, fmt.Errorf("exec: unknown variable %q", p.Var)
	}
	cur := value{tup: b.tup, tt: b.tt}
	for _, st := range p.Steps {
		if cur.isNull() {
			return atomVal(model.Null{}), nil
		}
		if st.Name != "" {
			if !cur.isTuple() {
				return value{}, fmt.Errorf("exec: %s: attribute %q applied to a non-tuple (use [k] or a quantifier first)", p, st.Name)
			}
			ai := cur.tt.AttrIndex(st.Name)
			if ai < 0 {
				return value{}, fmt.Errorf("exec: %s: no attribute %q in %s", p, st.Name, cur.tt)
			}
			attr := cur.tt.Attrs[ai]
			v := cur.tup[ai]
			if attr.Type.Kind == model.KindTable {
				cur = value{atom: v, tt: attr.Type.Table}
			} else {
				cur = value{atom: v}
			}
			continue
		}
		// [k] step: 1-based member selection on a table value.
		tbl, ok := cur.atom.(*model.Table)
		if !ok || cur.isTuple() {
			return value{}, fmt.Errorf("exec: %s: [%d] applied to a non-table", p, st.Index)
		}
		if st.Index > tbl.Len() {
			return atomVal(model.Null{}), nil
		}
		cur = value{tup: tbl.Tuples[st.Index-1], tt: cur.tt}
	}
	return cur, nil
}

func (e *Executor) evalUnary(x *sql.Unary, en *env) (value, error) {
	v, err := e.evalExpr(x.E, en)
	if err != nil {
		return value{}, err
	}
	switch x.Op {
	case "NOT":
		b, err := truth(v)
		if err != nil {
			return value{}, err
		}
		return atomVal(model.Bool(!b)), nil
	case "-":
		a, err := v.asAtom()
		if err != nil {
			return value{}, err
		}
		switch n := a.(type) {
		case model.Int:
			return atomVal(model.Int(-n)), nil
		case model.Float:
			return atomVal(model.Float(-n)), nil
		case model.Null:
			return atomVal(model.Null{}), nil
		}
		return value{}, fmt.Errorf("exec: cannot negate %v", a)
	}
	return value{}, fmt.Errorf("exec: unknown unary %q", x.Op)
}

func (e *Executor) evalBinary(x *sql.Binary, en *env) (value, error) {
	switch x.Op {
	case "AND", "OR":
		l, err := e.evalExpr(x.L, en)
		if err != nil {
			return value{}, err
		}
		lb, err := truth(l)
		if err != nil {
			return value{}, err
		}
		// Short circuit.
		if x.Op == "AND" && !lb {
			return atomVal(model.Bool(false)), nil
		}
		if x.Op == "OR" && lb {
			return atomVal(model.Bool(true)), nil
		}
		r, err := e.evalExpr(x.R, en)
		if err != nil {
			return value{}, err
		}
		rb, err := truth(r)
		if err != nil {
			return value{}, err
		}
		return atomVal(model.Bool(rb)), nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, err := e.evalExpr(x.L, en)
		if err != nil {
			return value{}, err
		}
		r, err := e.evalExpr(x.R, en)
		if err != nil {
			return value{}, err
		}
		la, err := l.asAtom()
		if err != nil {
			return value{}, err
		}
		ra, err := r.asAtom()
		if err != nil {
			return value{}, err
		}
		// Null comparisons are unknown -> false (two-valued with null
		// absorption).
		if model.IsNull(la) || model.IsNull(ra) {
			return atomVal(model.Bool(false)), nil
		}
		// Table values compare only under (in)equality, deeply.
		lt, lIsT := la.(*model.Table)
		rt, rIsT := ra.(*model.Table)
		if lIsT || rIsT {
			if !(lIsT && rIsT) || (x.Op != "=" && x.Op != "<>") {
				return value{}, fmt.Errorf("exec: invalid table comparison %s", x.Op)
			}
			eq := model.TableEqual(lt, rt)
			if x.Op == "<>" {
				eq = !eq
			}
			return atomVal(model.Bool(eq)), nil
		}
		c, err := model.Compare(la, ra)
		if err != nil {
			return value{}, err
		}
		return atomVal(model.Bool(cmpHolds(x.Op, c))), nil
	case "+", "-", "*", "/":
		l, err := e.evalExpr(x.L, en)
		if err != nil {
			return value{}, err
		}
		r, err := e.evalExpr(x.R, en)
		if err != nil {
			return value{}, err
		}
		la, err := l.asAtom()
		if err != nil {
			return value{}, err
		}
		ra, err := r.asAtom()
		if err != nil {
			return value{}, err
		}
		return arith(x.Op, la, ra)
	}
	return value{}, fmt.Errorf("exec: unknown operator %q", x.Op)
}

func arith(op string, a, b model.Value) (value, error) {
	if model.IsNull(a) || model.IsNull(b) {
		return atomVal(model.Null{}), nil
	}
	ai, aInt := a.(model.Int)
	bi, bInt := b.(model.Int)
	if aInt && bInt {
		switch op {
		case "+":
			return atomVal(model.Int(ai + bi)), nil
		case "-":
			return atomVal(model.Int(ai - bi)), nil
		case "*":
			return atomVal(model.Int(ai * bi)), nil
		case "/":
			if bi == 0 {
				return value{}, fmt.Errorf("exec: division by zero")
			}
			return atomVal(model.Int(ai / bi)), nil
		}
	}
	af, aOK := toF(a)
	bf, bOK := toF(b)
	if !aOK || !bOK {
		if op == "+" {
			if as, ok := a.(model.Str); ok {
				if bs, ok := b.(model.Str); ok {
					return atomVal(as + bs), nil
				}
			}
		}
		return value{}, fmt.Errorf("exec: cannot apply %s to %v and %v", op, a, b)
	}
	switch op {
	case "+":
		return atomVal(model.Float(af + bf)), nil
	case "-":
		return atomVal(model.Float(af - bf)), nil
	case "*":
		return atomVal(model.Float(af * bf)), nil
	case "/":
		if bf == 0 {
			return value{}, fmt.Errorf("exec: division by zero")
		}
		return atomVal(model.Float(af / bf)), nil
	}
	return value{}, fmt.Errorf("exec: unknown operator %q", op)
}

func toF(v model.Value) (float64, bool) {
	switch x := v.(type) {
	case model.Int:
		return float64(x), true
	case model.Float:
		return float64(x), true
	}
	return 0, false
}

// truth converts a predicate result to a boolean; null is false.
func truth(v value) (bool, error) {
	if v.isNull() {
		return false, nil
	}
	a, err := v.asAtom()
	if err != nil {
		return false, err
	}
	b, ok := a.(model.Bool)
	if !ok {
		return false, fmt.Errorf("exec: predicate evaluated to %v, not a boolean", a)
	}
	return bool(b), nil
}

// evalQuant evaluates EXISTS/ALL over a subtable or stored table. One
// tuple decides the quantifier — a witness for EXISTS, a counterexample
// for ALL — and iteration stops there; undecided (including an empty or
// null table) ALL is vacuously true and EXISTS false. A stored table is
// read through the same cursor as a FROM item without ASOF, so it sees
// the same snapshot, fetching only the paths the condition touches and
// skipping the objects its pre-test rules out — both bound with the
// enclosing block; the deferred Close is the early stop. The quantified
// variable has one scope and one binding, rebound in place for every
// member tested, allocated together (scopes chain through evalQuant's
// recursion, so the compiler keeps none of them on the stack).
func (e *Executor) evalQuant(q *sql.Quant, en *env) (bool, error) {
	qs := &struct {
		scope env
		slot  [1]slot
		b     binding
	}{}
	qs.slot[0] = slot{q.Var, &qs.b}
	qs.scope = env{slots: qs.slot[:], parent: en, params: en.params, blk: en.blk}
	decides := func(tt *model.TableType, tup model.Tuple) (bool, error) {
		qs.b = binding{tt: tt, tup: tup}
		ok, err := e.evalCond(q.Cond, &qs.scope)
		return ok != q.All, err
	}
	if q.Source.Table != "" {
		t, ok := e.RT.Table(q.Source.Table)
		if !ok {
			return false, fmt.Errorf("exec: unknown table %q", q.Source.Table)
		}
		sc, err := e.RT.OpenScan(t, 0, en.blk.quantFetch(q), false)
		if err != nil {
			return false, err
		}
		defer sc.Close()
		for {
			_, tup, ok, err := sc.Next()
			if err != nil {
				return false, err
			}
			if !ok {
				return q.All, nil
			}
			d, err := decides(t.Type, tup)
			if err != nil {
				return false, err
			}
			if d {
				return !q.All, nil
			}
		}
	}
	v, err := e.evalPath(q.Source.Path, en)
	if err != nil {
		return false, err
	}
	if v.isNull() {
		return q.All, nil
	}
	tbl, ok := v.atom.(*model.Table)
	if !ok {
		return false, fmt.Errorf("exec: quantifier source %s is not a table", q.Source.Path)
	}
	for _, tup := range tbl.Tuples {
		d, err := decides(v.tt, tup)
		if err != nil {
			return false, err
		}
		if d {
			return !q.All, nil
		}
	}
	return q.All, nil
}

func (e *Executor) evalCond(x sql.Expr, en *env) (bool, error) {
	v, err := e.evalExpr(x, en)
	if err != nil {
		return false, err
	}
	return truth(v)
}

func (e *Executor) evalContains(c *sql.Contains, en *env) (value, error) {
	v, err := e.evalExpr(c.Text, en)
	if err != nil {
		return value{}, err
	}
	if v.isNull() {
		return atomVal(model.Bool(false)), nil
	}
	a, err := v.asAtom()
	if err != nil {
		return value{}, err
	}
	s, ok := a.(model.Str)
	if !ok {
		return value{}, fmt.Errorf("exec: CONTAINS requires a string attribute")
	}
	return atomVal(model.Bool(textindex.Contains(string(s), c.Mask))), nil
}
