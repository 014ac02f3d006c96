package exec

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sql"
)

// inferred is the static type of an expression: an atomic kind, a
// table type, or a tuple type (the result of [k] indexing).
type inferred struct {
	kind  model.Kind
	table *model.TableType // when kind == KindTable
	tuple *model.TableType // when the expression denotes a member tuple
}

func (in inferred) isTuple() bool { return in.tuple != nil }

// atomKind coerces to an atomic kind (unwrapping single-attribute
// tuples) for result schema building.
func (in inferred) atomType() (model.Type, error) {
	if in.isTuple() {
		if len(in.tuple.Attrs) == 1 {
			return in.tuple.Attrs[0].Type, nil
		}
		return model.Type{}, fmt.Errorf("exec: tuple of %d attributes used as a value; select an attribute", len(in.tuple.Attrs))
	}
	if in.kind == model.KindTable {
		return model.Type{Kind: model.KindTable, Table: in.table}, nil
	}
	return model.Type{Kind: in.kind}, nil
}

// inferExpr computes the static type of an expression.
func (e *Executor) inferExpr(x sql.Expr, scope *pathScope) (inferred, error) {
	switch x := x.(type) {
	case *sql.Literal:
		if model.IsNull(x.Val) {
			return inferred{kind: model.KindString}, nil // null literal defaults to string
		}
		return inferred{kind: x.Val.Kind()}, nil
	case *sql.Param:
		// A placeholder's value type is unknown until execution; like
		// the null literal it defaults to string for schema purposes.
		return inferred{kind: model.KindString}, nil
	case *sql.PathExpr:
		return e.inferPath(x, scope)
	case *sql.Unary:
		if x.Op == "NOT" {
			return inferred{kind: model.KindBool}, nil
		}
		return e.inferExpr(x.E, scope)
	case *sql.Binary:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return inferred{kind: model.KindBool}, nil
		}
		l, err := e.inferExpr(x.L, scope)
		if err != nil {
			return inferred{}, err
		}
		r, err := e.inferExpr(x.R, scope)
		if err != nil {
			return inferred{}, err
		}
		if l.kind == model.KindFloat || r.kind == model.KindFloat {
			return inferred{kind: model.KindFloat}, nil
		}
		if l.kind == model.KindString && x.Op == "+" {
			return inferred{kind: model.KindString}, nil
		}
		return inferred{kind: model.KindInt}, nil
	case *sql.Quant, *sql.Contains:
		return inferred{kind: model.KindBool}, nil
	case *sql.TNameOf:
		return inferred{kind: model.KindString}, nil
	case *sql.Count:
		return inferred{kind: model.KindInt}, nil
	}
	return inferred{}, fmt.Errorf("exec: cannot infer type of %T", x)
}

// inferPath types a path expression.
func (e *Executor) inferPath(p *sql.PathExpr, scope *pathScope) (inferred, error) {
	n, ok := scope.lookup(p.Var)
	if !ok {
		return inferred{}, fmt.Errorf("exec: unknown variable %q", p.Var)
	}
	cur := inferred{tuple: n.tt}
	for _, st := range p.Steps {
		if st.Name != "" {
			if !cur.isTuple() {
				return inferred{}, fmt.Errorf("exec: %s: attribute %q applied to a non-tuple", p, st.Name)
			}
			attr, ok := cur.tuple.Attr(st.Name)
			if !ok {
				return inferred{}, fmt.Errorf("exec: %s: no attribute %q in %s", p, st.Name, cur.tuple)
			}
			if attr.Type.Kind == model.KindTable {
				cur = inferred{kind: model.KindTable, table: attr.Type.Table}
			} else {
				cur = inferred{kind: attr.Type.Kind}
			}
			continue
		}
		if cur.kind != model.KindTable || cur.isTuple() {
			return inferred{}, fmt.Errorf("exec: %s: [%d] applied to a non-table", p, st.Index)
		}
		cur = inferred{tuple: cur.table}
	}
	return cur, nil
}

// sourceType resolves the element type of a FROM source.
func (e *Executor) sourceType(src sql.TableRef, scope *pathScope) (*model.TableType, error) {
	if src.Table != "" {
		t, ok := e.RT.Table(src.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q", src.Table)
		}
		return t.Type, nil
	}
	in, err := e.inferPath(src.Path, scope)
	if err != nil {
		return nil, err
	}
	if in.kind != model.KindTable || in.isTuple() {
		return nil, fmt.Errorf("exec: FROM source %s is not a table", src.Path)
	}
	return in.table, nil
}
