// Package plan selects access paths for NF² statements. Following §4.2
// of the paper, it inspects the conjuncts of a WHERE clause — a
// query's, or the one by which an UPDATE, a DELETE or an INSERT INTO a
// subtable locates its targets — for predicates that an index can
// answer:
//
//   - direct restrictions x.A = literal on a top-level attribute;
//   - EXISTS chains like EXISTS y IN x.PROJECTS EXISTS z IN
//     y.MEMBERS: z.FUNCTION = 'Consultant', which an index on
//     PROJECTS.MEMBERS.FUNCTION answers;
//   - masked text predicates x.TITLE CONTAINS '*comput*', answered by
//     a text index.
//
// The work is split into two phases. The bind phase (chooseAccess)
// recognizes indexable conjuncts and records an AccessChoice per
// usable one — which index, which operator, which operand expression.
// The operand may be a `?` placeholder, so a choice is a pure
// decision, independent of data and of parameter values; it is what a
// cached plan stores. Every statement is bound into a Prepared — by
// Prepare for the plan cache, by Bind for a statement that runs once —
// and runs the same way from there. The execute phase (evalChoice)
// resolves the operand against the bound arguments and runs the index
// lookup, producing the candidate root set for this execution. Conjunctions
// intersect the sets; the runtime's own unpublished writes are added
// back (evalAccess). Every FROM item is looked up at the instant it
// reads — its explicit ASOF, recorded on its choices, or else the one
// the runtime resolves per execution: an index keeps every entry of
// every instant from its watermark on (index.BTree), so a lookup at an
// instant no earlier than the watermark answers and one before it falls
// back to the scan, and the candidates are read at the instant.
// Data-TID indexes are never chosen: as §4.2 shows, their addresses
// cannot locate the containing complex object at all. The executor
// re-verifies the full WHERE clause on the candidates, so planning only
// needs superset correctness — a choice
// that cannot be evaluated (missing index, unbound parameter) simply
// falls back to a full scan.
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/sql"
	"repro/internal/textindex"
)

// chooses counts the binds of statements that run once and have a FROM
// list to plan (Bind); prepares (in prepared.go) counts Prepare calls.
// The prepared-statement tests assert both stay flat across PreparedStmt
// re-executions — the "zero planner work" acceptance check.
var chooses atomic.Uint64

// ChooseCount returns the process-wide count of ad hoc planning runs:
// one per statement bound by Bind with a FROM list.
func ChooseCount() uint64 { return chooses.Load() }

// AccessChoice is one bind-time access-path decision: answer a WHERE
// conjunct restricting one FROM variable with the named index. It
// carries no data — evaluation at execute time resolves the operand
// (a literal or a bound `?` argument) and runs the lookup.
type AccessChoice struct {
	// Table is the stored table the FROM item ranges over.
	Table string
	// Index is the chosen index's name (value index, or text index
	// when Text is set). Evaluation re-resolves it by name against the
	// live runtime, so a dropped or degraded index silently degrades
	// the choice to a full scan — a stale plan can never touch it.
	Index string
	Text  bool
	// Path is the indexed attribute path (for plan description).
	Path []string
	// Op and Operand describe the predicate for value indexes:
	// Op ∈ {=, <, <=, >, >=}, Operand a *sql.Literal or *sql.Param.
	Op      string
	Operand sql.Expr
	// Mask is the CONTAINS mask for text indexes.
	Mask string
	// AsOf is the instant of the FROM item's explicit ASOF, 0 when it
	// has none and the runtime resolves its instant per execution
	// (exec.Runtime.ReadAt). The index answers an instant only from its
	// watermark on (index.BTree); before it the item is scanned.
	AsOf int64
}

// String renders the choice for EXPLAIN output.
func (c AccessChoice) String() string {
	if c.Text {
		return fmt.Sprintf("text index %s CONTAINS %q%s", c.Index, c.Mask, at(c.AsOf))
	}
	return fmt.Sprintf("index %s(%s) %s %s%s", c.Index, strings.Join(c.Path, "."), c.Op, operandString(c.Operand), at(c.AsOf))
}

// at renders the instant of a choice: nothing for the current state.
func at(asof int64) string {
	if asof == 0 {
		return ""
	}
	return fmt.Sprintf(" at %d", asof)
}

func operandString(x sql.Expr) string {
	switch o := x.(type) {
	case *sql.Literal:
		return fmt.Sprintf("%v", o.Val)
	case *sql.Param:
		return fmt.Sprintf("?%d", o.Ord)
	}
	return fmt.Sprintf("%v", x)
}

// AccessList is the access choices of one top-level FROM item, in the
// order of the WHERE conjuncts they answer. An execution intersects the
// root sets of those that evaluate; its candidate list marks which did
// (exec.Candidates.Used), and Why renders the EXPLAIN text from the marks
// only when asked.
type AccessList []AccessChoice

// maxChoices bounds the choices an item records: exec.Candidates marks
// the ones that answered in one word. Dropping a conjunct only widens
// the candidate list, which the executor's WHERE re-test narrows again.
const maxChoices = 64

// Why renders the access path of one execution: the choices marked in
// used, their operands bound to params, joined by ∩, and the union with
// the runtime's own writes when own is set. An item no choice answered
// (used 0) renders as "", a full scan — or, when a choice's index keeps
// no entries of the instant rt reads the item at, as a scan that names
// the index and its watermark.
func (l AccessList) Why(used uint64, own bool, params []model.Value, rt exec.Runtime) string {
	if used == 0 {
		if len(l) == 0 {
			return ""
		}
		at, _ := rt.ReadAt(l[0].Table, l[0].AsOf)
		for j := range l {
			if w, ok := l[j].watermark(rt); ok && at != 0 && w > at {
				return fmt.Sprintf("scan: index %s holds no entries before %d", l[j].Index, w)
			}
		}
		return ""
	}
	var b strings.Builder
	for j, c := range l {
		if used&(1<<j) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ∩ ")
		}
		b.WriteString(c.why(params))
	}
	if own {
		b.WriteString(" ∪ this transaction's writes")
	}
	return b.String()
}

// why renders one choice that answered, its operand bound to params.
func (c *AccessChoice) why(params []model.Value) string {
	if c.Text {
		return fmt.Sprintf("text index %s CONTAINS %q%s", c.Index, c.Mask, at(c.AsOf))
	}
	val, _ := operandValue(c.Operand, params)
	path := strings.Join(c.Path, ".")
	if c.Op == "=" {
		return fmt.Sprintf("index %s(%s)=%v%s", c.Index, path, val, at(c.AsOf))
	}
	return fmt.Sprintf("index %s(%s) %s %v (range)%s", c.Index, path, c.Op, val, at(c.AsOf))
}

// chooseAccess records the access choices for every item of a
// top-level FROM list — a SELECT's or a DML statement's — indexed by
// item; nil when no item has one. Only uncorrelated stored tables are
// considered. An item with an explicit ASOF records its instant on its
// choices; any other is read at the instant its execution's runtime
// resolves. The indexes describe the current state, and each keeps
// every entry of every instant from its watermark on, so an execution
// uses the index at an instant no earlier than the watermark and scans
// otherwise (evalChoice).
func chooseAccess(from []sql.FromItem, where sql.Expr, rt exec.Runtime) []AccessList {
	if where == nil {
		return nil
	}
	var out []AccessList
	for i, fi := range from {
		if fi.Source.Table == "" {
			continue
		}
		asof, ok := instant(fi, rt)
		if !ok {
			continue
		}
		var choices AccessList
		for _, conj := range conjuncts(where) {
			if len(choices) == maxChoices {
				break
			}
			if c, ok := tryConjunct(conj, fi.Var, fi.Source.Table, rt); ok {
				c.AsOf = asof
				choices = append(choices, c)
			}
		}
		if len(choices) > 0 {
			if out == nil {
				out = make([]AccessList, len(from))
			}
			out[i] = choices
		}
	}
	return out
}

// instant returns the instant a FROM item reads at: 0 without an ASOF,
// the literal's instant with one. An ASOF that is not a literal time
// reports not-ok: the item is left to the executor, which reports the
// error.
func instant(fi sql.FromItem, rt exec.Runtime) (int64, bool) {
	if fi.AsOf == nil {
		return 0, true
	}
	lit, ok := fi.AsOf.(*sql.Literal)
	if !ok {
		return 0, false
	}
	asof, err := rt.ParseTime(lit.Val)
	return asof, err == nil
}

// evalAccess evaluates recorded choices against the live runtime and
// the bound parameters, intersecting the root sets per FROM item. Each
// item is looked up at the instant the runtime reads it at
// (exec.Runtime.ReadAt): an index answers an instant only from its
// watermark on, where it holds every entry of that instant, so an object
// that satisfied the predicate then still carries the entries that find
// it (DESIGN.md §5.1, "Access paths per scope"). The references of the
// runtime's own unpublished writes join every candidate list of their
// table: no index holds their images. The executor re-tests the WHERE
// on whatever it reads, so the candidates only have to be a superset.
// The result is indexed by FROM item, nil when no choice evaluates; it
// holds the root sets and which choices answered, and no text.
func evalAccess(access []AccessList, rt exec.Runtime, params []model.Value) []exec.Candidates {
	if access == nil {
		return nil
	}
	var out []exec.Candidates
	for i, choices := range access {
		if len(choices) == 0 {
			continue
		}
		at, own := rt.ReadAt(choices[0].Table, choices[0].AsOf)
		var c exec.Candidates
		for j := range choices {
			refs, ok := evalChoice(&choices[j], at, rt, params)
			if !ok {
				continue
			}
			if c.Used == 0 {
				c.Refs = refs
			} else {
				c.Refs = intersectRefs(c.Refs, refs)
			}
			c.Used |= 1 << j
		}
		if c.Used == 0 {
			continue
		}
		if len(own) > 0 {
			c.Refs, c.Own = unionRefs(c.Refs, own), true
		}
		if out == nil {
			out = make([]exec.Candidates, len(access))
		}
		out[i] = c
	}
	return out
}

// evalChoice runs one access choice: resolve the operand, re-resolve
// the index by name, and look up the distinct roots at instant at (0 =
// the current state). Any failure — an instant before the index's
// watermark included (index.ErrWatermark) — reports not-ok and the
// conjunct is answered by the scan instead.
func evalChoice(c *AccessChoice, at int64, rt exec.Runtime, params []model.Value) ([]page.TID, bool) {
	if c.Text {
		ti := c.textIndex(rt)
		if ti == nil {
			return nil, false
		}
		addrs, err := ti.SearchAt(c.Mask, at)
		return textindex.DistinctRoots(addrs), err == nil
	}
	val, ok := operandValue(c.Operand, params)
	ix := c.valueIndex(rt)
	if !ok || ix == nil {
		return nil, false
	}
	if c.Op == "=" {
		refs, err := ix.LookupRoots(val, at)
		return refs, err == nil
	}
	var lo, hi model.Value
	switch c.Op {
	case "<", "<=":
		hi = val
	case ">", ">=":
		lo = val
	default:
		return nil, false
	}
	var addrs []index.Addr
	if err := ix.LookupRange(lo, hi, at, func(as []index.Addr) bool {
		addrs = append(addrs, as...)
		return true
	}); err != nil {
		return nil, false
	}
	return index.DistinctRoots(addrs), true
}

// valueIndex re-resolves a value choice's index by name against the live
// runtime; nil when it is gone or is a DataTID index.
func (c *AccessChoice) valueIndex(rt exec.Runtime) *index.Index {
	for _, ix := range rt.Indexes(c.Table) {
		if ix.Name == c.Index && ix.Kind != index.DataTID {
			return ix
		}
	}
	return nil
}

// textIndex re-resolves a text choice's index by name; nil when gone.
func (c *AccessChoice) textIndex(rt exec.Runtime) *textindex.Index {
	for _, ti := range rt.TextIndexes(c.Table) {
		if ti.Name == c.Index {
			return ti
		}
	}
	return nil
}

// watermark returns the watermark of the choice's live index.
func (c *AccessChoice) watermark(rt exec.Runtime) (int64, bool) {
	if c.Text {
		if ti := c.textIndex(rt); ti != nil {
			return ti.Watermark(), true
		}
	} else if ix := c.valueIndex(rt); ix != nil {
		return ix.Watermark(), true
	}
	return 0, false
}

// operandValue resolves a choice operand: literals carry their value,
// parameters read the bound argument by 1-based ordinal.
func operandValue(x sql.Expr, params []model.Value) (model.Value, bool) {
	switch o := x.(type) {
	case *sql.Literal:
		return o.Val, true
	case *sql.Param:
		if o.Ord >= 1 && o.Ord <= len(params) {
			return params[o.Ord-1], true
		}
		return nil, false
	}
	return nil, false
}

// conjuncts splits a predicate at top-level ANDs.
func conjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// tryConjunct recognizes an indexable predicate restricting variable
// v over stored table tbl, returning the access choice to answer it.
func tryConjunct(e sql.Expr, v, tbl string, rt exec.Runtime) (AccessChoice, bool) {
	switch x := e.(type) {
	case *sql.Binary:
		path, operand, flipped, ok := pathCmpOperand(x)
		if !ok || path.Var != v {
			return AccessChoice{}, false
		}
		names, ok := nameSteps(path.Steps)
		if !ok {
			return AccessChoice{}, false
		}
		op := x.Op
		if flipped {
			op = flip(op)
		}
		return findValueIndex(rt, tbl, names, op, operand)
	case *sql.Quant:
		if x.All {
			return AccessChoice{}, false
		}
		names, operand, ok := existsChain(x, v)
		if !ok {
			return AccessChoice{}, false
		}
		return findValueIndex(rt, tbl, names, "=", operand)
	case *sql.Contains:
		path, ok := x.Text.(*sql.PathExpr)
		if !ok || path.Var != v {
			return AccessChoice{}, false
		}
		names, ok := nameSteps(path.Steps)
		if !ok {
			return AccessChoice{}, false
		}
		return findTextIndex(rt, tbl, names, x.Mask)
	}
	return AccessChoice{}, false
}

// isOperand reports whether an expression can serve as an index
// operand: a constant literal or a `?` parameter.
func isOperand(x sql.Expr) bool {
	switch x.(type) {
	case *sql.Literal, *sql.Param:
		return true
	}
	return false
}

// pathEqOperand matches path = (literal|param) (either side).
func pathEqOperand(b *sql.Binary) (*sql.PathExpr, sql.Expr, bool) {
	if b.Op != "=" {
		return nil, nil, false
	}
	p, o, _, ok := pathCmpOperand(b)
	return p, o, ok
}

// pathCmpOperand matches path OP (literal|param) (either side) for
// the comparison operators; flipped reports that the operand was on
// the left, so the effective operator must be mirrored.
func pathCmpOperand(b *sql.Binary) (*sql.PathExpr, sql.Expr, bool, bool) {
	switch b.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return nil, nil, false, false
	}
	if p, ok := b.L.(*sql.PathExpr); ok && isOperand(b.R) {
		return p, b.R, false, true
	}
	if p, ok := b.R.(*sql.PathExpr); ok && isOperand(b.L) {
		return p, b.L, true, true
	}
	return nil, nil, false, false
}

func flip(op string) string {
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

func nameSteps(steps []sql.PathStep) ([]string, bool) {
	var names []string
	for _, s := range steps {
		if s.Name == "" {
			return nil, false // [k] steps are not indexable
		}
		names = append(names, s.Name)
	}
	if len(names) == 0 {
		return nil, false
	}
	return names, true
}

// existsChain matches EXISTS v1 IN x.A [EXISTS v2 IN v1.B ...]:
// vn.C = operand, returning the full attribute path A...B...C.
func existsChain(q *sql.Quant, baseVar string) ([]string, sql.Expr, bool) {
	var names []string
	curVar := baseVar
	cur := q
	for {
		if cur.All || cur.Source.Path == nil || cur.Source.Path.Var != curVar {
			return nil, nil, false
		}
		segs, ok := nameSteps(cur.Source.Path.Steps)
		if !ok {
			return nil, nil, false
		}
		names = append(names, segs...)
		curVar = cur.Var
		switch body := cur.Cond.(type) {
		case *sql.Quant:
			cur = body
		case *sql.Binary:
			path, operand, ok := pathEqOperand(body)
			if !ok || path.Var != curVar {
				return nil, nil, false
			}
			segs, ok := nameSteps(path.Steps)
			if !ok {
				return nil, nil, false
			}
			return append(names, segs...), operand, true
		default:
			return nil, nil, false
		}
	}
}

// findValueIndex picks the first live non-DataTID index matching the
// attribute path and records the choice.
func findValueIndex(rt exec.Runtime, tbl string, path []string, op string, operand sql.Expr) (AccessChoice, bool) {
	for _, ix := range rt.Indexes(tbl) {
		if ix.Kind == index.DataTID {
			continue // cannot locate the containing complex object (§4.2)
		}
		if !samePath(ix.Path, path) {
			continue
		}
		return AccessChoice{Table: tbl, Index: ix.Name, Path: path, Op: op, Operand: operand}, true
	}
	return AccessChoice{}, false
}

func findTextIndex(rt exec.Runtime, tbl string, path []string, mask string) (AccessChoice, bool) {
	for _, ti := range rt.TextIndexes(tbl) {
		if !samePath(ti.Path, path) {
			continue
		}
		return AccessChoice{Table: tbl, Index: ti.Name, Text: true, Path: path, Mask: mask}, true
	}
	return AccessChoice{}, false
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

// unionRefs appends to a the references of b it lacks.
func unionRefs(a, b []page.TID) []page.TID {
	seen := make(map[page.TID]bool, len(a)+len(b))
	for _, r := range a {
		seen[r] = true
	}
	for _, r := range b {
		if !seen[r] {
			seen[r] = true
			a = append(a, r)
		}
	}
	return a
}

func intersectRefs(a, b []page.TID) []page.TID {
	set := make(map[page.TID]bool, len(b))
	for _, r := range b {
		set[r] = true
	}
	var out []page.TID
	for _, r := range a {
		if set[r] {
			out = append(out, r)
		}
	}
	return out
}
