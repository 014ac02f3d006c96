package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/sql"
	"repro/internal/subtuple"
)

// pipeline is the pull-based form of the nested-loop binding of range
// variables ("associate them with a loop which runs over all tuples
// of the relation they are bound to", §3): an odometer over the FROM
// items, advancing the innermost iterator first and reopening inner
// iterators whenever an outer binding moves. Stored tables are read
// through Runtime.OpenScan/OpenRef with the block's derived path
// sets, so objects are fetched pruned; path sources iterate the
// (already fetched) subtable of their outer binding. No buffer pages
// are held between next calls and close releases every open cursor,
// so an abandoned pipeline leaks nothing.
type pipeline struct {
	e     *Executor
	ctx   context.Context
	items []sql.FromItem
	scope *env
	cands map[int]*Candidates
	paths map[int]*object.PathSet // per FROM item; nil map = full reads

	iters     []fromIter
	started   bool
	exhausted bool
}

// fromIter is the live state of one FROM item's iterator.
type fromIter struct {
	open bool
	asof int64

	// b is the item's range variable: advance overwrites it in place and
	// the scope keeps pointing at it, so a binding costs no allocation.
	// Nothing holds on to a binding or its steps across an advance:
	// result construction and DML targets copy what they keep. steps is
	// the storage b.steps is rebuilt in; it survives closeIter.
	b     binding
	steps []object.Step

	// Stored-table source: either a scan cursor or a candidate list.
	t        *catalog.Table
	sc       ScanCursor
	refs     []page.TID
	refi     int
	candMode bool

	// Path source: the subtable of the current outer binding.
	tbl  *model.Table
	mt   *model.TableType
	prov *provenance
	pos  int
}

func newPipeline(e *Executor, ctx context.Context, items []sql.FromItem, scope *env, cands map[int]*Candidates, paths map[int]*object.PathSet) *pipeline {
	return &pipeline{
		e: e, ctx: ctx, items: items, scope: scope, cands: cands, paths: paths,
		iters: make([]fromIter, len(items)),
	}
}

// next advances to the next complete binding of all range variables
// (bound into the pipeline's scope). It returns false when the
// iteration space is exhausted. The context is checked once per call
// — once per tuple binding, as before.
func (p *pipeline) next() (bool, error) {
	if p.exhausted {
		return false, nil
	}
	if err := p.ctx.Err(); err != nil {
		p.close()
		return false, err
	}
	var ok bool
	var err error
	if !p.started {
		p.started = true
		ok, err = p.fill(0)
	} else {
		ok, err = p.step(len(p.iters) - 1)
	}
	if err != nil || !ok {
		p.close()
	}
	return ok, err
}

// fill opens iterators i..n-1 in order and binds the first member of
// each; an empty iterator at level j backtracks to advance level j-1.
func (p *pipeline) fill(i int) (bool, error) {
	for ; i < len(p.iters); i++ {
		if err := p.openIter(i); err != nil {
			return false, err
		}
		ok, err := p.advance(i)
		if err != nil {
			return false, err
		}
		if !ok {
			p.closeIter(i)
			return p.step(i - 1)
		}
	}
	return true, nil
}

// step advances iterator i; when it is exhausted it closes it and
// moves outward, then refills the inner iterators.
func (p *pipeline) step(i int) (bool, error) {
	for ; i >= 0; i-- {
		ok, err := p.advance(i)
		if err != nil {
			return false, err
		}
		if ok {
			return p.fill(i + 1)
		}
		p.closeIter(i)
	}
	return false, nil
}

// openIter initializes iterator i against the current outer bindings.
func (p *pipeline) openIter(i int) error {
	it := &p.iters[i]
	fi := p.items[i]
	*it = fromIter{open: true, steps: it.steps[:0]}
	if fi.AsOf != nil {
		lit, ok := fi.AsOf.(*sql.Literal)
		if !ok {
			return fmt.Errorf("exec: ASOF requires a literal timestamp")
		}
		asof, err := p.e.RT.ParseTime(lit.Val)
		if err != nil {
			return err
		}
		it.asof = asof
	}
	if fi.Source.Table != "" {
		t, ok := p.e.RT.Table(fi.Source.Table)
		if !ok {
			return fmt.Errorf("exec: unknown table %q", fi.Source.Table)
		}
		if it.asof != 0 && !t.Versioned {
			return fmt.Errorf("exec: table %q is not versioned; ASOF unavailable", t.Name)
		}
		it.t = t
		if c := p.cands[i]; c != nil {
			it.candMode = true
			it.refs = c.Refs
			return nil
		}
		sc, err := p.e.RT.OpenScan(t, it.asof, p.paths[i])
		if err != nil {
			return err
		}
		it.sc = sc
		return nil
	}
	tbl, mt, prov, err := p.e.evalFromPath(fi.Source.Path, p.scope)
	if err != nil {
		return err
	}
	it.tbl = tbl // nil table (null subtable) yields no bindings
	it.mt = mt
	it.prov = prov
	return nil
}

// advance binds the next member of iterator i into the scope. The
// variable is (re)bound on every advance, not once per open: a later
// FROM item may rebind the same name.
func (p *pipeline) advance(i int) (bool, error) {
	it := &p.iters[i]
	p.scope.bind(p.items[i].Var, &it.b)
	if it.t != nil {
		if it.candMode {
			for it.refi < len(it.refs) {
				ref := it.refs[it.refi]
				it.refi++
				tup, err := p.e.RT.OpenRef(it.t, ref, it.asof, p.paths[i])
				if err != nil {
					if errors.Is(err, subtuple.ErrNotFound) {
						continue // candidate vanished between planning and execution
					}
					return false, err
				}
				if tup == nil {
					continue // the pre-test ruled the candidate out
				}
				it.b = binding{tt: it.t.Type, tup: tup, tbl: it.t, ref: ref, asof: it.asof}
				return true, nil
			}
			return false, nil
		}
		ref, tup, ok, err := it.sc.Next()
		if err != nil || !ok {
			return false, err
		}
		it.b = binding{tt: it.t.Type, tup: tup, tbl: it.t, ref: ref, asof: it.asof}
		return true, nil
	}
	if it.tbl == nil || it.pos >= len(it.tbl.Tuples) {
		return false, nil
	}
	pos := it.pos
	it.pos++
	it.b = binding{tt: it.mt, tup: it.tbl.Tuples[pos]}
	if it.prov != nil {
		it.steps = append(append(it.steps[:0], it.prov.steps...), object.Step{Attr: it.prov.attr, Pos: pos})
		it.b.tbl, it.b.ref, it.b.steps, it.b.asof = it.prov.tbl, it.prov.ref, it.steps, it.prov.asof
	}
	return true, nil
}

func (p *pipeline) closeIter(i int) {
	it := &p.iters[i]
	if it.sc != nil {
		it.sc.Close()
	}
	*it = fromIter{steps: it.steps[:0]}
}

// close releases every open iterator; idempotent.
func (p *pipeline) close() {
	for i := range p.iters {
		if p.iters[i].open {
			p.closeIter(i)
		}
	}
	p.exhausted = true
}

// Cursor streams the result tuples of one select block: bindings come
// from a pipeline, each is filtered by WHERE, shaped by the result
// clause, and deduplicated under DISTINCT. ORDER BY forces a
// materialize-and-sort barrier on the first Next (sorting cannot
// stream), after which the sorted rows replay one at a time.
type Cursor struct {
	e     *Executor
	ctx   context.Context
	sel   *sql.Select
	tt    *model.TableType
	scope *env
	pipe  *pipeline
	seen  map[string]bool // DISTINCT filter

	sorted  []model.Tuple // ORDER BY buffer after the sort barrier
	sorti   int
	drained bool
	closed  bool
}

// OpenQuery opens a streaming cursor over a top-level select.
func (e *Executor) OpenQuery(ctx context.Context, sel *sql.Select) (*Cursor, error) {
	return e.OpenQueryArgs(ctx, sel, nil)
}

// OpenQueryArgs is OpenQuery with bound `?` parameter values.
func (e *Executor) OpenQueryArgs(ctx context.Context, sel *sql.Select, params []model.Value) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.openCursor(ctx, sel, rootEnv(params), true)
}

// --- bind-phase entry points -------------------------------------------
//
// The prepare path splits openCursor's and ExecDML's per-execution work
// into a bind phase (schema inference and path-set derivation, run once
// when a statement is prepared) and an execute phase (OpenPrepared,
// ExecPreparedDML: run per execution with the precomputed artifacts).
// Access-path choice — the third bind product — lives in package plan,
// which builds on these.

// InferSelect computes the result schema of a top-level select
// (bind-phase half of openCursor).
func (e *Executor) InferSelect(sel *sql.Select) (*model.TableType, error) {
	return e.inferSelect(sel, newTypeEnv(nil))
}

// OpenPrepared opens a streaming cursor over a top-level select whose
// bind products — result schema, path sets, candidate lists — were
// computed ahead of time. It performs no inference, no path
// derivation and no access-path planning; the plan-cache hit path runs
// through here.
func (e *Executor) OpenPrepared(ctx context.Context, sel *sql.Select, tt *model.TableType, paths map[int]*object.PathSet, cands map[int]*Candidates, params []model.Value) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	scope := rootEnv(params)
	return &Cursor{
		e: e, ctx: ctx, sel: sel, tt: tt, scope: scope,
		pipe: newPipeline(e, ctx, sel.From, scope, cands, paths),
		seen: make(map[string]bool),
	}, nil
}

// openCursor prepares a cursor for a select block in an outer
// environment: infer the result schema, derive the required path set
// per stored-table variable, choose access paths, and set up the
// binding pipeline. No data is read until the first Next.
func (e *Executor) openCursor(ctx context.Context, sel *sql.Select, outer *env, planning bool) (*Cursor, error) {
	resultType, err := e.inferSelect(sel, typeEnvFrom(outer))
	if err != nil {
		return nil, err
	}
	var paths map[int]*object.PathSet
	if !e.FullPaths {
		paths = e.derivePaths(sel, throwawayScope(outer))
	}
	var cands map[int]*Candidates
	if planning {
		cands = e.choose(sel.From, sel.Where, outer.args())
	}
	scope := newEnv(outer)
	c := &Cursor{
		e: e, ctx: ctx, sel: sel, tt: resultType, scope: scope,
		pipe: newPipeline(e, ctx, sel.From, scope, cands, paths),
		seen: make(map[string]bool),
	}
	return c, nil
}

// choose runs the inline planner over a top-level FROM list under its
// WHERE clause, `?` operands resolved against params, and traces the
// decisions; nil without a planner.
func (e *Executor) choose(from []sql.FromItem, where sql.Expr, params []model.Value) map[int]*Candidates {
	if e.Plan == nil {
		return nil
	}
	cands := e.Plan(from, where, e.RT, params)
	if e.Trace != nil {
		for i, c := range cands {
			if c != nil {
				e.Trace(fmt.Sprintf("from item %d (%s): %s (%d candidates)", i, from[i].Var, c.Why, len(c.Refs)))
			}
		}
	}
	return cands
}

// describePlan renders the chosen access path, fetch set and pre-test
// of each FROM item for EXPLAIN output.
func describePlan(e *Executor, sel *sql.Select, cands map[int]*Candidates, paths map[int]*object.PathSet) []string {
	out := make([]string, len(sel.From))
	for i, fi := range sel.From {
		source := fi.Source.Table
		if source == "" {
			out[i] = fmt.Sprintf("%s IN %s: iterate subtable of outer binding", fi.Var, fi.Source.Path)
			continue
		}
		access := "full table scan"
		if c := cands[i]; c != nil {
			access = fmt.Sprintf("%s -> %d candidate object(s)", c.Why, len(c.Refs))
		}
		fetch := "*"
		if t, ok := e.RT.Table(source); ok && paths != nil {
			fetch = paths[i].Describe(t.Type)
		}
		out[i] = fmt.Sprintf("%s IN %s: %s, fetch %s, %s", fi.Var, source, access, fetch, paths[i].DescribeTest())
	}
	return out
}

// Type returns the result schema.
func (c *Cursor) Type() *model.TableType { return c.tt }

// AccessPlan returns the access-path description of each FROM item,
// rendered on demand: only EXPLAIN asks.
func (c *Cursor) AccessPlan() []string {
	return describePlan(c.e, c.sel, c.pipe.cands, c.pipe.paths)
}

// Next returns the next result tuple; false means the result is
// exhausted (or the cursor was closed). After an error the cursor is
// closed and every later Next returns false.
func (c *Cursor) Next() (model.Tuple, bool, error) {
	if c.closed {
		return nil, false, nil
	}
	if len(c.sel.OrderBy) > 0 {
		if !c.drained {
			if err := c.drainSorted(); err != nil {
				c.Close()
				return nil, false, err
			}
			c.drained = true
		}
		for c.sorti < len(c.sorted) {
			tup := c.sorted[c.sorti]
			c.sorti++
			if c.distinctDup(tup) {
				continue
			}
			return tup, true, nil
		}
		c.Close()
		return nil, false, nil
	}
	for {
		tup, ok, err := c.nextUnfiltered()
		if err != nil || !ok {
			c.Close()
			return nil, false, err
		}
		if c.distinctDup(tup) {
			continue
		}
		return tup, true, nil
	}
}

// distinctDup reports whether tup is a duplicate under DISTINCT.
func (c *Cursor) distinctDup(tup model.Tuple) bool {
	if !c.sel.Distinct {
		return false
	}
	key := model.CanonicalTuple(tup)
	if c.seen[key] {
		return true
	}
	c.seen[key] = true
	return false
}

// nextUnfiltered produces the next WHERE-surviving result tuple from
// the pipeline (no DISTINCT, no ordering).
func (c *Cursor) nextUnfiltered() (model.Tuple, bool, error) {
	for {
		ok, err := c.pipe.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if c.sel.Where != nil {
			keep, err := c.e.evalCond(c.sel.Where, c.scope)
			if err != nil {
				return nil, false, err
			}
			if !keep {
				continue
			}
		}
		tup, err := c.e.buildResult(c.ctx, c.sel, c.tt, c.scope)
		if err != nil {
			return nil, false, err
		}
		return tup, true, nil
	}
}

// drainSorted runs the pipeline to completion, evaluating the ORDER
// BY keys alongside each result tuple, and sorts.
func (c *Cursor) drainSorted() error {
	type keyed struct {
		tup  model.Tuple
		keys []model.Value
	}
	var rows []keyed
	for {
		tup, ok, err := c.nextUnfiltered()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := keyed{tup: tup}
		for _, ob := range c.sel.OrderBy {
			v, err := c.e.evalExpr(ob.Expr, c.scope)
			if err != nil {
				return err
			}
			a, err := v.asAtom()
			if err != nil {
				return err
			}
			k.keys = append(k.keys, a)
		}
		rows = append(rows, k)
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, ob := range c.sel.OrderBy {
			cm, err := model.Compare(rows[i].keys[k], rows[j].keys[k])
			if err != nil {
				sortErr = err
				return false
			}
			if cm != 0 {
				if ob.Desc {
					return cm > 0
				}
				return cm < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	c.sorted = make([]model.Tuple, len(rows))
	for i, r := range rows {
		c.sorted[i] = r.tup
	}
	return nil
}

// Close releases the cursor's resources (open scans). It is
// idempotent and never fails; no buffer pages survive it.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.pipe.close()
	c.sorted = nil
	return nil
}
