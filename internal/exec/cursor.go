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
	cands []Candidates            // per FROM item; nil = scan every item
	paths map[int]*object.PathSet // per FROM item; nil map = full reads
	// reuse opens the stored-table scans and reads with reuse
	// (Runtime.OpenScan, Runtime.OpenRef): the block builds its rows of
	// copied atoms and cloned tables.
	reuse bool

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

	// Path source: the subtable of the current outer binding, and where
	// it lives when it has stored provenance (hasProv). prov.steps, like
	// steps, is storage that survives closeIter.
	tbl     *model.Table
	mt      *model.TableType
	prov    provenance
	hasProv bool
	pos     int
}

// init sets the pipeline up over items, its iterators in iters when
// the caller brings them (one per item), else in a fresh slice.
func (p *pipeline) init(e *Executor, ctx context.Context, items []sql.FromItem, scope *env, cands []Candidates, paths map[int]*object.PathSet, iters []fromIter) {
	if iters == nil {
		iters = make([]fromIter, len(items))
	}
	*p = pipeline{e: e, ctx: ctx, items: items, scope: scope, cands: cands, paths: paths, iters: iters}
}

// cand returns the candidate list of FROM item i, nil when the item is
// scanned.
func (p *pipeline) cand(i int) *Candidates {
	if i < len(p.cands) && p.cands[i].Used != 0 {
		return &p.cands[i]
	}
	return nil
}

// rewind closes every open iterator and makes the pipeline start over at
// the next call of next, against the outer bindings current then.
func (p *pipeline) rewind() {
	p.close()
	p.started, p.exhausted = false, false
}

// sizeHint is the number of members of the subtable the first FROM item
// iterates (0 for a stored table, or before it is open): the result size
// of a sub-block that projects one subtable.
func (p *pipeline) sizeHint() int {
	if len(p.iters) == 0 || p.iters[0].tbl == nil {
		return 0
	}
	return len(p.iters[0].tbl.Tuples)
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
	*it = fromIter{open: true, steps: it.steps[:0], prov: provenance{steps: it.prov.steps[:0]}}
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
		if c := p.cand(i); c != nil {
			it.candMode = true
			it.refs = c.Refs
			return nil
		}
		sc, err := p.e.RT.OpenScan(t, it.asof, p.paths[i], p.reuse)
		if err != nil {
			return err
		}
		it.sc = sc
		return nil
	}
	var err error
	it.tbl, it.mt, it.hasProv, err = p.e.evalFromPath(fi.Source.Path, p.scope, &it.prov)
	return err // a nil table (null subtable) yields no bindings
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
				tup, err := p.e.RT.OpenRef(it.t, ref, it.asof, p.paths[i], p.reuse)
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
	if it.hasProv {
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
	*it = fromIter{steps: it.steps[:0], prov: provenance{steps: it.prov.steps[:0]}}
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
//
// A cursor runs a bound block (Bind). The cursor of a sub-block is opened
// on the first outer row that needs it and rewound, not rebuilt, for every
// later one — its pipeline, iterators, scope and provenance included —
// while each nested result it produces is fresh (subTable).
type Cursor struct {
	e     *Executor
	ctx   context.Context
	blk   *Block
	sel   *sql.Select
	scope env
	pipe  pipeline
	seen  map[string]bool // DISTINCT filter, made on first use
	subs  []*Cursor       // sub-block cursors by select item, opened on first use

	// A sub-block's cursor cuts its result tuples from slab, a run of
	// values fresh for each nested result; slabRows is the row count of
	// the last piece, which the next one doubles.
	nested   bool
	slab     []model.Value
	slabRows int

	sorted  []model.Tuple // ORDER BY buffer after the sort barrier
	sorti   int
	drained bool
	closed  bool

	// The scope slot and the iterator of a block over one FROM item live
	// in the cursor itself: opening it is one allocation.
	slot1 [1]slot
	iter1 [1]fromIter
}

// OpenPrepared opens a streaming cursor over a top-level select bound
// ahead of time (Bind), with the candidate lists of this execution. It
// performs no inference, no path derivation and no access-path planning;
// every query runs through here. No data is read until the first Next.
func (e *Executor) OpenPrepared(ctx context.Context, blk *Block, cands []Candidates, params []model.Value) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.newCursor(ctx, blk, nil, params, cands), nil
}

// newCursor sets up the cursor of a bound block in an outer scope (nil
// at the top). A top-level block whose rows take nothing (Block.take)
// keeps nothing of a fetched tuple but atoms: its scans recycle their
// containers. A sub-block's scans do not.
func (e *Executor) newCursor(ctx context.Context, blk *Block, outer *env, params []model.Value, cands []Candidates) *Cursor {
	c := &Cursor{e: e, ctx: ctx, blk: blk, sel: blk.Sel}
	from := blk.Sel.From
	slots, iters := c.slot1[:0], []fromIter(nil)
	if len(from) <= 1 {
		iters = c.iter1[:len(from)]
	} else {
		slots = make([]slot, 0, len(from))
	}
	c.scope = env{slots: slots, parent: outer, params: params, blk: blk}
	c.pipe.init(e, ctx, from, &c.scope, cands, blk.Paths, iters)
	c.pipe.reuse = outer == nil && blk.take == nil
	return c
}

// Type returns the result schema.
func (c *Cursor) Type() *model.TableType { return c.blk.Type }

// AccessPlan renders the block tree with the chosen access path of each
// top-level FROM item (Block.Describe), on demand: only EXPLAIN asks.
// why renders the access path of item i from its candidate list; the
// planner that made the list knows the choices it marks.
func (c *Cursor) AccessPlan(why func(i int, cd *Candidates) string) []string {
	return c.blk.Describe(c.e.RT, c.sel.From, func(i int) string {
		if cd := c.pipe.cand(i); cd != nil {
			return fmt.Sprintf("%s -> %d candidate object(s)", why(i, cd), len(cd.Refs))
		}
		return ""
	})
}

// subTable evaluates the sub-block of select item i for the current
// bindings. Its cursor, opened on the first outer row, is rewound for
// every later one; the rows are collected into a fresh table sized from
// the subtable the sub-block iterates, because the nested result is part
// of a row the caller may keep.
func (c *Cursor) subTable(i int) (*model.Table, error) {
	if c.subs == nil {
		c.subs = make([]*Cursor, len(c.sel.Items))
	}
	sub := c.subs[i]
	if sub == nil {
		sub = c.e.newCursor(c.ctx, c.blk.Subs[i], &c.scope, c.scope.params, nil)
		sub.nested = true
		c.subs[i] = sub
	} else {
		sub.rewind()
	}
	out := &model.Table{Ordered: sub.blk.Type.Ordered}
	for {
		tup, ok, err := sub.Next()
		if err != nil || !ok {
			return out, err
		}
		if out.Tuples == nil {
			out.Tuples = make([]model.Tuple, 0, max(sub.pipe.sizeHint(), len(sub.sorted)))
		}
		out.Append(tup)
	}
}

// rewind resets a sub-block's cursor for the next outer row: the
// pipeline starts over, the scope forgets the previous row's bindings
// (a FROM path is evaluated before its own variable is bound, and must
// not see the variable's last binding), and the DISTINCT and ORDER BY
// state and the slab start empty.
func (c *Cursor) rewind() {
	c.pipe.rewind()
	c.scope.slots = c.scope.slots[:0]
	clear(c.seen)
	c.slab, c.slabRows = nil, 0
	c.sorted, c.sorti, c.drained, c.closed = nil, 0, false, false
}

// newTuple returns storage for one result tuple of n attributes. A
// top-level row is allocated on its own; a sub-block cuts its rows from
// the slab, with capped capacity so that no row can grow into the next,
// and starts a new piece — at first as many rows as the iterated
// subtable has members, then twice the last — when it runs out.
func (c *Cursor) newTuple(n int) model.Tuple {
	if !c.nested {
		return make(model.Tuple, n)
	}
	if len(c.slab) < n {
		c.slabRows = max(c.pipe.sizeHint(), 2*c.slabRows, 4)
		c.slab = make([]model.Value, c.slabRows*n)
	}
	tup := c.slab[:n:n]
	c.slab = c.slab[n:]
	return tup
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
	if c.seen == nil {
		c.seen = make(map[string]bool)
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
			keep, err := c.e.evalCond(c.sel.Where, &c.scope)
			if err != nil {
				return nil, false, err
			}
			if !keep {
				continue
			}
		}
		tup, err := c.buildResult()
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
			v, err := c.e.evalExpr(ob.Expr, &c.scope)
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

// Close releases the cursor's resources (open scans, its sub-blocks'
// included). It is idempotent and never fails; no buffer pages survive
// it.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.pipe.close()
	c.sorted = nil
	for _, sub := range c.subs {
		if sub != nil {
			sub.Close()
		}
	}
	return nil
}
