package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/aimnet"
	"repro/internal/model"
	"repro/internal/netserver"
)

// sqlUnnest flattens one department into a row per member, so that a
// department of the read shape streams 96 rows through the credit
// window (a nested projection would be a single row).
const sqlUnnest = `SELECT y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE x.DNO = ?`

func wantUnnest(d model.Tuple) (want expect) {
	for _, p := range d[aPROJECTS].(*model.Table).Tuples {
		for _, m := range p[2].(*model.Table).Tuples {
			want.add(model.Tuple{p[0], p[1], m[0], m[1]})
		}
	}
	return want
}

// netMixed is the server as independent users see it: an on-disk
// primary behind an in-process netserver on loopback, two aimnet
// connections, an open loop at a fixed total rate with every request
// timed from its due time. Each connection reads and updates only its
// own departments, so the oracle knows every answer exactly.
type netMixed struct{}

func (netMixed) name() string                 { return "net_mixed" }
func (netMixed) cycle() int                   { return 1 }
func (netMixed) openRate(sz sizes) float64    { return sz.NetRate }
func (netMixed) traceOps(sz sizes) int        { return sz.NetTraceOps }
func (netMixed) fixedOps(sz sizes) (int, int) { return sz.NetFixedOps, sz.ReopenTail }
func (netMixed) probeSQL() string             { return sqlNested }
func (netMixed) probeText() (string, string)  { return "", "" }
func (netMixed) probeIndex() (string, func(*env, int) model.Value) {
	return indexDNO, func(e *env, i int) model.Value { return model.Int(firstDNO + i%e.sz.NetDepts) }
}

func (netMixed) setup(e *env) error {
	if err := e.open(e.sz.NetPool, true); err != nil {
		return err
	}
	if err := e.load(readShape(e.sz.NetDepts, e.seed), true); err != nil {
		return err
	}
	if err := e.db.CreateIndex(indexDNO, table, []string{"DNO"}, "HIERARCHICAL"); err != nil {
		return err
	}
	if err := e.seal(); err != nil {
		return err
	}
	// Every later update is stamped after this instant, so ASOF asofTS
	// must keep answering with the loaded budgets.
	e.asofTS = e.db.Now()
	e.srv = netserver.New(e.db, netserver.Options{})
	return e.srv.Start("127.0.0.1:0")
}

// The request kinds of net_mixed and their shares in percent.
const (
	opNetFlat = iota
	opNetUnnest
	opNetAsOf
	opNetUpdate
)

var netMix = []int{opNetFlat: 65, opNetUnnest: 20, opNetAsOf: 5, opNetUpdate: 10}

type netClient struct {
	e    *env
	rng  *rand.Rand
	mix  *deck
	mine *shard
	// loaded[i] is the budget department i of mine was loaded with: the
	// answer of the ASOF read however often it is updated.
	loaded []model.Value
	conn   *aimnet.Conn

	flat, unnest, asof, update *aimnet.Stmt
}

func (netMixed) newClient(e *env, id int) (client, error) {
	conn, err := aimnet.Dial(e.srv.Addr(), aimnet.Options{Client: "bench"})
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { conn.Close() })
	c := &netClient{e: e, rng: e.rng(id), mine: e.shards[id], conn: conn}
	c.mix = newDeck(c.rng, netMix)
	for _, d := range c.mine.depts {
		c.loaded = append(c.loaded, d[aBUDGET])
	}
	ctx := context.Background()
	for _, p := range []struct {
		stmt **aimnet.Stmt
		text string
	}{
		{&c.flat, sqlFlatPoint},
		{&c.unnest, sqlUnnest},
		{&c.asof, fmt.Sprintf(`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ASOF %d WHERE x.DNO = ?`, e.asofTS)},
		{&c.update, sqlUpdateBudget},
	} {
		if *p.stmt, err = conn.Prepare(ctx, p.text); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// query streams one prepared SELECT over the wire. In the traced pass
// it also notes how long the first row took to arrive.
func (c *netClient) query(tr *tracer, st *aimnet.Stmt, want expect, args ...model.Value) bool {
	if tr == nil {
		return c.e.checkRows(nil, func() (rowSource, error) { return st.Query(context.Background(), args...) }, want)
	}
	start := time.Now()
	return c.e.checkRows(tr, func() (rowSource, error) {
		rows, err := st.Query(context.Background(), args...)
		if err != nil {
			return nil, err
		}
		return &firstRowTimer{Rows: rows, start: start, into: &c.e.trFirstRow}, nil
	}, want)
}

// firstRowTimer records when a stream's first Next returns.
type firstRowTimer struct {
	*aimnet.Rows
	start time.Time
	into  *[]int64
	seen  bool
}

func (r *firstRowTimer) Next() bool {
	more := r.Rows.Next()
	if !r.seen {
		r.seen = true
		*r.into = append(*r.into, int64(time.Since(r.start)))
	}
	return more
}

func (c *netClient) step(tr *tracer) (opClass, bool) {
	i := c.rng.Intn(len(c.mine.depts))
	d := c.mine.depts[i]
	class, ok := classRead, false
	tr.begin("stmt")
	kind := c.mix.draw()
	if tr != nil && (kind == opNetFlat || kind == opNetUnnest) {
		c.e.trReplay = append(c.e.trReplay, replayOp{kind == opNetUnnest, d})
	}
	switch kind {
	case opNetFlat:
		ok = c.query(tr, c.flat, wantFlat(d), d[aDNO])
	case opNetUnnest:
		ok = c.query(tr, c.unnest, wantUnnest(d), d[aDNO])
	case opNetAsOf:
		ok = c.query(tr, c.asof, expect{1, hashTuple(model.Tuple{d[aDNO], c.loaded[i]})}, d[aDNO])
	case opNetUpdate:
		class = classWrite
		budget := model.Int(int64(100000 + c.rng.Intn(900000)))
		tr.begin("execute")
		res, err := c.update.Exec(context.Background(), budget, d[aDNO])
		tr.end()
		if ok = err == nil && res.Count == 1; ok {
			d[aBUDGET] = budget
			c.mine.updated += budgetBytes
		}
	}
	tr.end()
	return class, !ok
}
