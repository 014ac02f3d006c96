package main

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/model"
)

// Statement texts shared by point_warm and net_mixed.
const (
	sqlFlatPoint = `SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	sqlNested    = `SELECT x.DNO, PROJECTS = (SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS) FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	indexDNO     = "DEPT_DNO"
)

// wantFlat and wantNested are the oracle's answers for one department,
// hashed from the model tuple without allocating.
func wantFlat(d model.Tuple) expect {
	return expect{1, hashTuple(model.Tuple{d[aDNO], d[aMGRNO], d[aBUDGET]})}
}

func wantNested(d model.Tuple) expect {
	return expect{1, hashTuple(model.Tuple{d[aDNO], d[aPROJECTS]})}
}

// pointWarm is the CPU-only statement path: data a quarter of the pool
// or less, a B-tree on DNO, and a mix of prepared flat point selects,
// prepared nested projections of one department, and ad-hoc text.
type pointWarm struct{}

func (pointWarm) name() string                { return "point_warm" }
func (pointWarm) cycle() int                  { return 1 }
func (pointWarm) openRate(sizes) float64      { return 0 }
func (pointWarm) traceOps(sz sizes) int       { return sz.PointTraceOps }
func (pointWarm) fixedOps(sizes) (int, int)   { return 0, 0 }
func (pointWarm) probeSQL() string            { return sqlNested }
func (pointWarm) probeText() (string, string) { return "", "" }
func (pointWarm) probeIndex() (string, func(*env, int) model.Value) {
	return indexDNO, func(e *env, i int) model.Value { return model.Int(firstDNO + i%e.sz.PointDepts) }
}

// setup uses file-backed segments without a WAL: nothing is written
// after the load, and once the pool is warm nothing is read either, so
// the timed window sees segment.reads == 0 as a checked fact while
// reopen_s and space_amp still have files to measure.
func (pointWarm) setup(e *env) error {
	if err := e.open(e.sz.PointPool, false); err != nil {
		return err
	}
	if err := e.load(readShape(e.sz.PointDepts, e.seed), false); err != nil {
		return err
	}
	if err := e.db.CreateIndex(indexDNO, table, []string{"DNO"}, "HIERARCHICAL"); err != nil {
		return err
	}
	return e.seal()
}

// The statement kinds of point_warm and their shares in percent.
const (
	opFlat = iota
	opNested
	opAdhoc
)

var pointMix = []int{opFlat: 60, opNested: 30, opAdhoc: 10}

type pointClient struct {
	e      *env
	id     int
	rng    *rand.Rand
	mix    *deck
	all    []model.Tuple // every department: reads are not sharded
	flat   *engine.PreparedStmt
	nested *engine.PreparedStmt
	adhoc  int64 // ad-hoc statements sent, for the fresh literal
}

func (pointWarm) newClient(e *env, id int) (client, error) {
	c := &pointClient{e: e, id: id, rng: e.rng(id)}
	c.mix = newDeck(c.rng, pointMix)
	for _, s := range e.shards {
		c.all = append(c.all, s.depts...)
	}
	var err error
	if c.flat, err = e.db.Prepare(sqlFlatPoint); err != nil {
		return nil, err
	}
	if c.nested, err = e.db.Prepare(sqlNested); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *pointClient) step(tr *tracer) (opClass, bool) {
	d := c.all[c.rng.Intn(len(c.all))]
	ok := false
	tr.begin("stmt")
	switch c.mix.draw() {
	case opFlat:
		ok = c.e.checkRows(tr, func() (rowSource, error) { return c.flat.QueryRows(d[aDNO]) }, wantFlat(d))
	case opNested:
		ok = c.e.checkRows(tr, func() (rowSource, error) { return c.nested.QueryRows(d[aDNO]) }, wantNested(d))
	case opAdhoc:
		// A literal no earlier statement had: the normalized text is
		// new, so the plan cache misses and the statement pays parse,
		// Normalize and bind.
		c.adhoc++
		text := fmt.Sprintf(`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = %d AND x.MGRNO <> %d`,
			int64(d[aDNO].(model.Int)), -(c.adhoc*int64(c.e.nClients) + int64(c.id)))
		ok = c.e.adhocPrepared(tr, text, wantFlat(d))
	}
	tr.end()
	return classRead, !ok
}
