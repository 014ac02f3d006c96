package main

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

const (
	indexFunction = "DEPT_FUNCTION"
	indexPName    = "DEPT_PNAME"
)

// scanCold is the workload larger than the program's own cache: eight
// times the pool or more, read by a fixed cycle of seven unprepared
// statements. One operation is one statement of the cycle; a client
// only stops between cycles.
type scanCold struct{}

func (scanCold) name() string              { return "scan_cold" }
func (scanCold) cycle() int                { return 7 }
func (scanCold) openRate(sizes) float64    { return 0 }
func (scanCold) traceOps(sz sizes) int     { return 7 * sz.ScanTraceCycles }
func (scanCold) fixedOps(sizes) (int, int) { return 0, 0 }
func (scanCold) probeSQL() string          { return scanStatements(0)[6] }
func (scanCold) probeText() (string, string) {
	return indexPName, "*VLSI*"
}
func (scanCold) probeIndex() (string, func(*env, int) model.Value) {
	return indexFunction, func(*env, int) model.Value { return model.Str("Consultant") }
}

func (scanCold) setup(e *env) error {
	if err := e.open(e.sz.ScanPool, true); err != nil {
		return err
	}
	if err := e.load(readShape(e.sz.ScanDepts, e.seed), false); err != nil {
		return err
	}
	if err := e.db.CreateIndex(indexFunction, table, []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		return err
	}
	if err := e.db.CreateTextIndex(indexPName, table, []string{"PROJECTS", "PNAME"}); err != nil {
		return err
	}
	return e.seal()
}

// scanStatements is the cycle: Examples 2, 4, 5 and 6 of the paper, a
// root-only projection, masked text search under EXISTS, and the
// selective conjunctive nested predicate of Fig 7 on project pno.
func scanStatements(pno int64) []string {
	return []string{
		`SELECT x.DNO, x.MGRNO, PROJECTS = (SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS), x.BUDGET, EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP) FROM x IN DEPARTMENTS`,
		`SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`,
		`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`,
		`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Consultant'`,
		`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: y.PNAME CONTAINS '*VLSI*'`,
		fmt.Sprintf(`SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: (y.PNO = %d AND EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant')`, pno),
	}
}

// scanExpect is the generator-side evaluation of the seven statements
// over the model, written against the paper's semantics rather than
// the engine's code.
func scanExpect(depts []model.Tuple, pno int64) []expect {
	want := make([]expect, 7)
	for _, d := range depts {
		projects := d[aPROJECTS].(*model.Table).Tuples
		want[0].add(d)
		hasPCAT, allConsultants, hasVLSI, hit := false, true, false, false
		for _, eq := range d[aEQUIP].(*model.Table).Tuples {
			hasPCAT = hasPCAT || eq[1].(model.Str) == "PC/AT"
		}
		for _, p := range projects {
			consultant := false
			for _, m := range p[2].(*model.Table).Tuples {
				want[1].add(model.Tuple{d[aDNO], d[aMGRNO], p[0], p[1], m[0], m[1]})
				if m[1].(model.Str) == "Consultant" {
					consultant = true
				} else {
					allConsultants = false
				}
			}
			hasVLSI = hasVLSI || strings.Contains(strings.ToUpper(string(p[1].(model.Str))), "VLSI")
			hit = hit || (int64(p[0].(model.Int)) == pno && consultant)
		}
		root := model.Tuple{d[aDNO], d[aMGRNO], d[aBUDGET]}
		if hasPCAT {
			want[2].add(root)
		}
		if allConsultants {
			want[3].add(root)
		}
		want[4].add(model.Tuple{d[aDNO], d[aBUDGET]})
		if hasVLSI {
			want[5].add(model.Tuple{d[aDNO]})
		}
		if hit {
			want[6].add(model.Tuple{d[aDNO], d[aMGRNO]})
		}
	}
	return want
}

// consultantProject returns the number of a project that has a
// consultant, chosen by the seed, so the last statement selects one
// department.
func consultantProject(e *env, depts []model.Tuple) int64 {
	var pnos []int64
	for _, d := range depts {
		for _, p := range d[aPROJECTS].(*model.Table).Tuples {
			for _, m := range p[2].(*model.Table).Tuples {
				if m[1].(model.Str) == "Consultant" {
					pnos = append(pnos, int64(p[0].(model.Int)))
					break
				}
			}
		}
	}
	if len(pnos) == 0 {
		return 1
	}
	return pnos[e.rng(0).Intn(len(pnos))]
}

type scanClient struct {
	e     *env
	texts []string
	want  []expect
	next  int
}

func (scanCold) newClient(e *env, id int) (client, error) {
	var all []model.Tuple
	for _, s := range e.shards {
		all = append(all, s.depts...)
	}
	pno := consultantProject(e, all)
	return &scanClient{e: e, texts: scanStatements(pno), want: scanExpect(all, pno)}, nil
}

func (c *scanClient) step(tr *tracer) (opClass, bool) {
	i := c.next
	c.next = (c.next + 1) % len(c.texts)
	tr.begin("stmt")
	ok := c.e.queryText(tr, c.texts[i], c.want[i])
	tr.end()
	return classRead, !ok
}
