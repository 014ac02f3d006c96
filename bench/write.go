package main

import (
	"context"
	"errors"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/sql"
)

const (
	sqlInsertMember = `INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = ? AND y.PNO = ? VALUES (?, ?)`
	sqlUpdateBudget = `UPDATE x IN DEPARTMENTS SET BUDGET = ? WHERE x.DNO = ?`
	sqlDeleteMember = `DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE x.DNO = ? AND z.EMPNO = ?`
	sqlDeleteDept   = `DELETE x FROM x IN DEPARTMENTS WHERE x.DNO = ?`
)

// writeDurable is writes beside reads on the same object, buffer and
// index code: every operation is one durable commit against a table
// with a B-tree on DNO and a hierarchical index on
// PROJECTS.MEMBERS.FUNCTION. Each writer owns a disjoint set of
// departments, so there are no conflicts by construction. Whole
// objects are deleted as often as they are inserted: every DML
// statement scans the table, so a table that only grew would make each
// operation's cost depend on how far the run had got.
type writeDurable struct{}

func (writeDurable) name() string                 { return "write_durable" }
func (writeDurable) cycle() int                   { return 1 }
func (writeDurable) openRate(sizes) float64       { return 0 }
func (writeDurable) traceOps(sz sizes) int        { return sz.WriteTraceOps }
func (writeDurable) fixedOps(sz sizes) (int, int) { return sz.WriteFixedOps, sz.ReopenTail }
func (writeDurable) probeSQL() string             { return sqlNested }
func (writeDurable) probeText() (string, string)  { return "", "" }
func (writeDurable) probeIndex() (string, func(*env, int) model.Value) {
	return indexDNO, func(e *env, i int) model.Value { return model.Int(firstDNO + i%e.sz.WriteDepts) }
}

func (writeDurable) setup(e *env) error {
	if err := e.open(e.sz.WritePool, true); err != nil {
		return err
	}
	if err := e.load(smallShape(e.sz.WriteDepts, e.seed), false); err != nil {
		return err
	}
	if err := e.db.CreateIndex(indexDNO, table, []string{"DNO"}, "HIERARCHICAL"); err != nil {
		return err
	}
	if err := e.db.CreateIndex(indexFunction, table, []string{"PROJECTS", "MEMBERS", "FUNCTION"}, "HIERARCHICAL"); err != nil {
		return err
	}
	return e.seal()
}

// The operation kinds of write_durable and their shares in percent.
const (
	opInsertDept = iota
	opDeleteDept
	opInsertMember
	opUpdateBudget
	opDeleteMember
	opTransaction
)

var writeMix = []int{opInsertDept: 20, opDeleteDept: 20, opInsertMember: 30, opUpdateBudget: 15, opDeleteMember: 5, opTransaction: 10}

type writeClient struct {
	e    *env
	id   int
	rng  *rand.Rand
	mix  *deck
	mine *shard
	seq  int64 // numbers handed out for new departments and members

	insMember, updBudget, delMember, delDept *engine.PreparedStmt
}

func (writeDurable) newClient(e *env, id int) (client, error) {
	c := &writeClient{e: e, id: id, rng: e.rng(id), mine: e.shards[id]}
	c.mix = newDeck(c.rng, writeMix)
	var err error
	if c.insMember, err = e.db.Prepare(sqlInsertMember); err != nil {
		return nil, err
	}
	if c.updBudget, err = e.db.Prepare(sqlUpdateBudget); err != nil {
		return nil, err
	}
	if c.delMember, err = e.db.Prepare(sqlDeleteMember); err != nil {
		return nil, err
	}
	if c.delDept, err = e.db.Prepare(sqlDeleteDept); err != nil {
		return nil, err
	}
	return c, nil
}

// fresh returns a number no other client and no generated row uses.
func (c *writeClient) fresh() int64 {
	c.seq++
	return 1_000_000*int64(c.id+1) + c.seq
}

func (c *writeClient) pick() model.Tuple { return c.mine.depts[c.rng.Intn(len(c.mine.depts))] }

// pickProject returns a random project of a random own department.
func (c *writeClient) pickProject() (dept, proj model.Tuple) {
	dept = c.pick()
	projects := dept[aPROJECTS].(*model.Table).Tuples
	return dept, projects[c.rng.Intn(len(projects))]
}

func (c *writeClient) step(tr *tracer) (opClass, bool) {
	ok := false
	tr.begin("stmt")
	switch c.mix.draw() {
	case opInsertDept:
		ok = c.insertDepartment(tr)
	case opDeleteDept:
		ok = c.deleteDepartment(tr)
	case opInsertMember:
		ok = c.insertMember(tr)
	case opUpdateBudget:
		ok = c.updateBudget(tr, nil)
	case opDeleteMember:
		ok = c.deleteMember(tr)
	case opTransaction:
		ok = c.transaction(tr)
	}
	tr.end()
	return classWrite, !ok
}

// exec runs one prepared DML statement, auto-commit or inside tx, and
// checks the affected count. Auto-commit returns once the commit
// record is durable, so the span covers execute and commit wait.
func (c *writeClient) exec(tr *tracer, tx *engine.Txn, ps *engine.PreparedStmt, args ...model.Value) bool {
	tr.begin("execute")
	var res engine.Result
	var err error
	if tx != nil {
		res, err = tx.ExecPrepared(context.Background(), ps, args...)
	} else {
		res, err = ps.Exec(args...)
	}
	tr.end()
	if errors.Is(err, engine.ErrWriteConflict) {
		c.e.conflicts.Add(1)
	}
	return err == nil && res.Count == 1
}

// insertDepartment inserts a whole complex object from ad-hoc text.
func (c *writeClient) insertDepartment(tr *tracer) bool {
	d := newDepartment(c.rng, c.fresh())
	var b strings.Builder
	b.WriteString("INSERT INTO DEPARTMENTS VALUES ")
	literal(&b, d)
	tr.begin("parse")
	st, err := sql.ParseOneStmt(b.String())
	tr.end()
	if err != nil {
		return false
	}
	tr.begin("execute")
	res, err := c.e.db.ExecStmtContext(context.Background(), st)
	tr.end()
	if err != nil || res.Count != 1 {
		return false
	}
	c.mine.depts = append(c.mine.depts, d)
	c.mine.inserted += tupleBytes(c.e.tt, d)
	return true
}

// deleteDepartment removes one of the client's whole objects; a client
// left with few departments inserts instead, so rows stay well above
// clients.
func (c *writeClient) deleteDepartment(tr *tracer) bool {
	if len(c.mine.depts) < 8 {
		return c.insertDepartment(tr)
	}
	i := c.rng.Intn(len(c.mine.depts))
	if !c.exec(tr, nil, c.delDept, c.mine.depts[i][aDNO]) {
		return false
	}
	last := len(c.mine.depts) - 1
	c.mine.depts[i] = c.mine.depts[last]
	c.mine.depts = c.mine.depts[:last]
	return true
}

func (c *writeClient) insertMember(tr *tracer) bool {
	dept, proj := c.pickProject()
	member := model.Tuple{model.Int(c.fresh() * 100), model.Str(genFunctions[c.rng.Intn(len(genFunctions))])}
	if !c.exec(tr, nil, c.insMember, dept[aDNO], proj[0], member[0], member[1]) {
		return false
	}
	proj[2].(*model.Table).Append(member)
	c.mine.inserted += tupleBytes(c.e.tt.Attrs[aPROJECTS].Type.Table.Attrs[2].Type.Table, member)
	return true
}

func (c *writeClient) updateBudget(tr *tracer, tx *engine.Txn) bool {
	dept := c.pick()
	budget := model.Int(int64(100000 + c.rng.Intn(900000)))
	if !c.exec(tr, tx, c.updBudget, budget, dept[aDNO]) {
		return false
	}
	dept[aBUDGET] = budget
	c.mine.updated += budgetBytes
	return true
}

// deleteMember removes one member that the oracle knows exists; when
// the chosen project has a single member left it grows instead, so no
// operation is built to fail.
func (c *writeClient) deleteMember(tr *tracer) bool {
	dept, proj := c.pickProject()
	members := proj[2].(*model.Table)
	if len(members.Tuples) < 2 {
		return c.insertMember(tr)
	}
	i := c.rng.Intn(len(members.Tuples))
	if !c.exec(tr, nil, c.delMember, dept[aDNO], members.Tuples[i][0]) {
		return false
	}
	members.Tuples = append(members.Tuples[:i], members.Tuples[i+1:]...)
	return true
}

// transaction is two budget updates under one Begin/Commit. The
// statements update the oracle as they succeed; both touch only this
// client's departments and any failure fails the operation, so an
// aborted transaction leaves a mismatch that the final compare counts
// too.
func (c *writeClient) transaction(tr *tracer) bool {
	tr.begin("begin")
	tx, err := c.e.db.Begin()
	tr.end()
	if err != nil {
		return false
	}
	if !c.updateBudget(tr, tx) || !c.updateBudget(tr, tx) {
		_ = tx.Rollback() // already failed; the rollback error adds nothing
		return false
	}
	tr.begin("commit")
	err = tx.Commit()
	tr.end()
	return err == nil
}
