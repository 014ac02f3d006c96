package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/segment"
	"repro/internal/sql"
	"repro/internal/wal"
)

// gatedWAL is a togglableWAL whose next Sync, once armed, reports that
// it started and waits to be released: a transaction commit parks after
// its apply, its write locks still held and lastWrite not yet stamped.
type gatedWAL struct {
	togglableWAL
	mu               sync.Mutex
	entered, release chan struct{}
}

func (f *gatedWAL) arm() (entered, release chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entered, f.release = make(chan struct{}), make(chan struct{})
	return f.entered, f.release
}

func (f *gatedWAL) Sync() error {
	f.mu.Lock()
	entered, release := f.entered, f.release
	f.entered, f.release = nil, nil
	f.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	return f.togglableWAL.Sync()
}

// parkingClock is a logical clock whose next reading, once armed,
// reports that it started and waits to be released: a versioned write
// parks inside its writer's snapMu window.
type parkingClock struct {
	mu               sync.Mutex
	ts               int64
	entered, release chan struct{}
}

func (c *parkingClock) arm() (entered, release chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entered, c.release = make(chan struct{}), make(chan struct{})
	return c.entered, c.release
}

func (c *parkingClock) now() int64 {
	c.mu.Lock()
	entered, release := c.entered, c.release
	c.entered, c.release = nil, nil
	c.ts++
	ts := c.ts
	c.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	return ts
}

// TestCommitWaitsForWriter: DB.Commit takes the write lock, so it waits
// for a statement parked inside its window instead of committing
// between its writes.
func TestCommitWaitsForWriter(t *testing.T) {
	clock := &parkingClock{}
	db, err := Open(Options{Clock: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE T (K INT)`)
	entered, release := clock.arm()
	wrote := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO T VALUES (1)`)
		wrote <- err
	}()
	<-entered
	committed := make(chan error, 1)
	go func() { committed <- db.Commit() }()
	select {
	case err := <-committed:
		close(release)
		t.Fatalf("Commit returned (%v) while a writer was parked in its window", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
}

// openWALMem opens a WAL-backed in-memory database with a logical
// clock: a failed auto-commit statement rolls back exactly, whatever
// order its targets were visited in.
func openWALMem(t *testing.T, log wal.File) *DB {
	return openWALMemClock(t, log, new(parkingClock).now)
}

func openWALMemClock(t *testing.T, log wal.File, clock func() int64) *DB {
	t.Helper()
	db, err := Open(Options{
		Clock:          clock,
		OpenStore:      func(segment.ID) (segment.Store, error) { return segment.NewMemStore(), nil },
		OpenWALStorage: func() (wal.Storage, error) { return oneLog{log}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// withIndexes appends the DDL of the indexes the indexed side creates
// and the full-scan reference does not.
func (s *equivSide) withIndexes(ddl, indexes string) string {
	if s.scan {
		return ddl
	}
	return ddl + "; " + indexes
}

// equivStmts are the statements the plan-equivalence matrix draws from:
// UPDATE and DELETE of objects and of members, INSERT of objects and
// INTO a subtable, a change of the indexed key, a nested-index predicate,
// and the two queries that must find the same objects the DML does.
var equivStmts = []struct {
	sql  string
	args func(r *rand.Rand) []model.Value
}{
	{`INSERT INTO T VALUES (?, ?, {}, ?)`, func(r *rand.Rand) []model.Value { return vals(eqK(r), eqName(r), eqW(r)) }},
	{`INSERT INTO x.KIDS FROM x IN T WHERE x.K = ? VALUES (?, ?)`, func(r *rand.Rand) []model.Value { return vals(eqK(r), eqN(r), eqTag(r)) }},
	{`UPDATE x IN T SET W = ? WHERE x.K = ?`, func(r *rand.Rand) []model.Value { return vals(eqW(r), eqK(r)) }},
	{`UPDATE x IN T SET K = ? WHERE x.K = ? AND x.NAME = ?`, func(r *rand.Rand) []model.Value { return vals(eqK(r), eqK(r), eqName(r)) }},
	{`UPDATE y FROM x IN T, y IN x.KIDS SET TAG = ? WHERE x.K = ? AND y.N = ?`, func(r *rand.Rand) []model.Value { return vals(eqTag(r), eqK(r), eqN(r)) }},
	{`UPDATE x IN T SET W = x.W + 1 WHERE EXISTS y IN x.KIDS: y.N = ?`, func(r *rand.Rand) []model.Value { return vals(eqN(r)) }},
	{`DELETE y FROM x IN T, y IN x.KIDS WHERE x.K = ? AND y.N = ?`, func(r *rand.Rand) []model.Value { return vals(eqK(r), eqN(r)) }},
	{`DELETE x FROM x IN T WHERE x.K = ? AND x.NAME = ?`, func(r *rand.Rand) []model.Value { return vals(eqK(r), eqName(r)) }},
	{`SELECT x.K, x.NAME, x.W FROM x IN T WHERE x.K = ?`, func(r *rand.Rand) []model.Value { return vals(eqK(r)) }},
	{`SELECT x.K, x.W FROM x IN T WHERE EXISTS y IN x.KIDS: y.N = ?`, func(r *rand.Rand) []model.Value { return vals(eqN(r)) }},
}

// equivWeights skews the draw toward inserts so the table stays
// populated.
var equivWeights = []int{4, 4, 2, 2, 2, 1, 1, 1, 2, 1}

func vals(v ...model.Value) []model.Value { return v }
func eqK(r *rand.Rand) model.Value {
	if r.Intn(10) == 0 {
		return model.Int(99) // never stored
	}
	return model.Int(r.Intn(6))
}
func eqN(r *rand.Rand) model.Value { return model.Int(r.Intn(5)) }
func eqW(r *rand.Rand) model.Value { return model.Int(r.Intn(1000)) }
func eqName(r *rand.Rand) model.Value {
	return model.Str([]string{"alpha", "beta", "gamma"}[r.Intn(3)])
}
func eqTag(r *rand.Rand) model.Value { return model.Str([]string{"red", "green", "blue"}[r.Intn(3)]) }

// inlineSQL renders a statement with its arguments as literals.
func inlineSQL(q string, args []model.Value) string {
	var b strings.Builder
	for _, c := range q {
		if c != '?' {
			b.WriteRune(c)
			continue
		}
		switch v := args[0].(type) {
		case model.Str:
			fmt.Fprintf(&b, "'%s'", string(v))
		default:
			fmt.Fprint(&b, v)
		}
		args = args[1:]
	}
	return b.String()
}

// equivSide is one database of the pair with its prepared statements
// and the long-lived "old" transaction the matrix opens at times.
type equivSide struct {
	t    *testing.T
	db   *DB
	scan bool
	ps   []*PreparedStmt
	old  *Txn
}

// outcome is what the two sides must agree on for one statement.
type outcome struct {
	count    int
	rows     string
	conflict bool
	err      string
}

func newOutcome(res Result, err error) outcome {
	o := outcome{count: res.Count, rows: fmt.Sprint(sortedRows(res.Table))}
	if err != nil {
		o.conflict = errors.Is(err, ErrWriteConflict)
		if !o.conflict {
			o.err = err.Error()
		}
	}
	return o
}

// mode makes the full-scan reference read full objects (it never creates
// an index, so every plan it runs scans). A heal (reloadRuntime) replaces
// db.exec, so callers re-apply it before every statement and every Begin.
func (s *equivSide) mode() {
	if s.scan {
		s.db.exec.FullPaths = true
	}
}

func (s *equivSide) begin() *Txn {
	s.mode()
	tx, err := s.db.Begin()
	if err != nil {
		s.t.Fatal(err)
	}
	return tx
}

// run executes statement i in scope — tx, else the session (auto-commit
// or its open transaction) — prepared or with the arguments inlined.
func (s *equivSide) run(sess *Session, tx *Txn, i int, args []model.Value, inline bool) outcome {
	s.mode()
	ctx := context.Background()
	var res Result
	var err error
	switch {
	case inline:
		st, perr := sql.ParseOneStmt(inlineSQL(equivStmts[i].sql, args))
		if perr != nil {
			s.t.Fatal(perr)
		}
		if tx != nil {
			res, err = tx.ExecStmtContext(ctx, st)
		} else {
			res, err = sess.Exec(ctx, st)
		}
	case tx != nil:
		res, err = tx.ExecPrepared(ctx, s.ps[i], args...)
	default:
		res, err = sess.ExecPrepared(ctx, s.ps[i], args...)
	}
	return newOutcome(res, err)
}

func (s *equivSide) state(tx *Txn) *model.Table {
	s.mode()
	q := `SELECT * FROM x IN T`
	var tbl *model.Table
	var err error
	if tx != nil {
		tbl, _, err = tx.Query(q)
	} else {
		tbl, _, err = s.db.Query(q)
	}
	if err != nil {
		s.t.Fatal(err)
	}
	return tbl
}

// TestDMLPlanEquivalence is the plan-equivalence matrix: indexed DML —
// candidates from the live indexes, pruned path sets — gives the same
// affected counts, conflicts, query rows and final state as full-scan
// DML (a database that never creates the indexes, reading full
// objects), over UPDATE / DELETE of objects and members and INSERT INTO
// a subtable, in auto-commit, Txn and Session BEGIN…COMMIT /
// BEGIN…ROLLBACK scope, on VERSIONED and unversioned tables, with
// indexes degraded, dropped and rebuilt between prepare and execute (on
// the indexed side), and with a transaction whose snapshot predates
// committed changes of the indexed key running statements against them.
func TestDMLPlanEquivalence(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("versioned=%v/seed=%d", versioned, seed), func(t *testing.T) {
				runDMLEquivalence(t, versioned, seed)
			})
		}
	}
}

func runDMLEquivalence(t *testing.T, versioned bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ix := &equivSide{t: t, db: openWALMem(t, &togglableWAL{})}
	scan := &equivSide{t: t, db: openWALMem(t, &togglableWAL{}), scan: true}
	sides := []*equivSide{ix, scan}
	schema := `CREATE TABLE T (K INT, NAME STRING, KIDS TABLE OF (N INT, TAG STRING), W INT)`
	if versioned {
		schema += ` VERSIONED`
	}
	for _, s := range sides {
		mustExec(t, s.db, s.withIndexes(schema, `CREATE INDEX T_K ON T (K); CREATE INDEX T_KID_N ON T (KIDS.N)`))
		for _, e := range equivStmts {
			ps, err := s.db.Prepare(e.sql)
			if err != nil {
				t.Fatal(err)
			}
			s.ps = append(s.ps, ps)
		}
	}
	draw := func() int {
		n := rng.Intn(20)
		for i, w := range equivWeights {
			if n -= w; n < 0 {
				return i
			}
		}
		return 0
	}
	compare := func(step int, what string, os []outcome) {
		t.Helper()
		if os[0] != os[1] {
			t.Fatalf("seed %d step %d %s:\nindexed   %+v\nfull scan %+v", seed, step, what, os[0], os[1])
		}
	}
	const (
		scopeAuto = iota
		scopeTxn
		scopeCommit
		scopeRollback
	)
	for step := 0; step < 120; step++ {
		switch n := rng.Intn(20); {
		case n == 0 && ix.old == nil:
			// An old snapshot: later rounds change what it reads.
			for _, s := range sides {
				s.old = s.begin()
			}
		case n == 1 && ix.old != nil:
			// Statements of the old transaction, against whatever was
			// committed since it began.
			i := draw()
			args, inline := equivStmts[i].args(rng), rng.Intn(2) == 0
			compare(step, "old txn "+inlineSQL(equivStmts[i].sql, args), []outcome{
				ix.run(nil, ix.old, i, args, inline), scan.run(nil, scan.old, i, args, inline)})
			if !model.TableEqual(ix.state(ix.old), scan.state(scan.old)) {
				t.Fatalf("seed %d step %d: old transaction views differ", seed, step)
			}
		case n == 2 && ix.old != nil:
			commit := rng.Intn(2) == 0
			var errs []string
			for _, s := range sides {
				var err error
				if commit {
					err = s.old.Commit()
				} else {
					err = s.old.Rollback()
				}
				errs = append(errs, fmt.Sprint(err))
				s.old = nil
			}
			if errs[0] != errs[1] {
				t.Fatalf("seed %d step %d: old transaction end: %v", seed, step, errs)
			}
		case n == 3:
			// An index goes away between prepare and execute, and comes
			// back: the bound plans widen to scans, then re-bind.
			name := []string{"T_K", "T_KID_N"}[rng.Intn(2)]
			switch rng.Intn(3) {
			case 0:
				ix.db.DegradeIndex(name, errors.New("test: degraded"))
			case 1:
				if err := ix.db.RebuildIndex(name); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := ix.db.Exec(`DROP INDEX ` + name); err == nil {
					path := map[string]string{"T_K": "K", "T_KID_N": "KIDS.N"}[name]
					mustExec(t, ix.db, fmt.Sprintf(`CREATE INDEX %s ON T (%s)`, name, path))
				}
			}
		default:
			scope := rng.Intn(4)
			k := 1 + rng.Intn(3)
			stmts := make([]int, k)
			argv := make([][]model.Value, k)
			inline := make([]bool, k)
			for j := range stmts {
				stmts[j], inline[j] = draw(), rng.Intn(3) == 0
				argv[j] = equivStmts[stmts[j]].args(rng)
			}
			got := make([][]outcome, 2)
			for si, s := range sides {
				sess := s.db.NewSession()
				var tx *Txn
				switch scope {
				case scopeTxn:
					tx = s.begin()
				case scopeCommit, scopeRollback:
					s.mode()
					if _, err := sess.Exec(context.Background(), parseOne(t, `BEGIN`)); err != nil {
						t.Fatal(err)
					}
				}
				for j := range stmts {
					got[si] = append(got[si], s.run(sess, tx, stmts[j], argv[j], inline[j]))
				}
				var end error
				switch scope {
				case scopeTxn:
					end = tx.Commit()
				case scopeCommit:
					_, end = sess.Exec(context.Background(), parseOne(t, `COMMIT`))
				case scopeRollback:
					_, end = sess.Exec(context.Background(), parseOne(t, `ROLLBACK`))
				}
				got[si] = append(got[si], newOutcome(Result{}, end))
			}
			for j := range got[0] {
				what := "end of scope"
				if j < k {
					what = inlineSQL(equivStmts[stmts[j]].sql, argv[j])
				}
				compare(step, fmt.Sprintf("scope %d: %s", scope, what), []outcome{got[0][j], got[1][j]})
			}
		}
		if a, b := ix.state(nil), scan.state(nil); !model.TableEqual(a, b) {
			t.Fatalf("seed %d step %d: final states diverge:\n%v\n%v", seed, step, a, b)
		}
	}
	for _, s := range sides {
		if s.old != nil {
			s.old.Rollback()
		}
		if n := s.db.Pool().PinnedCount(); n != 0 {
			t.Fatalf("%d pages left pinned", n)
		}
	}
}

// TestDMLOldSnapshotFindsObject pins the soundness rule for pinned
// snapshots: index entries are removed when a key changes, so a
// transaction whose snapshot predates the change must find the object,
// by index at its snapshot or by the scan the raised watermark of the
// index sends it to — whether the change was committed by
// an auto-commit statement, committed by a transaction, or is still
// committing (applied, write locks held, lastWrite not yet stamped), or
// was made by an auto-commit statement that then failed and is not yet
// rolled back — while an object inserted after the snapshot with the
// same key stays invisible. Each case runs on an NF² and on a flat
// VERSIONED table, indexed and full-scan, and the two must agree.
func TestDMLOldSnapshotFindsObject(t *testing.T) {
	for kind, schema := range map[string]string{
		"nf2":  `CREATE TABLE T (K INT, W INT, KIDS TABLE OF (N INT)) VERSIONED`,
		"flat": `CREATE TABLE T (K INT, W INT) VERSIONED`,
	} {
		for _, change := range []string{"auto-commit", "txn committed", "txn committing", "auto-commit delete", "auto-commit failed"} {
			t.Run(kind+"/"+change, func(t *testing.T) {
				scenario := oldSnapshotScenario
				if change == "auto-commit failed" {
					scenario = failedWriterScenario
				}
				var seen [2]string
				for i, scan := range []bool{false, true} {
					seen[i] = scenario(t, schema, change, scan)
				}
				if seen[0] != seen[1] {
					t.Fatalf("indexed and full-scan differ:\nindexed   %s\nfull scan %s", seen[0], seen[1])
				}
			})
		}
	}
}

// oldSnapshotScenario runs one case and returns what the old
// transaction observed; it fails unless the object was found.
func oldSnapshotScenario(t *testing.T, schema, change string, scan bool) string {
	log := &gatedWAL{}
	db := openWALMem(t, log)
	side := &equivSide{t: t, db: db, scan: scan}
	side.mode()
	cols := `(1, 10), (2, 20)`
	if strings.Contains(schema, "KIDS") {
		cols = `(1, 10, {(7)}), (2, 20, {})`
	}
	mustExec(t, db, side.withIndexes(schema, `CREATE INDEX T_K ON T (K)`)+`; INSERT INTO T VALUES `+cols)
	old := side.begin()
	defer old.Rollback()
	// A newer object with the old key: the index finds it, the snapshot
	// must not. (Inserted first: a parked commit would hold up its sync.)
	side.mode()
	ins := `INSERT INTO T VALUES (1, 30)`
	if strings.Contains(schema, "KIDS") {
		ins = `INSERT INTO T VALUES (1, 30, {})`
	}
	mustExec(t, db, ins)

	var committed chan error
	var release chan struct{}
	side.mode()
	switch change {
	case "auto-commit":
		mustExec(t, db, `UPDATE x IN T SET K = 100 WHERE x.K = 1 AND x.W = 10`)
	case "auto-commit delete":
		mustExec(t, db, `DELETE x FROM x IN T WHERE x.K = 1 AND x.W = 10`)
	case "txn committed", "txn committing":
		tx := side.begin()
		if _, err := tx.Exec(`UPDATE x IN T SET K = 100 WHERE x.K = 1 AND x.W = 10`); err != nil {
			t.Fatal(err)
		}
		if change == "txn committed" {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			break
		}
		var entered chan struct{}
		entered, release = log.arm()
		committed = make(chan error, 1)
		go func() { committed <- tx.Commit() }()
		<-entered
	}

	side.mode()
	sel, err := db.Prepare(`SELECT x.K, x.W FROM x IN T WHERE x.K = ?`)
	if err != nil {
		t.Fatal(err)
	}
	var obs []string
	rows, err := old.ExecPrepared(context.Background(), sel, model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	obs = append(obs, fmt.Sprint(sortedRows(rows.Table)))
	inline, _, err := old.Query(`SELECT x.K, x.W FROM x IN T WHERE x.K = 1`)
	if err != nil {
		t.Fatal(err)
	}
	obs = append(obs, fmt.Sprint(sortedRows(inline)))
	for _, o := range obs {
		if o != "[(1, 10)]" {
			t.Errorf("old snapshot read %s, want [(1, 10)] (found at the snapshot, the newer object skipped)", o)
		}
	}
	_, uerr := old.Exec(`UPDATE x IN T SET W = 11 WHERE x.K = 1`)
	if !errors.Is(uerr, ErrWriteConflict) {
		t.Errorf("old snapshot's UPDATE of the changed object: %v, want ErrWriteConflict (found, then refused)", uerr)
	}
	obs = append(obs, fmt.Sprint(errors.Is(uerr, ErrWriteConflict)))
	if committed != nil {
		close(release)
		if err := <-committed; err != nil {
			t.Fatal(err)
		}
	}
	return strings.Join(obs, " ")
}

// failedWriterScenario is the failed-writer case: an auto-commit UPDATE
// changes K on (1, 10), then fails with ErrWriteConflict on (2, 20),
// which another transaction has write-locked. Its writes stay in the
// pages and the index until its rollback, which waits for the heal
// barrier; a statement of the old transaction already holding that
// barrier reads in between and must still find (1, 10).
// The writer parks at its first version write, inside its snapMu window,
// until the read holds the barrier (or, scanning, has finished).
func failedWriterScenario(t *testing.T, schema, _ string, scan bool) string {
	clock := &parkingClock{}
	db := openWALMemClock(t, &togglableWAL{}, clock.now)
	side := &equivSide{t: t, db: db, scan: scan}
	side.mode()
	cols, ins := `(1, 10), (2, 20)`, `INSERT INTO T VALUES (1, 30)`
	if strings.Contains(schema, "KIDS") {
		cols, ins = `(1, 10, {(7)}), (2, 20, {})`, `INSERT INTO T VALUES (1, 30, {})`
	}
	mustExec(t, db, side.withIndexes(schema, `CREATE INDEX T_K ON T (K)`)+`; INSERT INTO T VALUES `+cols)
	old := side.begin()
	defer old.Rollback()
	side.mode()
	mustExec(t, db, ins)
	locker := side.begin()
	defer locker.Rollback()
	if _, err := locker.Exec(`UPDATE x IN T SET W = 21 WHERE x.W = 20`); err != nil {
		t.Fatal(err)
	}
	side.mode()
	sel, err := db.Prepare(`SELECT x.K, x.W FROM x IN T WHERE x.K = ?`)
	if err != nil {
		t.Fatal(err)
	}

	entered, release := clock.arm()
	failed := make(chan error, 1)
	go func() {
		_, err := db.Exec(`UPDATE x IN T SET K = 100 WHERE x.W < 25`)
		failed <- err
	}()
	select {
	case <-entered:
	case err := <-failed:
		t.Fatalf("the writer ended without a version write: %v", err)
	}
	type read struct {
		rows string
		err  error
	}
	done := make(chan read, 1)
	go func() {
		res, err := old.ExecPrepared(context.Background(), sel, model.Int(1))
		done <- read{fmt.Sprint(sortedRows(res.Table)), err}
	}()
	var got read
	finished := false
	for !finished && db.healMu.TryLock() {
		db.healMu.Unlock()
		select {
		case got = <-done:
			finished = true
		case <-time.After(100 * time.Microsecond):
		}
	}
	close(release)
	if !finished {
		got = <-done
	}
	werr := <-failed
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.rows != "[(1, 10)]" {
		t.Errorf("old snapshot read %s during the failed writer's rollback, want [(1, 10)]", got.rows)
	}
	if !errors.Is(werr, ErrWriteConflict) {
		t.Errorf("auto-commit UPDATE: %v, want ErrWriteConflict on the locked object", werr)
	}
	side.mode()
	after, _, err := db.Query(`SELECT x.K, x.W FROM x IN T`)
	if err != nil {
		t.Fatal(err)
	}
	if s := fmt.Sprint(sortedRows(after)); s != "[(1, 10) (1, 30) (2, 20)]" {
		t.Errorf("state after the failed writer: %s, want it rolled back", s)
	}
	return got.rows + " " + fmt.Sprint(errors.Is(werr, ErrWriteConflict))
}

// TestBeginRaceLostUpdate guards the window between Begin's snapshot
// sample and its registration in activeTxns: an auto-commit writer
// committing there found no transaction to stamp lastWrite for, and the
// transaction's read-modify-write then overwrote the writer's update
// with no ErrWriteConflict. The clock starts the writer from inside
// Begin's sample, so the writer's commit lands as close behind it as
// the locks allow; the final value must count every acknowledged
// increment. The race is rare: this loop catches a regression often,
// it proves nothing (DESIGN.md §6).
func TestBeginRaceLostUpdate(t *testing.T) {
	var armed atomic.Bool
	start := make(chan struct{}, 1)
	var ts atomic.Int64
	db, err := Open(Options{Clock: func() int64 {
		if armed.CompareAndSwap(true, false) {
			start <- struct{}{}
		}
		return ts.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE C (K INT, V INT) VERSIONED; INSERT INTO C VALUES (1, 0)`)
	const inc = `UPDATE x IN C SET V = x.V + 1 WHERE x.K = 1`
	writer, err := db.Prepare(inc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for range start {
			_, err := writer.Exec()
			done <- err
		}
	}()
	defer close(start)
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	want := 0
	counted := func(who string, err error) {
		switch {
		case err == nil:
			want++
		case !errors.Is(err, ErrWriteConflict):
			t.Fatalf("%s: %v", who, err)
		}
	}
	for i := 0; i < iters; i++ {
		armed.Store(true)
		tx, err := db.Begin() // its clock sample starts the writer
		if err != nil {
			t.Fatal(err)
		}
		if _, err = tx.Exec(inc); err == nil {
			err = tx.Commit()
		} else {
			tx.Rollback()
		}
		counted("transaction", err)
		counted("auto-commit writer", <-done)
	}
	tbl, _, err := db.Query(`SELECT x.V FROM x IN C`)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(tbl.Tuples[0][0].(model.Int)); got != want {
		t.Fatalf("V = %d after %d acknowledged increments: %d update(s) lost", got, want, want-got)
	}
}
