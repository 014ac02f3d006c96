package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/wal"
)

// Result is the outcome of one statement.
type Result struct {
	// Table and Type are set for queries.
	Table *model.Table
	Type  *model.TableType
	// Count is the number of affected tuples for DML.
	Count int
	// Message describes DDL outcomes.
	Message string
}

// stmt is one statement on its way through the engine: the parse (with
// its source text and `?` count), the values bound to the placeholders,
// and — for a prepared statement — the PreparedStmt whose plan dispatch
// binds inside the envelope. The scope it runs in is a second value, a
// *Txn (nil = auto-commit). Every entry point (DB, Txn, PreparedStmt,
// Session methods) builds the pair and hands it to DB.run.
type stmt struct {
	sql.Stmt
	args []model.Value
	ps   *PreparedStmt
}

// stmtClass decides what a statement locks (DESIGN.md §5.1, §6).
type stmtClass uint8

const (
	classRead       stmtClass = iota // SELECT, EXPLAIN, SHOW TABLES, DESCRIBE
	classDML                         // INSERT, UPDATE, DELETE
	classDDL                         // everything that rewrites the runtime
	classTxnControl                  // BEGIN, COMMIT, ROLLBACK (a Session's business)
)

func classify(st sql.Statement) stmtClass {
	switch st.(type) {
	case *sql.Select, *sql.Explain, *sql.ShowTables, *sql.Describe:
		return classRead
	case *sql.Insert, *sql.Update, *sql.Delete:
		return classDML
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		return classTxnControl
	}
	return classDDL
}

// resultForm is what the caller wants back from run.
type resultForm uint8

const (
	formAny   resultForm = iota // whatever the statement yields, materialized
	formTable                   // must be a SELECT; materialized
	formRows                    // must be a SELECT; an open streaming *Rows
)

// run is the engine's one statement path: it classifies the statement,
// takes the locks its class needs in scope tx, runs it inside the one
// containment envelope (poison check, start counters, panic recovery,
// rollback or heal on failure, statement statistics) and returns the
// result in the requested form.
//
//   - read-only, and everything inside a transaction: the shared heal
//     barrier only, so any number run concurrently, even while a
//     transaction commits. A transaction's DML buffers its writes; a
//     failure discards only that statement's buffered effects.
//   - auto-commit DML: applyMu, then snapMu across statement plus
//     commit-record append, so a snapshot never lands inside the write
//     window. The record is synced after the locks drop, so overlapping
//     committers share one fsync; it carries a timestamp sampled under
//     snapMu (every version the statement wrote is strictly older), which
//     a replica publishes as its visibility horizon.
//   - auto-commit DDL: applyMu, then the exclusive heal barrier — DDL
//     rewrites the managers, stores and index maps readers traverse
//     without latches, and Begin samples its snapshot under the shared
//     side — and a synchronous commit (too rare to gain from batching).
//
// A failed auto-commit writer rolls back to the last commit; a recovered
// panic on a shared path heals the same way (it may have leaked pins).
// Either way the next statement sees only committed data, no reopen.
func (db *DB) run(ctx context.Context, tx *Txn, s stmt, form resultForm) (res Result, rows *Rows, err error) {
	class := classify(s.Statement)
	_, isSelect := s.Statement.(*sql.Select)
	switch {
	case len(s.args) != s.Params:
		return Result{}, nil, fmt.Errorf("engine: statement wants %d argument(s), got %d (placeholders are bound through Prepare)", s.Params, len(s.args))
	case form != formAny && !isSelect:
		return Result{}, nil, fmt.Errorf("engine: query requires a SELECT, got %T", s.Statement)
	case tx != nil && tx.done:
		return Result{}, nil, ErrTxnDone
	case tx == nil && class != classRead && db.opts.Replica:
		return Result{}, nil, fmt.Errorf("engine: %T: %w", s.Statement, ErrReadOnlyReplica)
	case class == classTxnControl:
		return Result{}, nil, fmt.Errorf("engine: %T takes effect through a Session (Exec scripts, the shell, a server connection) or DB.Begin/Txn.Commit/Txn.Rollback", s.Statement)
	case tx != nil && class == classDDL:
		return Result{}, nil, ErrTxnDDL
	}
	writer := tx == nil && class != classRead
	if writer {
		db.applyMu.Lock()
	} else {
		db.healMu.RLock()
	}
	if err = db.fatal(); err != nil {
		if writer {
			db.applyMu.Unlock()
		} else {
			db.healMu.RUnlock()
		}
		return Result{}, nil, err
	}
	start := db.mark()
	if form == formRows {
		rows = &Rows{db: db, text: s.Text, start: start}
	}
	var ex *exec.Executor
	if tx != nil {
		ex = tx.exec
	} else {
		ex = db.readExec() // a replica never gets here with a writer
	}
	var stats StmtStats
	var end, epoch uint64
	switch {
	case !writer:
		if class == classDML {
			tx.beginStmt()
		}
		res, err = db.dispatch(ctx, ex, s, start, rows)
		if err == nil && rows == nil {
			stats = db.since(start)
		}
		if err != nil && class == classDML {
			tx.undoStmt()
		}
		db.healMu.RUnlock()
		if err != nil {
			err = db.healIfPanic(err)
		}
	case class == classDDL:
		db.healMu.Lock()
		res, err = db.dispatch(ctx, ex, s, start, nil)
		if err == nil {
			if cerr := db.Commit(); cerr != nil {
				err = fmt.Errorf("engine: commit: %w", cerr)
			}
		}
		db.healMu.Unlock()
	default:
		db.stmtWrites = db.stmtWrites[:0]
		db.snapMu.Lock()
		res, err = db.dispatch(ctx, ex, s, start, nil)
		if err == nil {
			end, epoch, err = db.appendCommit(wal.CommitPayload(0, db.opts.Clock()))
			if err != nil {
				err = fmt.Errorf("engine: commit: %w", err)
			}
		}
		db.publishStmtWrites() // a failed statement's too, see there
		db.snapMu.Unlock()
	}
	if writer {
		if err != nil {
			err = db.abortLocked(err)
		} else {
			stats = db.since(start)
		}
		db.applyMu.Unlock()
		if err == nil && class == classDML {
			err = db.awaitDurable(end, epoch, 0)
		}
	}
	if err != nil {
		return Result{}, nil, err
	}
	if rows != nil {
		return Result{}, rows, nil // the statement ends at Rows.Close
	}
	stats.Rows = res.Count
	db.noteStmtStats(stats)
	return res, nil, nil
}

// awaitDurable establishes the durability of the commit record appended
// at end, outside the apply lock (group commit): the writer's effects
// are already visible to readers, but it is acknowledged only once the
// record is on disk. If the record was lost the engine rolls back to
// the last durable commit and the statement (txn == 0) or transaction
// fails.
func (db *DB) awaitDurable(end, epoch, txn uint64) error {
	derr := db.waitCommitDurable(end, epoch)
	if derr == nil {
		return nil
	}
	lost, aerr := db.abandonCommit(end)
	if !lost {
		return nil // an overlapping sync made the record durable after all
	}
	if aerr != nil {
		derr = fmt.Errorf("%v (discarding the record: %v)", derr, aerr)
	}
	what := "commit"
	if txn != 0 {
		what = fmt.Sprintf("transaction %d commit", txn)
	}
	return db.abort(fmt.Errorf("engine: %s: %w", what, derr))
}

// dispatch executes one statement through executor ex, converting a
// panic into a PanicError tagged with the statement text — the bind
// included, so a re-bind after an epoch bump fails the statement like
// any other panic.
func (db *DB) dispatch(ctx context.Context, ex *exec.Executor, s stmt, start statsMark, rows *Rows) (res Result, err error) {
	defer recoverPanic(s.Text, &err)
	return db.execStmt(ctx, ex, s, start, rows)
}

// execStmt is dispatch's body. Every statement runs a bound plan: a
// prepared one from its own last bind or the plan cache, an ad hoc one
// bound here by the scope's executor, off the heap and never cached. A
// SELECT streams into rows when rows is non-nil and is materialized
// otherwise.
func (db *DB) execStmt(ctx context.Context, ex *exec.Executor, s stmt, start statsMark, rows *Rows) (Result, error) {
	var adhoc plan.Prepared
	prep := &adhoc
	var err error
	if s.ps != nil {
		prep, err = s.ps.bindLocked()
	} else {
		adhoc, err = plan.Bind(s.Stmt, ex)
	}
	if err != nil {
		return Result{}, err
	}
	switch st := s.Statement.(type) {
	case *sql.Select:
		cur, err := openSelect(ctx, ex, prep, s.args)
		if err != nil {
			return Result{}, err
		}
		if rows != nil {
			rows.cur, rows.tt = cur, cur.Type()
			return Result{}, nil
		}
		return materialize(cur)
	case *sql.Explain:
		return db.explain(ctx, ex, prep, s.args, start)
	case *sql.Insert:
		n, err := execDML(ctx, ex, prep, s.args)
		return counted(n, "inserted", err)
	case *sql.Delete:
		n, err := execDML(ctx, ex, prep, s.args)
		return counted(n, "deleted", err)
	case *sql.Update:
		n, err := execDML(ctx, ex, prep, s.args)
		return counted(n, "updated", err)
	case *sql.CreateTable, *sql.DropTable, *sql.CreateIndex, *sql.DropIndex, *sql.AlterTableAdd:
		return db.execDDL(st)
	case *sql.ShowTables:
		tt := model.MustTableType(false,
			model.Attr{Name: "NAME", Type: model.AtomicType(model.KindString)},
			model.Attr{Name: "KIND", Type: model.AtomicType(model.KindString)},
			model.Attr{Name: "LAYOUT", Type: model.AtomicType(model.KindString)},
			model.Attr{Name: "VERSIONED", Type: model.AtomicType(model.KindBool)},
		)
		tbl := model.NewRelation()
		for _, t := range db.cat.Tables() {
			kind, layout := "FLAT", ""
			if t.Kind == catalog.Complex {
				kind = "NF2"
				layout = object.Layout(t.Layout).String()
			}
			tbl.Append(model.Tuple{
				model.Str(t.Name), model.Str(kind), model.Str(layout), model.Bool(t.Versioned),
			})
		}
		return Result{Table: tbl, Type: tt, Count: tbl.Len()}, nil
	case *sql.Describe:
		t, ok := db.cat.Table(st.Name)
		if !ok {
			return Result{}, fmt.Errorf("engine: no table %q", st.Name)
		}
		return Result{Message: t.Type.String()}, nil
	}
	return Result{}, fmt.Errorf("engine: unsupported statement %T", s.Statement)
}

// materialize drains a query's cursor into its result table and closes
// it.
func materialize(cur *exec.Cursor) (Result, error) {
	defer cur.Close()
	out := &model.Table{Ordered: cur.Type().Ordered}
	n, err := drain(cur, out)
	if err != nil {
		return Result{}, err
	}
	return Result{Table: out, Type: cur.Type(), Count: n}, nil
}

// execDDL runs a DDL statement's body. The statement path holds applyMu
// and the exclusive heal barrier already, the first two of ddlLock's
// locks; execDDL takes the third, mu, around the …Locked forms of the
// direct entry points.
func (db *DB) execDDL(s sql.Statement) (Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch st := s.(type) {
	case *sql.CreateTable:
		var layout object.Layout
		switch st.Layout {
		case "":
		case "SS1":
			layout = object.SS1
		case "SS2":
			layout = object.SS2
		case "SS3":
			layout = object.SS3
		default:
			return Result{}, fmt.Errorf("engine: unknown layout %q", st.Layout)
		}
		err := db.createTableLocked(st.Name, st.Type, TableOptions{Versioned: st.Versioned, Layout: layout})
		return message(err, "table "+st.Name+" created")
	case *sql.DropTable:
		return message(db.dropTableLocked(st.Name), "table "+st.Name+" dropped")
	case *sql.CreateIndex:
		if st.Text {
			return message(db.addIndex(&catalog.IndexDef{Name: st.Name, Table: st.Table, Path: st.Path, Text: true}), "text index "+st.Name+" created")
		}
		return message(db.createIndexLocked(st.Name, st.Table, st.Path, st.Using), "index "+st.Name+" created")
	case *sql.DropIndex:
		return message(db.dropIndexLocked(st.Name), "index "+st.Name+" dropped")
	case *sql.AlterTableAdd:
		return message(db.alterTableAddLocked(st.Table, st.Path, st.Type), "table "+st.Table+" altered")
	}
	return Result{}, fmt.Errorf("engine: unsupported DDL statement %T", s)
}

// counted is the Result of a DML statement that affected n tuples.
func counted(n int, verb string, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Count: n, Message: strconv.Itoa(n) + " tuple(s) " + verb}, nil
}

// message is the Result of a statement that reports only an outcome
// (DDL, transaction control).
func message(err error, text string) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Message: text}, nil
}

// openSelect opens the cursor every SELECT (and EXPLAIN) reads through:
// it evaluates the plan's access choices against the scope's runtime and
// the bound arguments and runs the plan's block tree — no inference, no
// path derivation, no planner call — over the plan's own AST, the one the
// tree was bound from (a cached plan may stem from a different parse of
// the same normalized SQL).
func openSelect(ctx context.Context, ex *exec.Executor, p *plan.Prepared, args []model.Value) (*exec.Cursor, error) {
	return ex.OpenPrepared(ctx, p.Block, p.Candidates(ex.RT, args), args)
}

// execDML runs an INSERT, UPDATE or DELETE the way openSelect opens a
// query: the plan's block and evaluated access choices over its own AST.
func execDML(ctx context.Context, ex *exec.Executor, p *plan.Prepared, args []model.Value) (int, error) {
	return ex.ExecPreparedDML(ctx, p.Stmt, p.Block, p.Candidates(ex.RT, args), args)
}

// drain pulls cur to its end inside the caller's barrier hold, appending
// the tuples to out when it is non-nil, and returns the row count.
func drain(cur *exec.Cursor, out *model.Table) (int, error) {
	for n := 0; ; n++ {
		tup, ok, err := cur.Next()
		if err != nil || !ok {
			return n, err
		}
		if out != nil {
			out.Append(tup)
		}
	}
}

// explain reports the access path and fetch set per FROM item of a
// query, then actually runs it through the cursor (results discarded)
// and appends the measured physical access counters since the
// statement's start — pages fetched, buffer hits, physical reads,
// subtuples decoded.
func (db *DB) explain(ctx context.Context, ex *exec.Executor, p *plan.Prepared, args []model.Value, start statsMark) (Result, error) {
	cur, err := openSelect(ctx, ex, p, args)
	if err != nil {
		return Result{}, err
	}
	defer cur.Close()
	rows, err := drain(cur, nil)
	if err != nil {
		return Result{}, err
	}
	cur.Close()
	stats := db.since(start)
	stats.Rows = rows
	var b strings.Builder
	for _, line := range cur.AccessPlan(func(i int, cd *exec.Candidates) string {
		return p.Access[i].Why(cd.Used, cd.Changed, args)
	}) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString(stats.String())
	return Result{Message: b.String(), Count: rows}, nil
}

// --- entry points: DB (auto-commit scope) -------------------------------

// Exec parses and runs a script of semicolon-separated statements.
// Outside an explicit transaction each statement auto-commits; a
// BEGIN ... COMMIT/ROLLBACK bracket inside the script runs its
// statements as one snapshot-isolated transaction.
func (db *DB) Exec(script string) ([]Result, error) {
	return db.ExecContext(context.Background(), script)
}

// ExecContext is Exec with cancellation: long scans check the context
// once per tuple binding, so cancellation and deadlines fail the
// current statement promptly (and, for mutating statements, roll it
// back like any other statement failure). A script that ends with a
// transaction still open rolls it back and reports an error.
func (db *DB) ExecContext(ctx context.Context, script string) ([]Result, error) {
	s := db.NewSession()
	results, err := s.ExecScript(ctx, script)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return results, err
}

// execScript parses a script and hands its statements to one in order,
// stopping at the first error.
func execScript(script string, one func(sql.Stmt) (Result, error)) ([]Result, error) {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return nil, err
	}
	var results []Result
	for _, st := range stmts {
		res, err := one(st)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// queryText parses q as one statement and materializes it as a query in
// scope tx.
func (db *DB) queryText(ctx context.Context, tx *Txn, q string) (*model.Table, *model.TableType, error) {
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		return nil, nil, err
	}
	res, _, err := db.run(ctx, tx, stmt{Stmt: st}, formTable)
	return res.Table, res.Type, err
}

// streamText parses q as one statement and opens it as a streaming
// query in scope tx.
func (db *DB) streamText(ctx context.Context, tx *Txn, q string) (*Rows, error) {
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		return nil, err
	}
	_, rows, err := db.run(ctx, tx, stmt{Stmt: st}, formRows)
	return rows, err
}

// Query runs a single SELECT and returns its result table and schema.
// Queries may run concurrently with each other and with writers.
func (db *DB) Query(q string) (*model.Table, *model.TableType, error) {
	return db.queryText(context.Background(), nil, q)
}

// QueryContext is Query with cancellation.
func (db *DB) QueryContext(ctx context.Context, q string) (*model.Table, *model.TableType, error) {
	return db.queryText(ctx, nil, q)
}

// ExecStmtContext runs (and commits) one already-parsed statement —
// the zero-reparse entry point for callers that hold a sql.Stmt.
// BEGIN/COMMIT/ROLLBACK are rejected: the open transaction belongs to
// a Session.
func (db *DB) ExecStmtContext(ctx context.Context, st sql.Stmt) (Result, error) {
	res, _, err := db.run(ctx, nil, stmt{Stmt: st}, formAny)
	return res, err
}

// QueryRows runs one SELECT and returns a streaming cursor over its
// results.
func (db *DB) QueryRows(q string) (*Rows, error) {
	return db.streamText(context.Background(), nil, q)
}

// QueryRowsContext is QueryRows with cancellation: the context is
// checked once per Next call.
func (db *DB) QueryRowsContext(ctx context.Context, q string) (*Rows, error) {
	return db.streamText(ctx, nil, q)
}

// QueryRowsStmt runs one already-parsed SELECT and returns a
// streaming cursor — the zero-reparse form of QueryRows.
func (db *DB) QueryRowsStmt(ctx context.Context, st sql.Stmt) (*Rows, error) {
	_, rows, err := db.run(ctx, nil, stmt{Stmt: st}, formRows)
	return rows, err
}
