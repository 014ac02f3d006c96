package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// The statement-path matrix: every statement kind, through every entry
// form, in every scope, in both result forms, must behave like the
// reference cell (script text, auto-commit, materialized) — same rows,
// counts, messages and typed errors, the right LastStmtStats().Rows
// after each, and the right database state once the scope ends.

// pathKind is one statement kind of the matrix.
type pathKind struct {
	name     string
	text     string        // literal form
	prepText string        // `?` form ("" = same as text)
	args     []model.Value // values for prepText
}

var pathKinds = []pathKind{
	{"select", `SELECT x.A, x.B FROM x IN T WHERE x.A >= 2`, `SELECT x.A, x.B FROM x IN T WHERE x.A >= ?`, []model.Value{model.Int(2)}},
	{"explain", `EXPLAIN SELECT x.B FROM x IN T WHERE x.A = 3`, `EXPLAIN SELECT x.B FROM x IN T WHERE x.A = ?`, []model.Value{model.Int(3)}},
	{"insert", `INSERT INTO T VALUES (4, 'd')`, `INSERT INTO T VALUES (?, ?)`, []model.Value{model.Int(4), model.Str("d")}},
	{"update", `UPDATE x IN T SET B = 'z' WHERE x.A = 2`, `UPDATE x IN T SET B = ? WHERE x.A = ?`, []model.Value{model.Str("z"), model.Int(2)}},
	{"delete", `DELETE x FROM x IN T WHERE x.A = 1`, `DELETE x FROM x IN T WHERE x.A = ?`, []model.Value{model.Int(1)}},
	{"show", `SHOW TABLES`, "", nil},
	{"describe", `DESCRIBE T`, "", nil},
	{"ddl", `CREATE TABLE U (X INT)`, "", nil},
}

const (
	entryText = iota
	entryParsed
	entryPrepared
	numEntries
)

const (
	scopeAuto = iota
	scopeTxn
	scopeSessionCommit
	scopeSessionRollback
	numScopes
)

var (
	entryNames = [numEntries]string{"text", "parsed", "prepared"}
	scopeNames = [numScopes]string{"auto", "txn", "session-commit", "session-rollback"}
)

// pathOutcome is what one cell observed.
type pathOutcome struct {
	rows      []string // result tuples, sorted (order-insensitive equality)
	count     int
	message   string
	err       error
	statsRows int      // LastStmtStats().Rows right after the statement
	final     []string // T's contents after the scope ended, sorted
	hasU      bool     // the DDL statement's table exists afterwards
}

func openPathDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE T (A INT, B STRING); CREATE INDEX TA ON T (A);
		INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	return db
}

func sortedRows(tbl *model.Table) []string {
	if tbl == nil {
		return nil
	}
	out := make([]string, 0, tbl.Len())
	for _, tup := range tbl.Tuples {
		out = append(out, fmt.Sprint(tup))
	}
	sort.Strings(out)
	return out
}

func (o *pathOutcome) fromResult(res Result, err error) {
	o.rows, o.count, o.message, o.err = sortedRows(res.Table), res.Count, res.Message, err
}

func (o *pathOutcome) fromRows(r *Rows, err error) {
	if o.err = err; err != nil {
		return
	}
	out := &model.Table{}
	for r.Next() {
		out.Append(r.Tuple())
	}
	o.err = r.Err()
	r.Close()
	o.rows, o.count = sortedRows(out), out.Len()
}

func parseOne(t testing.TB, text string) sql.Stmt {
	t.Helper()
	st, err := sql.ParseOneStmt(text)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runPathCell runs kind k on a fresh database through one cell of the
// matrix and reports what it saw.
func runPathCell(t *testing.T, k pathKind, entry, scope int, stream bool) pathOutcome {
	t.Helper()
	db := openPathDB(t)
	ctx := context.Background()
	text, args := k.text, []model.Value(nil)
	var ps *PreparedStmt
	if entry == entryPrepared {
		if k.prepText != "" {
			text, args = k.prepText, k.args
		}
		var err error
		if ps, err = db.Prepare(text); err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
	}
	var o pathOutcome
	first := func(res []Result, err error) {
		if len(res) > 0 {
			o.fromResult(res[len(res)-1], err)
		} else {
			o.fromResult(Result{}, err)
		}
	}
	db.noteStmtStats(StmtStats{Rows: -7}) // a stale value no statement produces
	switch scope {
	case scopeAuto:
		switch {
		case entry == entryText && !stream:
			first(db.Exec(text))
		case entry == entryText:
			o.fromRows(db.QueryRows(text))
		case entry == entryParsed && !stream:
			o.fromResult(db.ExecStmtContext(ctx, parseOne(t, text)))
		case entry == entryParsed:
			o.fromRows(db.QueryRowsStmt(ctx, parseOne(t, text)))
		case !stream:
			o.fromResult(ps.Exec(args...))
		default:
			o.fromRows(ps.QueryRows(args...))
		}
		o.statsRows = db.LastStmtStats().Rows
	case scopeTxn:
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case entry == entryText && !stream:
			first(tx.Exec(text))
		case entry == entryText:
			o.fromRows(tx.QueryRows(text))
		case entry == entryParsed && !stream:
			o.fromResult(tx.ExecStmtContext(ctx, parseOne(t, text)))
		case entry == entryParsed:
			o.fromRows(tx.QueryRowsStmt(ctx, parseOne(t, text)))
		case !stream:
			o.fromResult(tx.ExecPrepared(ctx, ps, args...))
		default:
			o.fromRows(tx.QueryRowsPrepared(ctx, ps, args...))
		}
		o.statsRows = db.LastStmtStats().Rows
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	default:
		s := db.NewSession()
		if _, err := s.ExecScript(ctx, `BEGIN`); err != nil || !s.InTxn() {
			t.Fatalf("BEGIN: %v (in txn %v)", err, s.InTxn())
		}
		db.noteStmtStats(StmtStats{Rows: -7})
		switch {
		case entry == entryText && !stream:
			first(s.ExecScript(ctx, text))
		case entry == entryPrepared && !stream:
			o.fromResult(s.ExecPrepared(ctx, ps, args...))
		case entry == entryPrepared:
			o.fromRows(s.QueryRowsPrepared(ctx, ps, args...))
		case !stream:
			o.fromResult(s.Exec(ctx, parseOne(t, text)))
		default: // a session streams text the way the wire server does: parse, then open
			o.fromRows(s.QueryRows(ctx, parseOne(t, text)))
		}
		o.statsRows = db.LastStmtStats().Rows
		end, want := `COMMIT`, "transaction committed"
		if scope == scopeSessionRollback {
			end, want = `ROLLBACK`, "transaction rolled back"
		}
		res, err := s.ExecScript(ctx, end)
		if err != nil || len(res) != 1 || res[0].Message != want || s.InTxn() {
			t.Fatalf("%s: %v %v (in txn %v)", end, res, err, s.InTxn())
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after %s: %v", end, err)
		}
	}
	tbl, _, err := db.Query(`SELECT x.A, x.B FROM x IN T`)
	if err != nil {
		t.Fatal(err)
	}
	o.final = sortedRows(tbl)
	_, o.hasU = db.Catalog().Table("U")
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Errorf("%d pages left pinned", n)
	}
	return o
}

func TestStmtPathMatrix(t *testing.T) {
	initial := []string{`(1, "a")`, `(2, "b")`, `(3, "c")`}
	for _, k := range pathKinds {
		ref := runPathCell(t, k, entryText, scopeAuto, false)
		if ref.err != nil {
			t.Fatalf("%s: reference cell failed: %v", k.name, ref.err)
		}
		_, isSelect := parseOne(t, k.text).Statement.(*sql.Select)
		for entry := 0; entry < numEntries; entry++ {
			for scope := 0; scope < numScopes; scope++ {
				for _, stream := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/stream=%v", k.name, entryNames[entry], scopeNames[scope], stream)
					t.Run(name, func(t *testing.T) {
						got := runPathCell(t, k, entry, scope, stream)
						wantFinal, wantU := ref.final, ref.hasU
						switch {
						case stream && !isSelect:
							// Only a SELECT streams; anything else is refused before
							// it runs, the same way on every form.
							if got.err == nil || !strings.Contains(got.err.Error(), "requires a SELECT") {
								t.Fatalf("err = %v, want a requires-a-SELECT error", got.err)
							}
							wantFinal, wantU = initial, false
						case k.name == "ddl" && scope != scopeAuto:
							if !errors.Is(got.err, ErrTxnDDL) {
								t.Fatalf("err = %v, want ErrTxnDDL", got.err)
							}
							wantU = false
						case got.err != nil:
							t.Fatalf("err = %v", got.err)
						default:
							if fmt.Sprint(got.rows) != fmt.Sprint(ref.rows) {
								t.Errorf("rows = %v, want %v", got.rows, ref.rows)
							}
							if got.count != ref.count {
								t.Errorf("count = %d, want %d", got.count, ref.count)
							}
							if got.statsRows != ref.count {
								t.Errorf("LastStmtStats().Rows = %d, want %d", got.statsRows, ref.count)
							}
							switch {
							case stream: // a cursor carries no message
							case k.name == "explain":
								// Same row count, and the live index in every scope:
								// a transaction's lookups run at its read instant.
								if want := fmt.Sprintf("rows %d", ref.count); !strings.Contains(got.message, want) {
									t.Errorf("message %q lacks %q", got.message, want)
								}
								if !strings.Contains(got.message, "TA") {
									t.Errorf("scope %s: no index use in %q", scopeNames[scope], got.message)
								}
							case got.message != ref.message:
								t.Errorf("message = %q, want %q", got.message, ref.message)
							}
							if scope == scopeSessionRollback {
								wantFinal = initial
							}
						}
						if fmt.Sprint(got.final) != fmt.Sprint(wantFinal) {
							t.Errorf("final state = %v, want %v", got.final, wantFinal)
						}
						if got.hasU != wantU {
							t.Errorf("table U exists = %v, want %v", got.hasU, wantU)
						}
					})
				}
			}
		}
	}
}

// EXPLAIN inside a transaction runs through the transaction's own
// executor: it sees the buffered writes, reports the path the
// transaction really uses, and a prepared EXPLAIN receives its
// arguments; the catalog statements keep reading current metadata.
func TestStmtPathExplainInTxn(t *testing.T) {
	db := openPathDB(t)
	ctx := context.Background()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`INSERT INTO T VALUES (9, 'new')`); err != nil {
		t.Fatal(err)
	}
	tbl, _, err := tx.Query(`SELECT x.B FROM x IN T WHERE x.A = 9`)
	if err != nil || tbl.Len() != 1 {
		t.Fatalf("bare select in txn: %v rows, %v", tbl, err)
	}
	res, err := tx.Exec(`EXPLAIN SELECT x.B FROM x IN T WHERE x.A = 9`)
	if err != nil {
		t.Fatal(err)
	}
	// The index does not know the buffered row; the transaction's own
	// writes join its candidates, and that finds it.
	if res[0].Count != 1 || !strings.Contains(res[0].Message, "rows 1") ||
		!strings.Contains(res[0].Message, "TA") || !strings.Contains(res[0].Message, "this transaction's writes") {
		t.Errorf("EXPLAIN in txn: count %d, message %q; want the 1 buffered row through the index and the written set", res[0].Count, res[0].Message)
	}
	ps, err := db.Prepare(`EXPLAIN SELECT x.B FROM x IN T WHERE x.A = ?`)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := tx.ExecPrepared(ctx, ps, model.Int(9))
	if err != nil || pres.Count != 1 {
		t.Errorf("prepared EXPLAIN in txn: %+v, %v", pres, err)
	}
	// Outside the transaction the same statements see no such row, and
	// go through the index.
	out, err := ps.Exec(model.Int(9))
	if err != nil || out.Count != 0 || !strings.Contains(out.Message, "TA") {
		t.Errorf("prepared EXPLAIN outside: %+v, %v", out, err)
	}
	// Catalog statements read current metadata, not the snapshot.
	mustExec(t, db, `CREATE TABLE LATER (X INT)`)
	show, err := tx.Exec(`SHOW TABLES; DESCRIBE LATER`)
	if err != nil || show[0].Count != 2 || show[1].Message == "" {
		t.Errorf("catalog statements in txn: %+v, %v", show, err)
	}
}

// Every statement form inside a transaction updates LastStmtStats.
func TestStmtPathTxnStats(t *testing.T) {
	db := openPathDB(t)
	mustExec(t, db, `INSERT INTO T VALUES (7, 'g')`) // leaves Rows == 1 behind
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`SELECT x.A FROM x IN T WHERE x.A <= 3`); err != nil {
		t.Fatal(err)
	}
	if got := db.LastStmtStats().Rows; got != 3 {
		t.Errorf("after tx.Exec SELECT: Rows = %d, want 3", got)
	}
	ps, err := db.Prepare(`SELECT x.A FROM x IN T WHERE x.A >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecPrepared(context.Background(), ps, model.Int(2)); err != nil {
		t.Fatal(err)
	}
	if got := db.LastStmtStats().Rows; got != 3 {
		t.Errorf("after tx.ExecPrepared: Rows = %d, want 3 (2, 3, 7)", got)
	}
	if _, err := tx.Exec(`UPDATE x IN T SET B = 'u' WHERE x.A < 3`); err != nil {
		t.Fatal(err)
	}
	if got := db.LastStmtStats().Rows; got != 2 {
		t.Errorf("after tx.Exec UPDATE: Rows = %d, want 2", got)
	}
}

// The typed errors are the same whichever door a statement comes in by.
func TestStmtPathTypedErrors(t *testing.T) {
	ctx := context.Background()
	sel, upd := `SELECT x.A FROM x IN T`, `UPDATE x IN T SET B = 'w' WHERE x.A = 1`

	t.Run("ErrTxnDone", func(t *testing.T) {
		db := openPathDB(t)
		ps, _ := db.Prepare(sel)
		tx, _ := db.Begin()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		_, e1 := tx.Exec(sel)
		_, e2 := tx.ExecStmtContext(ctx, parseOne(t, upd))
		_, _, e3 := tx.Query(sel)
		_, e4 := tx.QueryRows(sel)
		_, e5 := tx.QueryRowsStmt(ctx, parseOne(t, sel))
		_, e6 := tx.ExecPrepared(ctx, ps)
		_, e7 := tx.QueryRowsPrepared(ctx, ps)
		for i, err := range []error{e1, e2, e3, e4, e5, e6, e7, tx.Commit(), tx.Rollback()} {
			if !errors.Is(err, ErrTxnDone) {
				t.Errorf("form %d: err = %v, want ErrTxnDone", i+1, err)
			}
		}
	})

	t.Run("ErrWriteConflict", func(t *testing.T) {
		db := openPathDB(t)
		ps, _ := db.Prepare(`UPDATE x IN T SET B = ? WHERE x.A = 1`)
		holder, _ := db.Begin()
		defer holder.Rollback()
		if _, err := holder.Exec(upd); err != nil {
			t.Fatal(err)
		}
		loser, _ := db.Begin()
		defer loser.Rollback()
		s := db.NewSession()
		defer s.Close()
		if _, err := s.ExecScript(ctx, `BEGIN`); err != nil {
			t.Fatal(err)
		}
		_, e1 := loser.Exec(upd)
		_, e2 := loser.ExecStmtContext(ctx, parseOne(t, upd))
		_, e3 := loser.ExecPrepared(ctx, ps, model.Str("w"))
		_, e4 := s.ExecScript(ctx, upd)
		_, e5 := s.ExecPrepared(ctx, ps, model.Str("w"))
		_, e6 := db.Exec(upd) // auto-commit against a held write lock
		_, e7 := ps.Exec(model.Str("w"))
		for i, err := range []error{e1, e2, e3, e4, e5, e6, e7} {
			if !errors.Is(err, ErrWriteConflict) {
				t.Errorf("form %d: err = %v, want ErrWriteConflict", i+1, err)
			}
		}
		// The losers stay usable: the failed statements rolled back alone.
		if _, err := loser.Exec(`UPDATE x IN T SET B = 'ok' WHERE x.A = 2`); err != nil {
			t.Errorf("loser unusable after conflict: %v", err)
		}
		if !s.InTxn() {
			t.Error("session lost its transaction to a failed statement")
		}
	})

	t.Run("ErrReadOnlyReplica", func(t *testing.T) {
		dir := t.TempDir()
		primary, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, primary, `CREATE TABLE T (A INT, B STRING); INSERT INTO T VALUES (1, 'a')`)
		if err := primary.Close(); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{Dir: dir, Replica: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ps, err := db.Prepare(`INSERT INTO T VALUES (?, 'p')`)
		if err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		_, e1 := db.Exec(upd)
		_, e2 := db.ExecStmtContext(ctx, parseOne(t, `CREATE TABLE U (X INT)`))
		_, e3 := ps.Exec(model.Int(2))
		_, e4 := db.Begin()
		_, e5 := db.Exec(`BEGIN; ` + upd + `; COMMIT`)
		_, e6 := s.ExecScript(ctx, `BEGIN`)
		_, e7 := s.ExecPrepared(ctx, ps, model.Int(2))
		for i, err := range []error{e1, e2, e3, e4, e5, e6, e7} {
			if !errors.Is(err, ErrReadOnlyReplica) {
				t.Errorf("form %d: err = %v, want ErrReadOnlyReplica", i+1, err)
			}
		}
		if s.InTxn() {
			t.Error("replica session opened a transaction")
		}
		tbl, _, err := db.Query(sel)
		if err != nil || tbl.Len() != 1 {
			t.Errorf("replica read: %v, %v", tbl, err)
		}
	})

	t.Run("brackets", func(t *testing.T) {
		db := openPathDB(t)
		s := db.NewSession()
		for _, script := range []string{`COMMIT`, `ROLLBACK`} {
			if _, err := s.ExecScript(ctx, script); err == nil || !strings.Contains(err.Error(), "without BEGIN") {
				t.Errorf("%s outside a transaction: %v", script, err)
			}
			if _, err := db.Exec(script); err == nil || !strings.Contains(err.Error(), "without BEGIN") {
				t.Errorf("db.Exec(%s): %v", script, err)
			}
		}
		if res, err := s.ExecScript(ctx, `BEGIN; BEGIN`); err == nil || !strings.Contains(err.Error(), "do not nest") || len(res) != 1 {
			t.Errorf("nested BEGIN: %v, %v", res, err)
		}
		if !s.InTxn() {
			t.Error("a refused nested BEGIN closed the open transaction")
		}
		if err := s.Close(); err == nil || s.InTxn() {
			t.Errorf("Close with an open transaction: %v (in txn %v)", err, s.InTxn())
		}
		// Transaction control reaches neither a bare DB, a Txn, nor Prepare.
		tx, _ := db.Begin()
		defer tx.Rollback()
		for _, text := range []string{`BEGIN`, `COMMIT`, `ROLLBACK`} {
			_, e1 := db.ExecStmtContext(ctx, parseOne(t, text))
			_, e2 := tx.Exec(text)
			_, e3 := db.Prepare(text)
			for i, err := range []error{e1, e2, e3} {
				if err == nil {
					t.Errorf("%s form %d: accepted", text, i+1)
				}
			}
		}
		// A script that ends inside a transaction is rolled back, reported,
		// and leaves no write lock behind.
		res, err := db.Exec(`BEGIN; ` + upd)
		if err == nil || !strings.Contains(err.Error(), "open transaction") || len(res) != 2 {
			t.Fatalf("open-ended script: %v, %v", res, err)
		}
		tbl, _, _ := db.Query(`SELECT x.B FROM x IN T WHERE x.A = 1`)
		if got := fmt.Sprint(sortedRows(tbl)); got != `[("a")]` {
			t.Errorf("open-ended script leaked its write: %s", got)
		}
		if _, err := db.Exec(upd); err != nil {
			t.Errorf("write lock survived the rolled-back script: %v", err)
		}
		// A failing statement mid-bracket rolls the whole bracket back.
		if _, err := db.Exec(`BEGIN; INSERT INTO T VALUES (5, 'e'); SELECT * FROM y IN NOPE; COMMIT`); err == nil {
			t.Error("bad script succeeded")
		}
		if tbl, _, _ := db.Query(`SELECT x.A FROM x IN T WHERE x.A = 5`); tbl.Len() != 0 {
			t.Error("failed bracket leaked its insert")
		}
	})

	t.Run("arguments", func(t *testing.T) {
		db := openPathDB(t)
		ps, _ := db.Prepare(`SELECT x.A FROM x IN T WHERE x.A = ?`)
		tx, _ := db.Begin()
		defer tx.Rollback()
		_, e1 := ps.Exec()
		_, e2 := ps.QueryRows(model.Int(1), model.Int(2))
		_, e3 := tx.ExecPrepared(ctx, ps)
		_, e4 := db.Exec(`SELECT x.A FROM x IN T WHERE x.A = ?`)
		_, e5 := db.NewSession().QueryRows(ctx, parseOne(t, `SELECT x.A FROM x IN T WHERE x.A = ?`))
		for i, err := range []error{e1, e2, e3, e4, e5} {
			if err == nil || !strings.Contains(err.Error(), "argument(s)") {
				t.Errorf("form %d: err = %v, want an argument-count error", i+1, err)
			}
		}
	})
}

// A prepared statement binds inside the statement envelope, in every
// scope: a panic while it re-binds after an epoch bump surfaces as
// *PanicError with no page pinned, and the engine (and an enclosing
// transaction) stays usable.
func TestStmtPathBindPanicContained(t *testing.T) {
	ctx := context.Background()
	db := openPathDB(t)
	psSel, _ := db.Prepare(`SELECT x.A FROM x IN T WHERE x.A >= ?`)
	psUpd, _ := db.Prepare(`UPDATE x IN T SET B = ? WHERE x.A = ?`)
	tx, _ := db.Begin()
	defer tx.Rollback()
	forms := map[string]func() error{
		"prepared Query":        func() error { _, _, err := psSel.Query(model.Int(1)); return err },
		"prepared stream":       func() error { _, err := psSel.QueryRows(model.Int(1)); return err },
		"prepared UPDATE":       func() error { _, err := psUpd.Exec(model.Str("z"), model.Int(1)); return err },
		"txn QueryRowsPrepared": func() error { _, err := tx.QueryRowsPrepared(ctx, psSel, model.Int(1)); return err },
		"txn prepared UPDATE":   func() error { _, err := tx.ExecPrepared(ctx, psUpd, model.Str("z"), model.Int(1)); return err },
		"session prepared": func() error {
			_, err := db.NewSession().ExecPrepared(ctx, psUpd, model.Str("z"), model.Int(1))
			return err
		},
	}
	for what, run := range forms {
		db.bumpEpoch()   // the next execution re-binds...
		db.exec.RT = nil // ...and the bind panics on a nil runtime; the heal rebuilds it
		err := run()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want *PanicError", what, err)
		}
		if n := db.Pool().PinnedCount(); n != 0 {
			t.Errorf("%s: %d pages left pinned", what, n)
		}
		if tbl, _, qerr := psSel.Query(model.Int(1)); qerr != nil || tbl.Len() != 3 {
			t.Errorf("%s: engine not healed: %v, %v", what, tbl, qerr)
		}
	}
	if res, err := tx.ExecPrepared(ctx, psUpd, model.Str("t"), model.Int(2)); err != nil || res.Count != 1 {
		t.Errorf("transaction after contained bind panics: %+v, %v", res, err)
	}
}

// A panic inside execution surfaces as *PanicError on every form and
// scope, leaves no page pinned, and the engine (and an enclosing
// transaction) stays usable.
func TestStmtPathPanicContained(t *testing.T) {
	ctx := context.Background()
	sel, ins := `SELECT x.A FROM x IN T WHERE x.A >= 1`, `INSERT INTO T VALUES (8, 'h')`
	check := func(t *testing.T, db *DB, what string, err error) {
		t.Helper()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want *PanicError", what, err)
		}
		if n := db.Pool().PinnedCount(); n != 0 {
			t.Errorf("%s: %d pages left pinned", what, n)
		}
		if tbl, _, qerr := db.Query(sel); qerr != nil || tbl.Len() != 3 {
			t.Errorf("%s: engine not healed: %v, %v", what, tbl, qerr)
		}
	}
	t.Run("auto", func(t *testing.T) {
		db := openPathDB(t)
		psSel, _ := db.Prepare(sel)
		psIns, _ := db.Prepare(`INSERT INTO T VALUES (?, 'h')`)
		forms := map[string]func() error{
			"Exec select":      func() error { _, err := db.Exec(sel); return err },
			"Exec insert":      func() error { _, err := db.Exec(ins); return err },
			"Exec explain":     func() error { _, err := db.Exec(`EXPLAIN ` + sel); return err },
			"Query":            func() error { _, _, err := db.Query(sel); return err },
			"QueryRows":        func() error { _, err := db.QueryRows(sel); return err },
			"ExecStmtContext":  func() error { _, err := db.ExecStmtContext(ctx, parseOne(t, ins)); return err },
			"QueryRowsStmt":    func() error { _, err := db.QueryRowsStmt(ctx, parseOne(t, sel)); return err },
			"prepared Exec":    func() error { _, err := psIns.Exec(model.Int(8)); return err },
			"prepared Query":   func() error { _, _, err := psSel.Query(); return err },
			"prepared stream":  func() error { _, err := psSel.QueryRows(); return err },
			"session Exec":     func() error { _, err := db.NewSession().Exec(ctx, parseOne(t, ins)); return err },
			"session prepared": func() error { _, err := db.NewSession().ExecPrepared(ctx, psIns, model.Int(8)); return err },
		}
		for what, run := range forms {
			// Each heal bumps the catalog epoch; re-bind first so the panic
			// lands in execution, not in the bind stage.
			psSel.bind(nil)
			psIns.bind(nil)
			db.exec.RT = nil // the next statement panics on a nil runtime; the heal rebuilds it
			check(t, db, what, run())
		}
	})
	t.Run("txn", func(t *testing.T) {
		db := openPathDB(t)
		psSel, _ := db.Prepare(sel)
		psIns, _ := db.Prepare(`INSERT INTO T VALUES (?, 'h')`)
		tx, _ := db.Begin()
		defer tx.Rollback()
		if _, err := tx.Exec(`INSERT INTO T VALUES (6, 'f')`); err != nil {
			t.Fatal(err)
		}
		forms := map[string]func() error{
			"Exec select":       func() error { _, err := tx.Exec(sel); return err },
			"Exec insert":       func() error { _, err := tx.Exec(ins); return err },
			"Exec explain":      func() error { _, err := tx.Exec(`EXPLAIN ` + sel); return err },
			"Query":             func() error { _, _, err := tx.Query(sel); return err },
			"QueryRows":         func() error { _, err := tx.QueryRows(sel); return err },
			"QueryRowsStmt":     func() error { _, err := tx.QueryRowsStmt(ctx, parseOne(t, sel)); return err },
			"ExecPrepared":      func() error { _, err := tx.ExecPrepared(ctx, psIns, model.Int(8)); return err },
			"QueryRowsPrepared": func() error { _, err := tx.QueryRowsPrepared(ctx, psSel); return err },
		}
		rt := tx.exec.RT
		for what, run := range forms {
			tx.exec.RT = nil
			err := run()
			tx.exec.RT = rt
			check(t, db, what, err)
		}
		// The transaction kept its earlier write and none of the panicked ones.
		tbl, _, err := tx.Query(`SELECT x.A FROM x IN T`)
		if err != nil || fmt.Sprint(sortedRows(tbl)) != "[(1) (2) (3) (6)]" {
			t.Errorf("transaction after contained panics: %v, %v", sortedRows(tbl), err)
		}
	})
	t.Run("next", func(t *testing.T) {
		db := openPathDB(t)
		rows, err := db.QueryRows(sel)
		if err != nil {
			t.Fatal(err)
		}
		db.exec.RT = nil
		if rows.Next() {
			t.Error("Next succeeded on a nil runtime")
		}
		check(t, db, "Rows.Next", rows.Err())
	})
}
