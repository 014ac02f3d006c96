// Command aimsql is an interactive shell (and script runner) for the
// AIM-II NF² SQL dialect.
//
// Usage:
//
//	aimsql [-db DIR] [-f SCRIPT] [-demo] [-timeout DUR] [-connect HOST:PORT]
//
// Without -db the database is in-memory and vanishes on exit. With
// -f the script file is executed and the shell exits; otherwise
// statements are read from stdin, terminated by semicolons. -demo
// preloads the paper's office fixtures (Tables 1-8). -timeout bounds
// each statement's execution; a statement past its deadline fails
// (and, if mutating, rolls back) without killing the session.
// -connect runs the same shell against a live aimserver instead of an
// embedded engine: statements ship over the wire, SELECTs stream row
// by row, and the transaction lives server-side.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	aim "repro"
	"repro/aimnet"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
)

// stmtTimeout bounds each statement's execution (0 = unlimited); set
// by the -timeout flag.
var stmtTimeout time.Duration

func main() {
	dir := flag.String("db", "", "database directory (empty = in-memory)")
	script := flag.String("f", "", "execute this script file and exit")
	demo := flag.Bool("demo", false, "preload the paper's office fixtures")
	connect := flag.String("connect", "", "connect to an aimserver at host:port instead of embedding the engine")
	flag.DurationVar(&stmtTimeout, "timeout", 0, "per-statement timeout (0 = none)")
	flag.Parse()

	if *connect != "" {
		if *dir != "" || *demo {
			fmt.Fprintln(os.Stderr, "aimsql: -connect uses the server's database; -db/-demo ignored")
		}
		c, err := aimnet.Dial(*connect, aimnet.Options{Client: "aimsql"})
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		r := &remote{c: c}
		if *script != "" {
			data, err := os.ReadFile(*script)
			if err != nil {
				fatal(err)
			}
			if err := runScript(r, string(data)); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("AIM-II NF² SQL shell — connected to %s (session %d), \\q quits\n", *connect, c.SessionID())
		repl(r, os.Stdin)
		return
	}

	var db *aim.DB
	var err error
	if *demo {
		if *dir != "" {
			fmt.Fprintln(os.Stderr, "aimsql: -demo uses an in-memory database; -db ignored")
		}
		eng, err := core.Office()
		if err != nil {
			fatal(err)
		}
		db = wrap(eng)
	} else {
		db, err = aim.Open(aim.Options{Dir: *dir})
		if err != nil {
			fatal(err)
		}
	}
	defer db.Close()

	s := newSession(db)
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		if err := runScript(s, string(data)); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println("AIM-II NF² SQL shell — statements end with ';', \\q quits, \\h for help")
	repl(s, os.Stdin)
}

// session is the shell over the embedded engine: an engine session,
// which owns the open transaction if a BEGIN is pending (statements
// inside it read its snapshot and buffer their writes until COMMIT).
// It works on the engine handle directly so each input chunk is parsed
// exactly once — the parsed statements drive execution, the txn> prompt
// logic, and the streaming output alike.
type session struct {
	eng *engine.Session
}

func newSession(db *aim.DB) *session { return &session{eng: db.Engine().NewSession()} }

// inTxn reports whether a transaction is open.
func (s *session) inTxn() bool { return s.eng.InTxn() }

// abort rolls back the open transaction, if any.
func (s *session) abort() { s.eng.Close() }

// exec runs one statement under its own timeout. SELECTs go through
// the streaming cursor — each result tuple is printed as it is
// produced, so the first rows of a long scan appear immediately;
// everything else (BEGIN, COMMIT and ROLLBACK included) executes
// through the materializing API and prints its outcome.
func (s *session) exec(st sql.Stmt) error {
	ctx, cancel := execCtx()
	defer cancel()
	if _, ok := st.Statement.(*sql.Select); ok {
		return s.streamSelect(ctx, st)
	}
	res, err := s.eng.Exec(ctx, st)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// shell abstracts where statements execute: a session runs them on the
// embedded engine, a remote shell (-connect) ships them to an
// aimserver over the wire. The REPL and script runner work against
// either.
type shell interface {
	// inTxn reports whether the shell has an open transaction (the
	// txn> prompt).
	inTxn() bool
	// exec runs one parsed statement, printing its results.
	exec(st sql.Stmt) error
	// abort rolls back the open transaction, if any.
	abort()
}

// wrap adapts an engine handle opened by core.Office into the public
// facade (same underlying type).
func wrap(eng *engine.DB) *aim.DB { return aim.FromEngine(eng) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aimsql:", err)
	os.Exit(1)
}

// execCtx returns the context for one statement, honoring -timeout.
func execCtx() (context.Context, context.CancelFunc) {
	if stmtTimeout > 0 {
		return context.WithTimeout(context.Background(), stmtTimeout)
	}
	return context.Background(), func() {}
}

// runScript executes a script one statement at a time (each under its
// own timeout), printing results as they arrive and stopping at the
// first error. Script mode (-f) uses it: a failure exits nonzero. A
// script that ends with a transaction still open rolls it back and
// fails.
func runScript(s shell, script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := s.exec(st); err != nil {
			s.abort()
			return err
		}
	}
	if s.inTxn() {
		s.abort()
		return fmt.Errorf("script ended with an open transaction (missing COMMIT or ROLLBACK); rolled back")
	}
	return nil
}

// runChunk executes one REPL input chunk statement by statement: an
// error (including a timeout) is printed and the remaining statements
// still run — a failed statement has been rolled back (or, inside a
// transaction, has discarded only its own buffered effects), so the
// session is safe to continue.
func runChunk(s shell, chunk string) {
	stmts, err := sql.ParseScript(chunk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	for _, st := range stmts {
		if err := s.exec(st); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// streamSelect prints a query's rows as they stream from the cursor,
// reusing the chunk's parse.
func (s *session) streamSelect(ctx context.Context, st sql.Stmt) error {
	rows, err := s.eng.QueryRows(ctx, st)
	if err != nil {
		return err
	}
	defer rows.Close()
	names := make([]string, len(rows.Type().Attrs))
	for i, a := range rows.Type().Attrs {
		names[i] = a.Name
	}
	fmt.Println("-- " + strings.Join(names, " | "))
	n := 0
	for rows.Next() {
		fmt.Println(rows.Tuple())
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d tuple(s))\n", n)
	return nil
}

func printResult(r aim.Result) {
	switch {
	case r.Table != nil:
		fmt.Print(aim.Format("RESULT", r.Type, r.Table))
		fmt.Printf("(%d tuple(s))\n", r.Table.Len())
	case r.Message != "":
		fmt.Println(r.Message)
	default:
		fmt.Printf("%d tuple(s) affected\n", r.Count)
	}
}

func repl(s shell, in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	continuation := false
	for {
		switch {
		case continuation:
			fmt.Print("...> ")
		case s.inTxn():
			fmt.Print("txn> ")
		default:
			fmt.Print("nf2> ")
		}
		if !sc.Scan() {
			fmt.Println()
			if s.inTxn() {
				s.abort()
				fmt.Fprintln(os.Stderr, "open transaction rolled back")
			}
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, `\quit`, "exit", "quit":
			if s.inTxn() {
				s.abort()
				fmt.Fprintln(os.Stderr, "open transaction rolled back")
			}
			return
		case `\h`, `\help`:
			printHelp()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continuation = true
			continue
		}
		stmt := buf.String()
		buf.Reset()
		continuation = false
		runChunk(s, stmt)
	}
}

func printHelp() {
	fmt.Print(`Statements (terminate with ';'):
  CREATE TABLE name (A INT, B TABLE OF (...), C LIST OF (...)) [VERSIONED] [LAYOUT SS1|SS2|SS3]
  CREATE [TEXT] INDEX name ON table (path.to.attr) [USING DATA|ROOT|HIERARCHICAL]
  INSERT INTO table VALUES (1, 'x', {(...)}, <(...)>), ...
  INSERT INTO y.SUB FROM x IN T, y IN x.SUB2 WHERE ... VALUES (...)
  SELECT [DISTINCT] items FROM v IN T [ASOF ts], w IN v.SUB [WHERE pred] [ORDER BY e [DESC]]
    items: expr [AS name] | NAME = (SELECT ...)    nested result construction
    pred:  =, <>, <, <=, >, >=, AND, OR, NOT, EXISTS v IN p: pred, ALL v IN p: pred,
           attr CONTAINS '*mask*', path[k] list indexing, COUNT(path)
  UPDATE v IN T SET A = expr [WHERE ...];  UPDATE v FROM ... SET ...
  DELETE v FROM v IN T [, w IN v.SUB] WHERE ...
  ALTER TABLE t ADD path.to.NEWATTR INT|FLOAT|STRING|BOOL|TIME
  EXPLAIN SELECT ...                    show the chosen access paths
  SHOW TABLES;  DESCRIBE table;  DROP TABLE t;  DROP INDEX i
  BEGIN;  COMMIT;  ROLLBACK             snapshot-isolated transactions
`)
}
