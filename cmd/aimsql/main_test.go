package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// captureStdout runs fn with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestRunScriptEndToEnd(t *testing.T) {
	db, err := aim.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out := captureStdout(t, func() {
		err = runScript(newSession(db), `
CREATE TABLE T (A INT, S TABLE OF (B STRING));
INSERT INTO T VALUES (1, {('x'), ('y')});
SELECT t.A, COUNT(t.S) AS N FROM t IN T;
SHOW TABLES;
`)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table T created", "1 tuple(s) inserted", "(1 tuple(s))", "NF2"} {
		if !strings.Contains(out, want) {
			t.Errorf("script output missing %q:\n%s", want, out)
		}
	}
}

func TestRunScriptFromFile(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.sql")
	os.WriteFile(script, []byte(`
CREATE TABLE F (X INT);
INSERT INTO F VALUES (42);
SELECT f.X FROM f IN F;
`), 0o644)
	db, err := aim.Open(aim.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		err = runScript(newSession(db), string(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("script output:\n%s", out)
	}
}

func TestDemoDatabaseLoads(t *testing.T) {
	eng, err := core.Office()
	if err != nil {
		t.Fatal(err)
	}
	db := wrap(eng)
	defer db.Close()
	out := captureStdout(t, func() {
		err = runScript(newSession(db), `SELECT x.DNO FROM x IN DEPARTMENTS;`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "314") {
		t.Errorf("demo output:\n%s", out)
	}
}

func TestScriptErrorPropagates(t *testing.T) {
	db, _ := aim.OpenMemory()
	defer db.Close()
	var err error
	captureStdout(t, func() {
		err = runScript(newSession(db), `SELECT * FROM x IN NOPE;`)
	})
	if err == nil {
		t.Error("bad script succeeded")
	}
}

// The interactive loop: multi-line statements assemble until a
// semicolon, \h prints help, \q exits, and errors do not kill the
// session.
func TestREPL(t *testing.T) {
	db, _ := aim.OpenMemory()
	defer db.Close()
	input := strings.NewReader(`CREATE TABLE R (A INT,
  S TABLE OF (B INT));
INSERT INTO R VALUES (7, {(8)});
SELECT r.A,
       COUNT(r.S) AS N
FROM r IN R;
SELECT * FROM x IN MISSING;
\h
\q
`)
	out := captureStdout(t, func() {
		repl(newSession(db), input)
	})
	for _, want := range []string{"table R created", "1 tuple(s) inserted", "(1 tuple(s))", "Statements (terminate with ';')"} {
		if !strings.Contains(out, want) {
			t.Errorf("repl output missing %q:\n%s", want, out)
		}
	}
	// The failing statement must not have aborted the loop: help came
	// after the error.
	if !strings.Contains(out, "nf2>") {
		t.Errorf("prompt missing:\n%s", out)
	}
}

// EOF terminates the loop cleanly.
func TestREPLEOF(t *testing.T) {
	db, _ := aim.OpenMemory()
	defer db.Close()
	captureStdout(t, func() {
		repl(newSession(db), strings.NewReader("SELECT 1\n")) // no semicolon, then EOF
	})
}

// TestTimeoutFailsStatement: with -timeout set, a statement that runs
// past its deadline fails cleanly; the database stays usable.
func TestTimeoutFailsStatement(t *testing.T) {
	db, _ := aim.OpenMemory()
	defer db.Close()
	var setup strings.Builder
	setup.WriteString(`CREATE TABLE BIG (ID INT)`)
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&setup, ";INSERT INTO BIG VALUES (%d)", i)
	}
	var err error
	captureStdout(t, func() { err = runScript(newSession(db), setup.String()) })
	if err != nil {
		t.Fatal(err)
	}
	stmtTimeout = time.Millisecond
	defer func() { stmtTimeout = 0 }()
	captureStdout(t, func() {
		err = runScript(newSession(db), `SELECT x.ID FROM x IN BIG, y IN BIG WHERE x.ID = y.ID;`)
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
	stmtTimeout = 0
	out := captureStdout(t, func() {
		err = runScript(newSession(db), `SELECT x.ID FROM x IN BIG WHERE x.ID = 7;`)
	})
	if err != nil {
		t.Fatalf("database unusable after timeout: %v", err)
	}
	if !strings.Contains(out, "(1 tuple(s))") {
		t.Errorf("post-timeout query output:\n%s", out)
	}
}

// TestREPLContinuesPastMidChunkError: a chunk with a failing
// statement in the middle still executes the statements after it —
// per-statement execution, not whole-chunk abort.
func TestREPLContinuesPastMidChunkError(t *testing.T) {
	db, _ := aim.OpenMemory()
	defer db.Close()
	input := strings.NewReader(`CREATE TABLE C (A INT); SELECT * FROM x IN MISSING; INSERT INTO C VALUES (9);
SELECT c.A FROM c IN C;
\q
`)
	out := captureStdout(t, func() {
		repl(newSession(db), input)
	})
	for _, want := range []string{"table C created", "1 tuple(s) inserted", "(1 tuple(s))"} {
		if !strings.Contains(out, want) {
			t.Errorf("repl output missing %q:\n%s", want, out)
		}
	}
}
