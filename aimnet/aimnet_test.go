package aimnet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/netserver"
)

// serve starts an in-process server over a fresh in-memory engine set
// up by script, and returns the engine and the server's address.
func serve(t *testing.T, script string) (*engine.DB, string) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(script); err != nil {
		t.Fatal(err)
	}
	srv := netserver.New(db, netserver.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return db, srv.Addr()
}

func dial(t *testing.T, addr string, opts Options) *Conn {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rowsScript creates table R with n rows of four attributes.
func rowsScript(n int) string {
	var b strings.Builder
	b.WriteString(`CREATE TABLE R (A INT, B STRING, C FLOAT, D STRING);`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `INSERT INTO R VALUES (%d, 'name %d', %d.5, '%s');`, 1000+i, i, i, strings.Repeat("x", i%40))
	}
	return b.String()
}

// oracle runs q in process and returns its rows as strings.
func oracle(t *testing.T, db *engine.DB, q string) []string {
	t.Helper()
	tbl, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tup := range tbl.Tuples {
		out = append(out, tup.String())
	}
	return out
}

func sameRows(t *testing.T, what string, got []model.Tuple, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i, tup := range got {
		if tup.String() != want[i] {
			t.Fatalf("%s: row %d is %s, want %s", what, i, tup, want[i])
		}
	}
}

// A tuple Next returned is the caller's: kept across later Next calls,
// credit grants, a collection and the next statement on the conn, it
// still equals what the server sent.
func TestTuplesStayValidAfterNext(t *testing.T) {
	const q = `SELECT x.A, x.B, x.C, x.D FROM x IN R ORDER BY x.A`
	db, addr := serve(t, rowsScript(300))
	c := dial(t, addr, Options{Window: 16})
	ctx := context.Background()
	rows, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var kept []model.Tuple
	for rows.Next() {
		kept = append(kept, rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	runtime.GC()
	again, err := c.Query(ctx, `SELECT x.D, x.C, x.B, x.A FROM x IN R`)
	if err != nil {
		t.Fatal(err)
	}
	for again.Next() {
	}
	again.Close()
	sameRows(t, "kept rows", kept, oracle(t, db, q))
}

// Close in the middle of a stream drains the rows the server already
// sent in one burst, ends the stream, and leaves the conn ready for the
// next request. The server never sent more rows than the window.
func TestCloseMidStreamDrainsBurst(t *testing.T) {
	db, addr := serve(t, rowsScript(1000))
	c := dial(t, addr, Options{})
	ctx := context.Background()
	rows, err := c.Query(ctx, `SELECT x.A FROM x IN R`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close returned a row")
	}
	if sent, window := db.NetStats().RowsStreamed, uint64(128); sent > window {
		t.Fatalf("the server sent %d rows into a window of %d", sent, window)
	}
	res, err := c.Exec(ctx, `INSERT INTO R VALUES (1, 'a', 1.0, 'b')`)
	if err != nil || len(res) != 1 || res[0].Count != 1 {
		t.Fatalf("the conn after Close: %+v, %v", res, err)
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after Close", n)
	}
}

// Nested tables, ordered and unordered, stream as values of a row.
func TestNestedValuesDecode(t *testing.T) {
	const q = `SELECT x.DNO, x.PROJECTS, x.EQUIP FROM x IN D ORDER BY x.DNO`
	db, addr := serve(t, `CREATE TABLE D (DNO INT, PROJECTS TABLE OF (PNO INT, PNAME STRING, MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING)), EQUIP LIST OF (QU INT, TYPE STRING));
		INSERT INTO D VALUES (314, {(17, 'CGA', {(39582, 'Leader'), (56019, 'Staff')}), (23, 'ASR', {})}, <(2, 'PC'), (1, 'Printer')>);
		INSERT INTO D VALUES (218, {}, <>);`)
	c := dial(t, addr, Options{})
	rows, err := c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var got []model.Tuple
	for rows.Next() {
		got = append(got, rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	sameRows(t, "nested rows", got, oracle(t, db, q))
	if p, ok := got[1][1].(*model.Table); !ok || p.Len() != 2 || p.Tuples[0][2].(*model.Table).Len() != 2 {
		t.Fatalf("PROJECTS of 314 decoded as %v", got[1][1])
	}
	if e, ok := got[1][2].(*model.Table); !ok || !e.Ordered {
		t.Fatalf("EQUIP of 314 decoded as %v", got[1][2])
	}
}

// A statement that fails after some rows sends them and then an Error
// frame, in one burst; the rows arrive and the error reaches Err.
func TestErrorAfterRowsReachesErr(t *testing.T) {
	_, addr := serve(t, rowsScript(10))
	c := dial(t, addr, Options{})
	rows, err := c.Query(context.Background(), `SELECT x.A, 100 / (x.A - 1005) FROM x IN R`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("after %d rows: want the division error, got %v", n, err)
	}
	if n == 0 || n >= 10 {
		t.Fatalf("%d rows before the error", n)
	}
	rows.Close()
	if _, err := c.Exec(context.Background(), `SELECT x.A FROM x IN R`); err != nil {
		t.Fatalf("the conn after the error: %v", err)
	}
}
