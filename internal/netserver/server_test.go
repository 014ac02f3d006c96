package netserver

import (
	"context"
	"errors"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/aimnet"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/netproto"
)

// startServer boots an in-memory engine with a seeded table and a
// server over it.
func startServer(t *testing.T, rows int, opts Options) (*Server, *engine.DB) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE KV (K INT, V INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO KV VALUES (` + strconv.Itoa(i) + `, ` + strconv.Itoa(i*10) + `)`); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(db, opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, db
}

func dial(t *testing.T, srv *Server) *aimnet.Conn {
	t.Helper()
	c, err := aimnet.Dial(srv.Addr(), aimnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestExecAndStreamRoundTrip(t *testing.T) {
	srv, db := startServer(t, 50, Options{})
	c := dial(t, srv)
	ctx := context.Background()

	res, err := c.Exec(ctx, `INSERT INTO KV VALUES (1000, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Count != 1 {
		t.Fatalf("unexpected exec result: %+v", res)
	}

	// Stream and compare against the in-process oracle.
	rows, err := c.Query(ctx, `SELECT x.K, x.V FROM x IN KV ORDER BY x.K`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		got = append(got, rows.Tuple().String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()

	oracle, _, err := db.Query(`SELECT x.K, x.V FROM x IN KV ORDER BY x.K`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != oracle.Len() {
		t.Fatalf("streamed %d rows, oracle has %d", len(got), oracle.Len())
	}
	for i, tup := range oracle.Tuples {
		if got[i] != tup.String() {
			t.Fatalf("row %d: got %s, oracle %s", i, got[i], tup)
		}
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after stream", n)
	}
}

func TestSmallWindowFlowControl(t *testing.T) {
	srv, _ := startServer(t, 300, Options{})
	c, err := aimnet.Dial(srv.Addr(), aimnet.Options{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(context.Background(), `SELECT x.K FROM x IN KV`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != 300 {
		t.Fatalf("got %d rows, want 300", n)
	}
}

func TestPreparedStatementsOverWire(t *testing.T) {
	srv, _ := startServer(t, 10, Options{})
	c := dial(t, srv)
	ctx := context.Background()

	ins, err := c.Prepare(ctx, `INSERT INTO KV VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 || ins.IsSelect() {
		t.Fatalf("bad prepared meta: %d params, select=%v", ins.NumParams(), ins.IsSelect())
	}
	for i := 0; i < 5; i++ {
		if _, err := ins.Exec(ctx, model.Int(int64(2000+i)), model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := c.Prepare(ctx, `SELECT x.K FROM x IN KV WHERE x.K >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.Query(ctx, model.Int(2000))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if n != 5 {
		t.Fatalf("got %d rows, want 5", n)
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sel.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(ctx, model.Int(1), model.Int(1)); err == nil {
		t.Fatal("exec on closed statement succeeded")
	}
}

func TestWriteConflictRoundTrips(t *testing.T) {
	srv, _ := startServer(t, 5, Options{})
	c1, c2 := dial(t, srv), dial(t, srv)
	ctx := context.Background()

	mustExec(t, c1, `BEGIN; UPDATE x IN KV SET V = 111 WHERE x.K = 1`)
	mustExec(t, c2, `BEGIN`)
	_, err := c2.Exec(ctx, `UPDATE x IN KV SET V = 222 WHERE x.K = 1`)
	if err == nil {
		// Conflict may surface at commit instead, depending on lock style.
		_, err = c2.Exec(ctx, `COMMIT`)
	}
	if !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("want ErrWriteConflict across the wire, got %v", err)
	}
	if _, err := c1.Exec(ctx, `COMMIT`); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t *testing.T, c *aimnet.Conn, script string) {
	t.Helper()
	if _, err := c.Exec(context.Background(), script); err != nil {
		t.Fatalf("%s: %v", script, err)
	}
}

func TestCancelMidStream(t *testing.T) {
	srv, db := startServer(t, 500, Options{})
	c := dial(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Query(ctx, `SELECT x.K FROM x IN KV`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
		if n == 3 {
			cancel()
			// Wait for the server to honor the cancel frame before
			// draining on: a client that keeps granting credit can
			// otherwise finish all 500 rows first.
			waitFor(t, "cancel honored", func() bool { return db.NetStats().Cancels > 0 })
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled across the wire, got %v", err)
	}
	rows.Close()
	waitFor(t, "pins released", func() bool { return db.Pool().PinnedCount() == 0 })
	// The session survives a canceled statement.
	if _, err := c.Exec(context.Background(), `INSERT INTO KV VALUES (9000, 1)`); err != nil {
		t.Fatal(err)
	}
}

func TestSessionOverloadShedsTyped(t *testing.T) {
	srv, _ := startServer(t, 1, Options{MaxSessions: 2, RetryAfter: 5 * time.Millisecond})
	c1, err := aimnet.Dial(srv.Addr(), aimnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := aimnet.Dial(srv.Addr(), aimnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	_, err = aimnet.Dial(srv.Addr(), aimnet.Options{MaxRetries: -1})
	if !errors.Is(err, netproto.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var se *netproto.ServerError
	if !errors.As(err, &se) || se.RetryAfter != 5*time.Millisecond {
		t.Fatalf("retry-after hint not carried: %v", err)
	}
	if srv.Stats().ShedSessions == 0 {
		t.Fatal("shed not counted")
	}

	// With a slot free again, the retrying client gets in.
	c1.Close()
	waitFor(t, "slot free", func() bool { return srv.Stats().SessionsOpen < 2 })
	c4, err := aimnet.Dial(srv.Addr(), aimnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c4.Close()
}

func TestStatementOverloadShedsTyped(t *testing.T) {
	srv, _ := startServer(t, 2000, Options{
		MaxStatements:  1,
		StmtQueueDepth: 1,
		StmtQueueWait:  10 * time.Millisecond,
		RetryAfter:     5 * time.Millisecond,
	})
	// Hold the only slot with a slow stream (window exhausted, server
	// waits for credit).
	cHold, err := aimnet.Dial(srv.Addr(), aimnet.Options{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cHold.Close()
	rows, err := cHold.Query(context.Background(), `SELECT x.K FROM x IN KV`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	waitFor(t, "stream holding slot", func() bool { return srv.Stats().StmtsInFlight == 1 })

	// Two more statements: one queues (and times out), one is shed
	// immediately once the queue is full. Both must come back typed.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := aimnet.Dial(srv.Addr(), aimnet.Options{MaxRetries: -1})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			_, errs[i] = c.Exec(context.Background(), `INSERT INTO KV VALUES (1, 1)`)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, netproto.ErrOverloaded) {
			t.Fatalf("statement %d: want ErrOverloaded, got %v", i, err)
		}
	}
	st := srv.Stats()
	if st.ShedStmts < 2 {
		t.Fatalf("want ≥2 shed statements, got %d", st.ShedStmts)
	}
	if st.QueueWaits == 0 {
		t.Fatal("queue wait not counted")
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, db := startServer(t, 100, Options{})
	c := dial(t, srv)
	mustExec(t, c, `BEGIN; UPDATE x IN KV SET V = 1 WHERE x.K = 1`)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.SessionsOpen != 0 {
		t.Fatalf("%d sessions still open after drain", st.SessionsOpen)
	}
	if st.Drained == 0 {
		t.Fatal("drain not counted")
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after drain", n)
	}
	// The drained session's transaction must have rolled back: its
	// write lock is gone.
	if _, err := db.Exec(`UPDATE x IN KV SET V = 2 WHERE x.K = 1`); err != nil {
		t.Fatalf("write lock leaked past drain: %v", err)
	}
	// New connections are refused while drained, with a typed error.
	_, err := aimnet.Dial(srv.Addr(), aimnet.Options{MaxRetries: -1})
	if err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestMidNextKillRollsBack is the satellite regression: a client dies
// mid-Next with an open transaction holding write locks. The server
// must notice, abort the statement, roll the transaction back and
// release its locks — a later session updating the same object must
// NOT see a write conflict, and no page stays pinned.
func TestMidNextKillRollsBack(t *testing.T) {
	srv, db := startServer(t, 2000, Options{})

	// Raw protocol client so we can kill the socket abruptly.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := &netproto.Hello{Version: netproto.Version, Client: "killer"}
	if err := netproto.WriteFrame(nc, netproto.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := netproto.ReadFrame(nc); err != nil || typ != netproto.TypeHelloOK {
		t.Fatalf("handshake failed: typ=0x%02x err=%v", typ, err)
	}
	exec := &netproto.Exec{Script: `BEGIN; UPDATE x IN KV SET V = 999 WHERE x.K = 7`}
	if err := netproto.WriteFrame(nc, netproto.TypeExec, exec.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := netproto.ReadFrame(nc); err != nil || typ != netproto.TypeResults {
		t.Fatalf("exec failed: typ=0x%02x err=%v", typ, err)
	}
	// Open a stream with a tiny window so the server parks mid-Next
	// waiting for credit, then kill the connection without ceremony.
	q := &netproto.Query{SQL: `SELECT x.K FROM x IN KV`, Window: 2}
	if err := netproto.WriteFrame(nc, netproto.TypeQuery, q.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := netproto.ReadFrame(nc); err != nil || typ != netproto.TypeRowHeader {
		t.Fatalf("no row header: typ=0x%02x err=%v", typ, err)
	}
	if typ, _, err := netproto.ReadFrame(nc); err != nil || typ != netproto.TypeRow {
		t.Fatalf("no first row: typ=0x%02x err=%v", typ, err)
	}
	nc.Close()

	// The server notices the dead peer, tears the session down, rolls
	// back, and releases everything.
	waitFor(t, "session teardown", func() bool { return srv.Stats().SessionsOpen == 0 })
	waitFor(t, "pins released", func() bool { return db.Pool().PinnedCount() == 0 })
	if srv.Stats().Killed == 0 {
		t.Fatal("kill not counted")
	}

	// A fresh session updates the same object without a conflict.
	c := dial(t, srv)
	res, err := c.Exec(context.Background(), `UPDATE x IN KV SET V = 1000 WHERE x.K = 7`)
	if errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("write lock leaked from killed session: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Count != 1 {
		t.Fatalf("update hit %d rows, want 1", res[0].Count)
	}
}

func TestIdleTimeoutReapsSession(t *testing.T) {
	srv, _ := startServer(t, 1, Options{IdleTimeout: 30 * time.Millisecond})
	c := dial(t, srv)
	mustExec(t, c, `INSERT INTO KV VALUES (5, 5)`)
	waitFor(t, "idle reap", func() bool { return srv.Stats().SessionsOpen == 0 })
	if srv.Stats().Killed == 0 {
		t.Fatal("idle reap not counted")
	}
	if _, err := c.Exec(context.Background(), `INSERT INTO KV VALUES (6, 6)`); err == nil {
		t.Fatal("exec on reaped session succeeded")
	}
}

func TestInfoOverWire(t *testing.T) {
	srv, _ := startServer(t, 1, Options{})
	c := dial(t, srv)
	mustExec(t, c, `INSERT INTO KV VALUES (2, 2)`)
	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info["sessions_open"] < 1 || info["stmts_total"] < 1 || info["bytes_out"] == 0 || info["writes"] < 2 {
		t.Fatalf("implausible info: %v", info)
	}
	// The wire snapshot is the same counter block aim.Stats surfaces.
	if got := srv.Stats().SessionsTotal; int64(got) != info["sessions_total"] {
		t.Fatalf("info sessions_total %d != server stats %d", info["sessions_total"], got)
	}
}

func TestTornFrameKillsSessionOnly(t *testing.T) {
	srv, db := startServer(t, 10, Options{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := &netproto.Hello{Version: netproto.Version, Client: "torn"}
	if err := netproto.WriteFrame(nc, netproto.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := netproto.ReadFrame(nc); err != nil || typ != netproto.TypeHelloOK {
		t.Fatalf("handshake failed: typ=0x%02x err=%v", typ, err)
	}
	// A frame header promising more bytes than we send, then death.
	nc.Write([]byte{0x00, 0x00, 0x40, 0x00, netproto.TypeExec, 'S', 'E', 'L'})
	nc.Close()
	waitFor(t, "teardown", func() bool { return srv.Stats().SessionsOpen == 0 })

	// Other sessions are unaffected.
	c := dial(t, srv)
	mustExec(t, c, `INSERT INTO KV VALUES (77, 7)`)
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned", n)
	}
}
