package netserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/aimnet"
	"repro/internal/model"
	"repro/internal/netproto"
)

// writesFor runs fn and returns the socket writes the server made
// meanwhile. flush counts a write before making it, so once the client
// has read a reply its writes are counted.
func writesFor(srv *Server, fn func()) uint64 {
	before := srv.Stats().Writes
	fn()
	return srv.Stats().Writes - before
}

// drain reads a stream to its end and returns its rows' K values.
func drain(t *testing.T, rows *aimnet.Rows) []int64 {
	t.Helper()
	var ks []int64
	for rows.Next() {
		ks = append(ks, int64(rows.Tuple()[0].(model.Int)))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	return ks
}

// A reply that fits the client's credit window is one socket write: its
// RowHeader, rows and Done are batched. A longer stream is flushed
// where the server parks for credit, and each of those writes carries
// at least half a window.
func TestReplyWrites(t *testing.T) {
	srv, _ := startServer(t, 1000, Options{})
	ctx := context.Background()
	c := dial(t, srv)
	one, err := c.Prepare(ctx, `SELECT x.K, x.V FROM x IN KV WHERE x.K = ?`)
	if err != nil {
		t.Fatal(err)
	}
	below, err := c.Prepare(ctx, `SELECT x.K, x.V FROM x IN KV WHERE x.K < ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		stmt *aimnet.Stmt
		arg  int64
		rows int
	}{
		{"one-row prepared query", one, 7, 1},
		{"96-row result in a window of 128", below, 96, 96},
	} {
		var ks []int64
		w := writesFor(srv, func() {
			rows, err := tc.stmt.Query(ctx, model.Int(tc.arg))
			if err != nil {
				t.Fatal(err)
			}
			ks = drain(t, rows)
		})
		if len(ks) != tc.rows || w != 1 {
			t.Errorf("%s: %d rows in %d writes, want %d rows in 1 write", tc.name, len(ks), w, tc.rows)
		}
	}
	if w := writesFor(srv, func() { mustExec(t, c, `UPDATE x IN KV SET V = 1 WHERE x.K = 3`) }); w != 1 {
		t.Errorf("Exec reply took %d writes, want 1", w)
	}

	const window = 16
	small, err := aimnet.Dial(srv.Addr(), aimnet.Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	var ks []int64
	w := writesFor(srv, func() {
		rows, err := small.Query(ctx, `SELECT x.K FROM x IN KV ORDER BY x.K`)
		if err != nil {
			t.Fatal(err)
		}
		ks = drain(t, rows)
	})
	for i, k := range ks {
		if k != int64(i) {
			t.Fatalf("row %d has K %d", i, k)
		}
	}
	if len(ks) != 1000 {
		t.Fatalf("got %d rows, want 1000", len(ks))
	}
	if lo, hi := uint64(1000/window), uint64(1000/(window/2)+2); w < lo || w > hi {
		t.Errorf("1000 rows in a window of %d took %d writes, want %d..%d", window, w, lo, hi)
	}
}

// A reply past netproto.BufSize is flushed when the buffer reaches it:
// one materialized frame of ~80 KiB is one write, a stream of 80 rows of
// 1 000 bytes each is two, and both arrive whole.
func TestRepliesPastBufSize(t *testing.T) {
	srv, db := startServer(t, 0, Options{})
	if _, err := db.Exec(`CREATE TABLE BIG (K INT, S STRING)`); err != nil {
		t.Fatal(err)
	}
	const rows, width = 80, 1000
	for i := 0; i < rows; i++ {
		s := strings.Repeat(string(rune('a'+i%26)), width)
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO BIG VALUES (%d, '%s')`, i, s)); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, srv)
	ctx := context.Background()
	const q = `SELECT x.K, x.S FROM x IN BIG ORDER BY x.K`
	check := func(what string, got []model.Tuple) {
		t.Helper()
		if len(got) != rows {
			t.Fatalf("%s: %d rows, want %d", what, len(got), rows)
		}
		for i, tup := range got {
			if tup[0] != model.Int(int64(i)) || len(tup[1].(model.Str)) != width {
				t.Fatalf("%s: row %d is %v", what, i, tup[0])
			}
		}
	}
	var res []aimnet.Result
	w := writesFor(srv, func() {
		var err error
		if res, err = c.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	check("Exec", res[0].Table.Tuples)
	if w != 1 {
		t.Errorf("an ~80 KiB Results reply took %d writes, want 1", w)
	}
	var got []model.Tuple
	w = writesFor(srv, func() {
		rs, err := c.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for rs.Next() {
			got = append(got, rs.Tuple())
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		rs.Close()
	})
	check("Query", got)
	if w != 2 {
		t.Errorf("an ~80 KiB stream took %d writes, want 2", w)
	}
}

// rawSession is a handshaken connection that speaks frames directly, so
// a test sees exactly the frames the server sends.
func rawSession(t *testing.T, srv *Server) (net.Conn, *netproto.FrameReader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	fr := netproto.NewFrameReader(bufio.NewReader(nc))
	if err := netproto.WriteFrame(nc, netproto.TypeHello, (&netproto.Hello{Version: netproto.Version}).Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := fr.Read(); err != nil || typ != netproto.TypeHelloOK {
		t.Fatalf("handshake: frame 0x%02x, %v", typ, err)
	}
	return nc, fr
}

// A stream parked for credit mid-result still ends the way the client
// asked: StreamClose in Done{Aborted}, Cancel in a typed canceled error.
// Either way the rows the window allowed arrive first, and the session
// takes the next request.
func TestStreamEndsWhileParked(t *testing.T) {
	srv, db := startServer(t, 1000, Options{})
	for _, tc := range []struct {
		name string
		stop byte
	}{
		{"StreamClose", netproto.TypeStreamClose},
		{"Cancel", netproto.TypeCancel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, fr := rawSession(t, srv)
			const window = 16
			q := &netproto.Query{SQL: `SELECT x.K FROM x IN KV`, Window: window}
			if err := netproto.WriteFrame(nc, netproto.TypeQuery, q.Encode()); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := fr.Read(); err != nil || typ != netproto.TypeRowHeader {
				t.Fatalf("want RowHeader, got frame 0x%02x, %v", typ, err)
			}
			for i := 0; i < window; i++ {
				if typ, _, err := fr.Read(); err != nil || typ != netproto.TypeRow {
					t.Fatalf("row %d: frame 0x%02x, %v", i, typ, err)
				}
			}
			// The server is parked now: it sent the whole window and has
			// no credit for more.
			if err := netproto.WriteFrame(nc, tc.stop, nil); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := fr.Read()
			if err != nil {
				t.Fatal(err)
			}
			switch tc.stop {
			case netproto.TypeStreamClose:
				d, err := netproto.DecodeDone(payload)
				if typ != netproto.TypeDone || err != nil || !d.Aborted || d.Rows != window {
					t.Fatalf("want Done{Aborted, %d rows}, got frame 0x%02x %+v %v", window, typ, d, err)
				}
			case netproto.TypeCancel:
				m, err := netproto.DecodeError(payload)
				if typ != netproto.TypeError || err != nil || !errors.Is(m.DecodeWireError(), context.Canceled) {
					t.Fatalf("want a canceled Error frame, got frame 0x%02x %+v %v", typ, m, err)
				}
			}
			e := &netproto.Exec{Script: `SELECT x.K FROM x IN KV WHERE x.K = 1`}
			if err := netproto.WriteFrame(nc, netproto.TypeExec, e.Encode()); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := fr.Read(); err != nil || typ != netproto.TypeResults {
				t.Fatalf("next request: frame 0x%02x, %v", typ, err)
			}
			waitFor(t, "pins released", func() bool { return db.Pool().PinnedCount() == 0 })
		})
	}
}

// TestStreamAllocBudget counts the allocations of one streamed row of
// four attributes, server and client together: the server encodes it
// into its output buffer, the client decodes it into the stream's slab.
func TestStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, db := startServer(t, 0, Options{})
	if _, err := db.Exec(`CREATE TABLE R (A INT, B STRING, C INT, D STRING)`); err != nil {
		t.Fatal(err)
	}
	const n = 512
	for i := 0; i < n; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO R VALUES (%d, 'name %d', %d, 'function %d')`, 1000+i, i, 5000+i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, srv)
	ctx := context.Background()
	st, err := c.Prepare(ctx, `SELECT x.A, x.B, x.C, x.D FROM x IN R WHERE x.A < ?`)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(below int64, want int) func() {
		return func() {
			rows, err := st.Query(ctx, model.Int(below))
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for rows.Next() {
				got++
			}
			if err := rows.Err(); err != nil || got != want {
				t.Fatalf("%d rows, %v; want %d", got, err, want)
			}
			rows.Close()
		}
	}
	// The difference between a stream of every row and one of none is
	// what the rows cost; the statement's own allocations cancel.
	const runs = 50
	all := testing.AllocsPerRun(runs, stream(1000+n, n))
	none := testing.AllocsPerRun(runs, stream(1000, 0))
	perRow := (all - none) / n
	// Measured 1.4: the engine's projected tuple, and the client's slab
	// chunks spread over the rows they hold. The budget leaves a margin
	// of three.
	const budget = 4.4
	if perRow > budget {
		t.Errorf("a streamed row allocates %.2f times, budget %.1f", perRow, budget)
	} else {
		t.Logf("a streamed row allocates %.2f times (budget %.1f)", perRow, budget)
	}
}
