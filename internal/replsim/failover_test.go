package replsim

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

	"repro/aimnet"
	"repro/internal/doctor"
	"repro/internal/engine"
	"repro/internal/netserver"
)

// TestFailoverDrill promotes a follower after the primary dies: stop
// the primary, reopen the follower's directory read-write, and verify
// the promoted store is healthy (aimdoctor's verify pass) with every
// committed-and-shipped transaction intact — including ones the
// follower had only mirrored seconds before the primary stopped.
//
// Commits the primary accepted but never shipped are the documented
// lost-tail window: replication is asynchronous, so promotion recovers
// the shipped prefix, not the primary's final instants. The drill
// pins both sides of that line.
func TestFailoverDrill(t *testing.T) {
	leakCheck(t)
	rng := rand.New(rand.NewSource(0xFA11))
	primary, srv := startPrimary(t, engine.Options{})
	dir := t.TempDir()
	f := startFollower(t, srv.Addr(), dir)
	mutate(t, primary, rng, 60)
	if _, err := primary.Exec(`INSERT INTO KV VALUES (9001, 1)`); err != nil {
		t.Fatal(err)
	}
	catchUp(t, primary, f)
	shipped := dump(t, primary, 0)

	// The lost tail: committed on the primary after the follower's
	// stream is gone, never shipped.
	f.Stop()
	if _, err := primary.Exec(`INSERT INTO KV VALUES (9002, 1)`); err != nil {
		t.Fatal(err)
	}

	// Primary dies; follower closes its replica engine for promotion.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if err := primary.Close(); err != nil {
		t.Fatalf("primary close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("follower close: %v", err)
	}

	// The promoted directory must pass the doctor's verify scrub.
	rep, err := doctor.Verify(engine.Options{Dir: dir})
	if err != nil {
		t.Fatalf("doctor verify: %v", err)
	}
	if !rep.Healthy {
		t.Fatalf("promoted directory unhealthy: %+v", rep)
	}

	// Reopen read-write: ordinary recovery, indexes rebuilt, writes on.
	promoted, err := engine.Open(engine.Options{Dir: dir})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer promoted.Close()
	if got := dump(t, promoted, 0); got != shipped {
		t.Fatalf("promoted state != shipped state\n got:\n%s\nwant:\n%s", got, shipped)
	}
	tab, _, err := promoted.Query(`SELECT x.K FROM x IN KV WHERE x.K = 9002`)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Fatal("unshipped commit survived promotion; lost-tail window misdrawn")
	}
	if _, err := promoted.Exec(`INSERT INTO KV VALUES (9003, 1)`); err != nil {
		t.Fatalf("promoted engine refused a write: %v", err)
	}
	noPins(t, "promoted", promoted)
}

// TestReplicaCursorSnapshotStable opens a streaming cursor on a
// replica, lets replication apply new commits under it, and checks the
// cursor never sees them: replica cursors read at the visible
// timestamp sampled when they opened. The cursor opens after the first
// applied groups (so there is a horizon to pin), has no ORDER BY
// barrier (so it really streams), and the table spans several pages
// (so most of it is read after the world moved).
func TestReplicaCursorSnapshotStable(t *testing.T) {
	replicaCursorSnapshotStable(t, 7)
}

// TestReplicaCursorSnapshotStableGrowingUpdate is the same scenario
// with an UPDATE that grows every row past the room left on its page,
// so rows the cursor has yet to reach are relocated to later pages
// under it: the cursor must still return each row once, in its state
// at the horizon.
func TestReplicaCursorSnapshotStableGrowingUpdate(t *testing.T) {
	replicaCursorSnapshotStable(t, 7000000000000)
}

// replicaCursorSnapshotStable runs the scenario of the two tests above,
// setting V to newV in every row while the cursor is open.
func replicaCursorSnapshotStable(t *testing.T, newV int64) {
	leakCheck(t)
	primary, srv := startPrimary(t, engine.Options{})
	f := startFollower(t, srv.Addr(), t.TempDir())
	const n = 600
	for lo := 0; lo < n; lo += 100 {
		var b strings.Builder
		b.WriteString(`INSERT INTO KV VALUES `)
		for k := lo; k < lo+100; k++ {
			fmt.Fprintf(&b, "(%d, 0),", k)
		}
		if _, err := primary.Exec(strings.TrimSuffix(b.String(), ",")); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, primary, f)
	fdb := f.DB()
	if fdb.ReplCounters().VisibleTS.Load() == 0 {
		t.Fatal("replica has no visibility horizon after applying commit groups")
	}

	rows, err := fdb.QueryRows(`SELECT x.K, x.V FROM x IN KV`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := map[int64]bool{}
	pull := func() {
		var k, v int64
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		if v != 0 || k >= n || seen[k] {
			t.Fatalf("cursor row (K=%d, V=%d) is not the horizon's state", k, v)
		}
		seen[k] = true
	}
	if !rows.Next() { // one row before the world moves
		t.Fatalf("cursor died early: %v", rows.Err())
	}
	pull()

	// Groups that change every remaining row land and are applied while
	// the cursor is mid-stream.
	for _, q := range []string{
		fmt.Sprintf(`UPDATE x IN KV SET V = %d WHERE x.K >= 0`, newV),
		fmt.Sprintf(`DELETE x FROM x IN KV WHERE x.K >= %d`, n/2),
		`INSERT INTO KV VALUES (1000, 1), (1001, 1), (1002, 1)`,
	} {
		if _, err := primary.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, primary, f)

	for rows.Next() {
		pull()
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if len(seen) != n {
		t.Fatalf("snapshot cursor returned %d rows, want the %d at its horizon", len(seen), n)
	}

	// A fresh query sees the replicated world.
	tab, _, err := fdb.Query(`SELECT x.K FROM x IN KV WHERE x.V <> 0`)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != n/2+3 {
		t.Fatalf("fresh replica query sees %d changed rows, want %d", tab.Len(), n/2+3)
	}
	noPins(t, "replica", fdb)
}

// TestReplicaQuantifierReadsHorizon: a stored-table quantifier on a
// replica reads at the horizon its statement sampled, exactly like a
// FROM item. The cursor streams, so the quantifier of each later row is
// evaluated after newer commits have replicated; it must not see them.
func TestReplicaQuantifierReadsHorizon(t *testing.T) {
	leakCheck(t)
	primary, srv := startPrimary(t, engine.Options{})
	f := startFollower(t, srv.Addr(), t.TempDir())
	// The rows ship as commit groups (not inside the bootstrap snapshot),
	// so the replica has a visibility horizon to pin reads to.
	for i := 0; i < 20; i++ {
		if _, err := primary.Exec(fmt.Sprintf(`INSERT INTO KV VALUES (%d, 0)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, primary, f)
	fdb := f.DB()
	if fdb.ReplCounters().VisibleTS.Load() == 0 {
		t.Fatal("replica has no visibility horizon after applying commit groups")
	}

	const q = `SELECT x.K FROM x IN KV WHERE ALL y IN KV: y.K < 100`
	rows, err := fdb.QueryRows(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for ; n < 5; n++ { // drain a prefix before the world moves
		if !rows.Next() {
			t.Fatalf("cursor died early: %v", rows.Err())
		}
	}
	if _, err := primary.Exec(`INSERT INTO KV VALUES (100, 1)`); err != nil {
		t.Fatal(err)
	}
	catchUp(t, primary, f)
	for rows.Next() {
		n++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if n != 20 {
		t.Fatalf("cursor returned %d rows, want 20: its quantifier saw a post-open commit", n)
	}
	// A fresh statement samples the new horizon, where K=100 refutes ALL.
	tab, _, err := fdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Fatalf("fresh replica query returned %d rows, want 0", tab.Len())
	}
	noPins(t, "replica", fdb)
}

// TestReplicaReadsDuringApply runs follower point reads on a flat and
// an NF² VERSIONED table while the primary commits updates, inserts and
// member inserts that the follower applies underneath them. Applying a
// plain commit group takes no barrier, so the apply step must change a
// page only under its exclusive frame latch: a reader that saw a page
// half-rewritten would fail with "record not found" or corrupt-record
// errors, and quarantine objects that are healthy on the primary.
func TestReplicaReadsDuringApply(t *testing.T) {
	leakCheck(t)
	primary, srv := startPrimary(t, engine.Options{})
	const keys, objects, writers, readers, steps = 64, 16, 2, 2, 150
	exec := func(q string) error {
		_, err := primary.Exec(q)
		return err
	}
	if err := exec(`CREATE TABLE D (K INT, NOTE STRING, S TABLE OF (V INT, W STRING)) VERSIONED`); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		if err := exec(fmt.Sprintf(`INSERT INTO KV VALUES (%d, 0)`, k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < objects; k++ {
		if err := exec(fmt.Sprintf(`INSERT INTO D VALUES (%d, 'n', {(1, 'a'), (2, 'b')})`, k)); err != nil {
			t.Fatal(err)
		}
	}
	f := startFollower(t, srv.Addr(), t.TempDir())
	catchUp(t, primary, f)
	fdb := f.DB()

	var writes, reads sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			for i := 0; i < steps; i++ {
				n := w*steps + i
				for _, q := range []string{
					fmt.Sprintf(`UPDATE x IN KV SET V = %d WHERE x.K = %d`, n, n%keys),
					fmt.Sprintf(`INSERT INTO KV VALUES (%d, %d)`, keys+n, n),
					fmt.Sprintf(`UPDATE x IN D SET NOTE = 'note %d' WHERE x.K = %d`, n, n%objects),
					fmt.Sprintf(`INSERT INTO x.S FROM x IN D WHERE x.K = %d VALUES (%d, 'grown')`, n%objects, 100+n),
				} {
					if err := exec(q); err != nil {
						t.Errorf("primary %q: %v", q, err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readCount atomic.Int64
	var readErr atomic.Pointer[error]
	for r := 0; r < readers; r++ {
		reads.Add(1)
		go func(r int) {
			defer reads.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := fmt.Sprintf(`SELECT x.V FROM x IN KV WHERE x.K = %d`, i%keys)
				if i%2 == 1 {
					q = fmt.Sprintf(`SELECT x.NOTE, S = (SELECT y.V, y.W FROM y IN x.S) FROM x IN D WHERE x.K = %d`, i%objects)
				}
				if _, _, err := fdb.Query(q); err != nil {
					err = fmt.Errorf("follower %q: %w", q, err)
					readErr.CompareAndSwap(nil, &err)
					return
				}
				readCount.Add(1)
			}
		}(r)
	}
	writes.Wait()
	close(done)
	reads.Wait()
	if p := readErr.Load(); p != nil {
		t.Fatal(*p)
	}
	if readCount.Load() == 0 {
		t.Fatal("follower readers made no reads while the primary wrote")
	}
	if q := fdb.Quarantined(); len(q) != 0 {
		t.Fatalf("follower quarantined %d objects, first: %v", len(q), q[0])
	}
	catchUp(t, primary, f)
	f.Stop()
	compareFrozen(t, "after concurrent reads", primary, fdb)
	noPins(t, "replica", fdb)
}

// TestReplicaRefusesWrites pins the typed error: every write path on a
// replica — DML, DDL, transactions, in process and across the wire —
// fails with ErrReadOnlyReplica and nothing else.
func TestReplicaRefusesWrites(t *testing.T) {
	leakCheck(t)
	primary, srv := startPrimary(t, engine.Options{})
	if _, err := primary.Exec(`INSERT INTO KV VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, srv.Addr(), t.TempDir())
	catchUp(t, primary, f)
	fdb := f.DB()

	for _, q := range []string{
		`INSERT INTO KV VALUES (2, 20)`,
		`UPDATE x IN KV SET V = 0 WHERE x.K = 1`,
		`DELETE x FROM x IN KV WHERE x.K = 1`,
		`CREATE TABLE T2 (A INT)`,
		`DROP TABLE KV`,
		`BEGIN`,
	} {
		_, err := fdb.Exec(q)
		if !errors.Is(err, engine.ErrReadOnlyReplica) {
			t.Fatalf("%s on replica: got %v, want ErrReadOnlyReplica", q, err)
		}
	}
	if _, err := fdb.Begin(); !errors.Is(err, engine.ErrReadOnlyReplica) {
		t.Fatalf("Begin on replica: got %v, want ErrReadOnlyReplica", err)
	}

	// Reads are fine, including ASOF at the visible horizon.
	ts := fdb.ReplCounters().VisibleTS.Load()
	if _, _, err := fdb.Query(fmt.Sprintf(`SELECT x.K FROM x IN KV ASOF %d`, ts)); err != nil {
		t.Fatalf("ASOF read on replica: %v", err)
	}

	// Across the wire: serve the replica and check the error
	// round-trips the protocol as the same sentinel.
	rsrv := netserver.New(fdb, netserver.Options{})
	if err := rsrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rsrv.Shutdown(ctx)
	}()
	conn, err := aimnet.Dial(rsrv.Addr(), aimnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	if _, err := conn.Exec(ctx, `INSERT INTO KV VALUES (3, 30)`); !errors.Is(err, engine.ErrReadOnlyReplica) {
		t.Fatalf("network write to replica: got %v, want ErrReadOnlyReplica", err)
	}
	rows, err := conn.Query(ctx, `SELECT x.K, x.V FROM x IN KV ORDER BY x.K`)
	if err != nil {
		t.Fatalf("network read from replica: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != 1 {
		t.Fatalf("network read from replica returned %d rows, want 1", n)
	}
	noPins(t, "replica", fdb)
}
