package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// openKV creates a database with a small table and enough rows to keep
// a cursor busy.
func openKV(t *testing.T, rows int) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE KV (K INT, V INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO KV VALUES (` + itoa(i) + `, ` + itoa(i*10) + `)`); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestRowsConcurrentCloseDuringNext is the double-teardown regression:
// session teardown, context cancellation and drain can all fire Close
// on one Rows concurrently with the iterating goroutine. Exactly one
// teardown must run, Close must be idempotent, and no buffer pages may
// stay pinned on any interleaving.
func TestRowsConcurrentCloseDuringNext(t *testing.T) {
	db := openKV(t, 200)
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.QueryRowsContext(ctx, `SELECT x.K, x.V FROM x IN KV`)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		// The iterator.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rows.Next() {
			}
		}()
		// Three concurrent teardown paths: cancellation, session
		// teardown, drain.
		wg.Add(3)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); rows.Close() }()
		go func() { defer wg.Done(); rows.Close() }()
		wg.Wait()
		rows.Close() // and once more after everything settled
		if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: unexpected iteration error: %v", round, err)
		}
		if n := db.Pool().PinnedCount(); n != 0 {
			t.Fatalf("round %d: %d pages still pinned after teardown", round, n)
		}
		cancel()
	}
}

// TestRowsCloseIdempotentAfterExhaustion: a cursor that closed itself
// at end-of-result must tolerate any number of further Closes.
func TestRowsCloseIdempotentAfterExhaustion(t *testing.T) {
	db := openKV(t, 5)
	rows, err := db.QueryRows(`SELECT x.K FROM x IN KV`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n != 5 {
		t.Fatalf("got %d rows, want 5", n)
	}
	for i := 0; i < 3; i++ {
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if rows.Next() {
		t.Fatal("Next returned true after Close")
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages still pinned", n)
	}
}

// TestNetCountersMonotonic hammers the counter block from many
// goroutines and asserts the monotonicity contract under -race: totals
// only grow, gauges never go negative, and the peak tracks the gauge.
func TestNetCountersMonotonic(t *testing.T) {
	db := openKV(t, 1)
	ctr := db.NetCounters()
	if ctr != db.NetCounters() {
		t.Fatal("NetCounters not stable across calls")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctr.NoteSessionOpen()
				ctr.StmtsTotal.Add(1)
				ctr.StmtsInFlight.Add(1)
				ctr.BytesIn.Add(17)
				ctr.BytesOut.Add(23)
				ctr.RowsStreamed.Add(3)
				ctr.Writes.Add(1)
				ctr.StmtsInFlight.Add(-1)
				ctr.SessionsOpen.Add(-1)
			}
		}()
	}
	var last NetStats
	for i := 0; i < 2000; i++ {
		s := db.NetStats()
		if s.SessionsTotal < last.SessionsTotal || s.StmtsTotal < last.StmtsTotal ||
			s.BytesIn < last.BytesIn || s.BytesOut < last.BytesOut ||
			s.RowsStreamed < last.RowsStreamed || s.Writes < last.Writes ||
			s.SessionsPeak < last.SessionsPeak {
			t.Fatalf("counter went backwards: %+v -> %+v", last, s)
		}
		if s.SessionsOpen < 0 || s.StmtsInFlight < 0 || s.QueueDepth < 0 {
			t.Fatalf("gauge went negative: %+v", s)
		}
		if s.SessionsPeak < s.SessionsOpen {
			t.Fatalf("peak %d below gauge %d", s.SessionsPeak, s.SessionsOpen)
		}
		last = s
	}
	close(stop)
	wg.Wait()
}
