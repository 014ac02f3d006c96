package engine

import (
	"fmt"
	"testing"
)

// openNested opens a database with a one-row flat table ONE and a complex
// table BIG of n objects (K = 0..n-1, each with one subtable member).
func openNested(t *testing.T, n int) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE ONE (K INT)`)
	mustExec(t, db, `INSERT INTO ONE VALUES (1)`)
	mustExec(t, db, `CREATE TABLE BIG (K INT, S TABLE OF (V INT))`)
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO BIG VALUES (%d, {(%d)})`, i, i))
	}
	return db
}

// A quantifier over a stored table closes its cursor at the first
// deciding tuple: it decodes strictly less than a scan no tuple
// decides, and leaves nothing pinned.
func TestStoredQuantifierStopsEarly(t *testing.T) {
	db := openNested(t, 50)
	decoded := func(q string, wantRows int) uint64 {
		t.Helper()
		tbl, _, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if tbl.Len() != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, tbl.Len(), wantRows)
		}
		if got := db.pool.PinnedCount(); got != 0 {
			t.Fatalf("%s: %d pages left pinned", q, got)
		}
		return db.LastStmtStats().Decoded
	}
	full := decoded(`SELECT o.K FROM o IN ONE WHERE EXISTS b IN BIG: b.K < 0`, 0)
	for _, q := range []struct {
		sql  string
		rows int
	}{
		{`SELECT o.K FROM o IN ONE WHERE EXISTS b IN BIG: b.K >= 0`, 1}, // first tuple is a witness
		{`SELECT o.K FROM o IN ONE WHERE ALL b IN BIG: b.K < 0`, 0},     // first tuple is a counterexample
	} {
		if early := decoded(q.sql, q.rows); early >= full {
			t.Errorf("%s decoded %d subtuples, a full scan %d: no early stop", q.sql, early, full)
		}
	}
	if all := decoded(`SELECT o.K FROM o IN ONE WHERE ALL b IN BIG: b.K >= 0`, 1); all != full {
		t.Errorf("undecided ALL decoded %d subtuples, undecided EXISTS %d", all, full)
	}
}

// A stored-table quantifier inside a transaction reads what a FROM
// item reads: the begin snapshot, overlaid with the transaction's own
// buffered writes.
func TestStoredQuantifierSeesTxnSnapshotAndOverlay(t *testing.T) {
	db := openBank(t) // ACCOUNTS: (1,100), (2,200), versioned
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`INSERT INTO ACCOUNTS VALUES (7, 700)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE x FROM x IN ACCOUNTS WHERE x.ID = 2`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO ACCOUNTS VALUES (9, 900)`) // commits after tx's snapshot

	for id, want := range map[int]struct{ inTx, outside bool }{
		1: {true, true},
		2: {false, true},  // deleted in the transaction
		7: {true, false},  // inserted in the transaction
		9: {false, true},  // committed after the snapshot
		5: {false, false}, // never existed
	} {
		for _, side := range []struct {
			name string
			q    queryier
			want bool
		}{{"txn", tx, want.inTx}, {"outside", db, want.outside}} {
			quant, _, err := side.q.Query(fmt.Sprintf(
				`SELECT x.ID FROM x IN ACCOUNTS WHERE x.ID = 1 AND EXISTS y IN ACCOUNTS: y.ID = %d`, id))
			if err != nil {
				t.Fatal(err)
			}
			from, _, err := side.q.Query(fmt.Sprintf(`SELECT y.ID FROM y IN ACCOUNTS WHERE y.ID = %d`, id))
			if err != nil {
				t.Fatal(err)
			}
			if got := quant.Len() == 1; got != side.want || got != (from.Len() == 1) {
				t.Errorf("%s: EXISTS y.ID = %d is %v, FROM finds %d rows, want visible = %v",
					side.name, id, got, from.Len(), side.want)
			}
		}
	}
	if got := db.pool.PinnedCount(); got != 0 {
		t.Fatalf("%d pages left pinned", got)
	}
}

// An object deleted after the scan read its directory chunk is skipped
// (read-committed-per-row), not reported as an error and not returned.
func TestScanSkipsObjectDeletedMidScan(t *testing.T) {
	db := openNested(t, 50)
	rows, err := db.QueryRows(`SELECT b.K FROM b IN BIG`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := map[int64]bool{}
	victim := int64(40)
	for rows.Next() {
		var k int64
		if err := rows.Scan(&k); err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 {
			// The cursor now holds the chunk listing all 50 roots; remove
			// one it has not reached yet.
			if k == victim {
				victim++
			}
			mustExec(t, db, fmt.Sprintf(`DELETE b FROM b IN BIG WHERE b.K = %d`, victim))
		}
		seen[k] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("scan over a concurrently deleted object failed: %v", err)
	}
	if len(seen) != 49 || seen[victim] {
		t.Fatalf("scan returned %d rows (deleted K=%d among them: %v), want the 49 survivors",
			len(seen), victim, seen[victim])
	}
	if got := db.pool.PinnedCount(); got != 0 {
		t.Fatalf("%d pages left pinned", got)
	}
}

// A stored-table quantifier scans with the paths its condition touches,
// not with full tuples: it answers the same and decodes strictly fewer
// subtuples than the same statement under FullPaths.
func TestStoredQuantifierFetchesPruned(t *testing.T) {
	db := openNested(t, 50)
	const q = `SELECT o.K FROM o IN ONE WHERE ALL b IN BIG: b.K >= 0`
	run := func(full bool) uint64 {
		t.Helper()
		db.Executor().FullPaths = full
		defer func() { db.Executor().FullPaths = false }()
		tbl, _, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 {
			t.Fatalf("FullPaths=%v: %d rows, want 1", full, tbl.Len())
		}
		return db.LastStmtStats().Decoded
	}
	if pruned, full := run(false), run(true); pruned >= full {
		t.Errorf("quantifier over BIG decoded %d subtuples, full reads %d: no pruning", pruned, full)
	}
}

// A cursor abandoned in the middle of a complex table — the reader's
// window was full of the last object's pages a moment ago — holds no
// page.
func TestAbandonedObjectCursorHoldsNoPins(t *testing.T) {
	db := openNested(t, 50)
	rows, err := db.QueryRows(`SELECT b.K, S = (SELECT s.V FROM s IN b.S) FROM b IN BIG`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: %v", i, rows.Err())
		}
		if got := db.pool.PinnedCount(); got != 0 {
			t.Fatalf("%d pages pinned between Next calls", got)
		}
	}
	// rows is never closed.
}
