package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// openBank opens an in-memory database (deterministic clock) with a
// small versioned flat table for the isolation-anomaly tests:
// ACCOUNTS(ID INT, BAL INT) with rows (1,100) and (2,200).
func openBank(t testing.TB) *DB {
	t.Helper()
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE ACCOUNTS (ID INT, BAL INT) VERSIONED`)
	mustExec(t, db, `INSERT INTO ACCOUNTS VALUES (1, 100), (2, 200)`)
	return db
}

func mustExec(t testing.TB, db *DB, script string) {
	t.Helper()
	if _, err := db.Exec(script); err != nil {
		t.Fatalf("exec %q: %v", script, err)
	}
}

// queryier is the common read surface of *DB and *Txn.
type queryier interface {
	Query(q string) (*model.Table, *model.TableType, error)
}

// balance reads the balance of one account through q (a *DB or a
// *Txn), failing the test if the account is missing or duplicated.
func balance(t testing.TB, q queryier, id int) int64 {
	t.Helper()
	tbl, _, err := q.Query(fmt.Sprintf(`SELECT x.BAL FROM x IN ACCOUNTS WHERE x.ID = %d`, id))
	if err != nil {
		t.Fatalf("balance(%d): %v", id, err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("balance(%d): %d rows, want 1", id, tbl.Len())
	}
	return int64(tbl.Tuples[0][0].(model.Int))
}

// balances reads all (ID, BAL) pairs in ID order.
func balances(t testing.TB, q queryier) map[int64]int64 {
	t.Helper()
	tbl, _, err := q.Query(`SELECT x.ID, x.BAL FROM x IN ACCOUNTS`)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]int64, tbl.Len())
	for _, tup := range tbl.Tuples {
		out[int64(tup[0].(model.Int))] = int64(tup[1].(model.Int))
	}
	return out
}

// TestTxnDirtyRead: uncommitted writes are invisible to every other
// reader — plain statements, and transactions begun before or after
// the write — until COMMIT publishes them atomically.
func TestTxnDirtyRead(t *testing.T) {
	db := openBank(t)

	before, err := db.Begin() // snapshot taken before the writer even starts
	if err != nil {
		t.Fatal(err)
	}
	defer before.Rollback()

	writer, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(`UPDATE x IN ACCOUNTS SET BAL = 999 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	// The writer sees its own write...
	if got := balance(t, writer, 1); got != 999 {
		t.Errorf("writer reads own write: BAL = %d, want 999", got)
	}
	// ...but nobody else does.
	if got := balance(t, db, 1); got != 100 {
		t.Errorf("dirty read through auto-commit statement: BAL = %d, want 100", got)
	}
	if got := balance(t, before, 1); got != 100 {
		t.Errorf("dirty read in pre-existing transaction: BAL = %d, want 100", got)
	}
	after, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Rollback()
	if got := balance(t, after, 1); got != 100 {
		t.Errorf("dirty read in transaction begun mid-write: BAL = %d, want 100", got)
	}

	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit publishes to new readers; old snapshots stay put.
	if got := balance(t, db, 1); got != 999 {
		t.Errorf("after commit: BAL = %d, want 999", got)
	}
	if got := balance(t, before, 1); got != 100 {
		t.Errorf("snapshot moved under pre-existing transaction: BAL = %d, want 100", got)
	}
	if got := balance(t, after, 1); got != 100 {
		t.Errorf("snapshot moved under mid-write transaction: BAL = %d, want 100", got)
	}
}

// TestTxnNonRepeatableRead: a transaction re-reading a value it has
// already read gets the same answer even after a concurrent
// transaction commits a new version of it.
func TestTxnNonRepeatableRead(t *testing.T) {
	db := openBank(t)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	first := balance(t, tx, 2)

	other, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Exec(`UPDATE x IN ACCOUNTS SET BAL = 250 WHERE x.ID = 2`); err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}

	if again := balance(t, tx, 2); again != first {
		t.Errorf("non-repeatable read: first %d, then %d", first, again)
	}
	// Phantom flavor: the row count is stable too, even after a
	// committed concurrent INSERT.
	ins, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(`INSERT INTO ACCOUNTS VALUES (3, 300)`); err != nil {
		t.Fatal(err)
	}
	if err := ins.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balances(t, tx); len(got) != 2 {
		t.Errorf("phantom: transaction sees %d accounts, want 2", len(got))
	}
	if got := balances(t, db); len(got) != 3 {
		t.Errorf("committed insert lost: %d accounts, want 3", len(got))
	}
}

// TestTxnLostUpdate: first-writer-wins. A write to an object another
// active transaction has already written fails immediately with
// ErrWriteConflict; so does a write to an object a transaction
// committed after this transaction's snapshot. No update is silently
// overwritten.
func TestTxnLostUpdate(t *testing.T) {
	db := openBank(t)

	// Concurrent-writer variant: t2 hits t1's write lock.
	t1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Exec(`UPDATE x IN ACCOUNTS SET BAL = 110 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	_, err = t2.Exec(`UPDATE x IN ACCOUNTS SET BAL = 120 WHERE x.ID = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("concurrent write to locked object: err = %v, want ErrWriteConflict", err)
	}
	// The failed statement rolled back by itself; t2 stays usable on
	// other objects.
	if _, err := t2.Exec(`UPDATE x IN ACCOUNTS SET BAL = 220 WHERE x.ID = 2`); err != nil {
		t.Fatalf("t2 after conflict on another object: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, db, 1); got != 110 {
		t.Errorf("BAL(1) = %d, want 110 (t1's write)", got)
	}
	if got := balance(t, db, 2); got != 220 {
		t.Errorf("BAL(2) = %d, want 220 (t2's write)", got)
	}

	// Committed-after-snapshot variant: t3's snapshot predates t4's
	// commit, so t3's later write to the same object must fail even
	// though the lock is free again.
	t3, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer t3.Rollback()
	t4, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t4.Exec(`UPDATE x IN ACCOUNTS SET BAL = 130 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err = t3.Exec(`UPDATE x IN ACCOUNTS SET BAL = 140 WHERE x.ID = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("write after a conflicting commit: err = %v, want ErrWriteConflict", err)
	}
	if got := balance(t, db, 1); got != 130 {
		t.Errorf("BAL(1) = %d, want 130 (no lost update)", got)
	}
}

// TestTxnLostUpdateRelocatedRow: a row an earlier growing UPDATE
// relocated off its full page is written by full scan both from a
// transaction (whose scan reads the snapshot through an ASOF cursor)
// and from an auto-commit statement (a current-state cursor). Both
// cursors must name the row by the same TID, or neither the write lock
// nor the last-write stamp sees the other write and one update is lost.
func TestTxnLostUpdateRelocatedRow(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE ACCOUNTS (ID INT, BAL INT, NOTE STRING) VERSIONED`)
	fs, ok := db.FlatStore("ACCOUNTS")
	if !ok {
		t.Fatal("no flat store for ACCOUNTS")
	}
	// Fill the first page, so growing row 1 relocates it.
	for id := 1; fs.Subtuples().PageCount() < 2; id++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO ACCOUNTS VALUES (%d, 100, '')`, id))
	}
	mustExec(t, db, fmt.Sprintf(`UPDATE x IN ACCOUNTS SET NOTE = '%s' WHERE x.ID = 1`, strings.Repeat("n", 2000)))

	// update writes row 1 by full scan (the table has no index) through
	// a *DB or a *Txn.
	update := func(q interface {
		Exec(string) ([]Result, error)
	}, bal int) error {
		_, err := q.Exec(fmt.Sprintf(`UPDATE x IN ACCOUNTS SET BAL = %d WHERE x.ID = 1`, bal))
		return err
	}

	// The transaction writes first: the auto-commit statement meets its
	// write lock.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := update(tx, 110); err != nil {
		t.Fatal(err)
	}
	if err := update(db, 120); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("auto-commit write to the row a transaction holds: err = %v, want ErrWriteConflict", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, db, 1); got != 110 {
		t.Errorf("BAL(1) = %d, want 110 (the transaction's write)", got)
	}

	// The auto-commit statement writes after the transaction's snapshot:
	// the transaction's write meets its last-write stamp.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := update(db, 130); err != nil {
		t.Fatal(err)
	}
	if err := update(tx, 140); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("transaction's write after a conflicting auto-commit: err = %v, want ErrWriteConflict", err)
	}
	if got := balance(t, db, 1); got != 130 {
		t.Errorf("BAL(1) = %d, want 130 (no lost update)", got)
	}
}

// TestTxnReadYourOwnWrites: inserts, updates and deletes buffered by a
// transaction are visible to its own queries — and vanish without a
// trace on rollback.
func TestTxnReadYourOwnWrites(t *testing.T) {
	db := openBank(t)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO ACCOUNTS VALUES (7, 700)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE x IN ACCOUNTS SET BAL = 101 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE x FROM x IN ACCOUNTS WHERE x.ID = 2`); err != nil {
		t.Fatal(err)
	}
	got := balances(t, tx)
	want := map[int64]int64{1: 101, 7: 700}
	if len(got) != len(want) || got[1] != want[1] || got[7] != want[7] {
		t.Errorf("transaction's own view = %v, want %v", got, want)
	}
	// A buffered insert can be updated and deleted again in-place.
	if _, err := tx.Exec(`UPDATE x IN ACCOUNTS SET BAL = 777 WHERE x.ID = 7`); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, tx, 7); got != 777 {
		t.Errorf("update of own insert: BAL = %d, want 777", got)
	}

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	got = balances(t, db)
	if len(got) != 2 || got[1] != 100 || got[2] != 200 {
		t.Errorf("after rollback = %v, want the untouched {1:100 2:200}", got)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("second rollback: err = %v, want ErrTxnDone", err)
	}
	if _, err := tx.Exec(`INSERT INTO ACCOUNTS VALUES (8, 800)`); !errors.Is(err, ErrTxnDone) {
		t.Errorf("exec after rollback: err = %v, want ErrTxnDone", err)
	}
}

// TestTxnSnapshotStableASOF: explicit ASOF reads are historical and
// pin their own timestamp — inside a transaction they bypass both the
// snapshot and the transaction's buffered writes, and they keep
// returning the same rows while concurrent writers commit.
func TestTxnSnapshotStableASOF(t *testing.T) {
	db := openBank(t)
	t0 := db.Now() // after the seed inserts

	// Commit a change, snapshot a reader, commit another change.
	w1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Exec(`UPDATE x IN ACCOUNTS SET BAL = 111 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := db.Now()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`UPDATE x IN ACCOUNTS SET BAL = -1 WHERE x.ID = 2`); err != nil {
		t.Fatal(err)
	}

	w2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Exec(`UPDATE x IN ACCOUNTS SET BAL = 122 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	asof := func(q queryier, ts int64) int64 {
		t.Helper()
		tbl, _, err := q.Query(fmt.Sprintf(`SELECT x.BAL FROM x IN ACCOUNTS ASOF %d WHERE x.ID = 1`, ts))
		if err != nil {
			t.Fatalf("ASOF %d: %v", ts, err)
		}
		if tbl.Len() != 1 {
			t.Fatalf("ASOF %d: %d rows, want 1", ts, tbl.Len())
		}
		return int64(tbl.Tuples[0][0].(model.Int))
	}
	// Historical reads agree whether issued inside or outside the
	// transaction, at every pinned point in time.
	for _, q := range []queryier{db, tx} {
		if got := asof(q, t0); got != 100 {
			t.Errorf("ASOF t0: BAL = %d, want 100", got)
		}
		if got := asof(q, t1); got != 111 {
			t.Errorf("ASOF t1: BAL = %d, want 111", got)
		}
	}
	// The transaction's snapshot read of ID=1 still predates both its
	// own snapshot-invisible future and w2's commit.
	if got := balance(t, tx, 1); got != 111 {
		t.Errorf("snapshot read during concurrent commits: BAL = %d, want 111", got)
	}
	// ASOF inside the transaction does not see the transaction's own
	// buffered (uncommitted) write either: it is a historical read.
	tbl, _, err := tx.Query(fmt.Sprintf(`SELECT x.BAL FROM x IN ACCOUNTS ASOF %d WHERE x.ID = 2`, t1))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || int64(tbl.Tuples[0][0].(model.Int)) != 200 {
		t.Errorf("ASOF sees buffered write: %v, want [200]", tbl.Tuples)
	}
}

// TestTxnDDLRejected: schema changes are auto-commit only.
func TestTxnDDLRejected(t *testing.T) {
	db := openBank(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`CREATE TABLE T2 (A INT)`); !errors.Is(err, ErrTxnDDL) {
		t.Errorf("CREATE TABLE in txn: err = %v, want ErrTxnDDL", err)
	}
	if _, err := tx.Exec(`DROP TABLE ACCOUNTS`); !errors.Is(err, ErrTxnDDL) {
		t.Errorf("DROP TABLE in txn: err = %v, want ErrTxnDDL", err)
	}
}

// TestTxnHierarchicalWrites: the buffered-write machinery covers the
// NF² surface too — subtable member inserts/deletes and atom updates
// inside a complex versioned object, with read-your-own-writes on the
// nested view and snapshot isolation for everyone else.
func TestTxnHierarchicalWrites(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE DEPTS (DNO INT, PROJECTS TABLE OF (PNO INT, PNAME STRING)) VERSIONED`)
	mustExec(t, db, `INSERT INTO DEPTS VALUES (1, {(10, 'alpha')})`)

	count := func(q queryier) int {
		t.Helper()
		tbl, _, err := q.Query(`SELECT x.DNO, y.PNO FROM x IN DEPTS, y IN x.PROJECTS`)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Len()
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO x.PROJECTS FROM x IN DEPTS WHERE x.DNO = 1 VALUES (11, 'beta')`); err != nil {
		t.Fatal(err)
	}
	if got := count(tx); got != 2 {
		t.Errorf("member insert invisible to own transaction: %d members, want 2", got)
	}
	if got := count(db); got != 1 {
		t.Errorf("member insert leaked before commit: %d members, want 1", got)
	}
	if _, err := tx.Exec(`UPDATE y FROM x IN DEPTS, y IN x.PROJECTS SET PNAME = 'gamma' WHERE y.PNO = 10`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _, err := db.Query(`SELECT y.PNAME FROM x IN DEPTS, y IN x.PROJECTS WHERE y.PNO = 10`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || string(tbl.Tuples[0][0].(model.Str)) != "gamma" {
		t.Errorf("nested atom update lost: %v, want [gamma]", tbl.Tuples)
	}
	if got := count(db); got != 2 {
		t.Errorf("after commit: %d members, want 2", got)
	}
}

// TestAutoCommitWriteConflict: auto-commit statements are first-class
// participants in first-writer-wins conflict detection. An auto-commit
// write to an object a transaction holds the write lock on fails with
// ErrWriteConflict, and an auto-commit commit stamps the object's
// last-write timestamp so an older-snapshot transaction writing it
// afterwards conflicts too.
func TestAutoCommitWriteConflict(t *testing.T) {
	db := openBank(t)

	// Lock-held variant: t1's buffered write blocks the auto-commit.
	t1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Exec(`UPDATE x IN ACCOUNTS SET BAL = 110 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`UPDATE x IN ACCOUNTS SET BAL = 120 WHERE x.ID = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("auto-commit write to locked object: err = %v, want ErrWriteConflict", err)
	}
	// The failed statement rolled back; the database stays usable and
	// other objects stay writable.
	if _, err := db.Exec(`UPDATE x IN ACCOUNTS SET BAL = 220 WHERE x.ID = 2`); err != nil {
		t.Fatalf("auto-commit on another object after conflict: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, db, 1); got != 110 {
		t.Errorf("BAL(1) = %d, want 110 (t1's write, auto-commit rolled back)", got)
	}
	if got := balance(t, db, 2); got != 220 {
		t.Errorf("BAL(2) = %d, want 220", got)
	}

	// Committed-after-snapshot variant: the auto-commit stamps the
	// object's last write, so t2 (whose snapshot predates it) must not
	// silently overwrite it even though no lock is held anymore.
	t2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Rollback()
	if _, err := db.Exec(`UPDATE x IN ACCOUNTS SET BAL = 130 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	_, err = t2.Exec(`UPDATE x IN ACCOUNTS SET BAL = 140 WHERE x.ID = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("txn write after conflicting auto-commit: err = %v, want ErrWriteConflict", err)
	}
	if got := balance(t, db, 1); got != 130 {
		t.Errorf("BAL(1) = %d, want 130 (no lost update)", got)
	}
}

// TestTxnUnversionedCurrentCommitted pins the documented semantics of
// reading an unversioned table inside a transaction: no history is
// kept, so the read sees the current committed state — later commits
// by others become visible mid-transaction — but never another
// transaction's uncommitted writes.
func TestTxnUnversionedCurrentCommitted(t *testing.T) {
	db := openBank(t)
	mustExec(t, db, `CREATE TABLE PLAIN (ID INT, V INT)`)
	mustExec(t, db, `INSERT INTO PLAIN VALUES (1, 10)`)

	readV := func(q queryier) int64 {
		t.Helper()
		tbl, _, err := q.Query(`SELECT x.V FROM x IN PLAIN WHERE x.ID = 1`)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 {
			t.Fatalf("PLAIN id 1: %d rows, want 1", tbl.Len())
		}
		return int64(tbl.Tuples[0][0].(model.Int))
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if got := readV(tx); got != 10 {
		t.Fatalf("initial read: V = %d, want 10", got)
	}

	// A committed auto-commit update is visible to the open
	// transaction: unversioned tables read current-committed, not the
	// snapshot.
	mustExec(t, db, `UPDATE x IN PLAIN SET V = 20 WHERE x.ID = 1`)
	if got := readV(tx); got != 20 {
		t.Errorf("after concurrent commit: V = %d, want 20 (current committed)", got)
	}

	// Another transaction's uncommitted write stays invisible.
	t2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec(`UPDATE x IN PLAIN SET V = 30 WHERE x.ID = 1`); err != nil {
		t.Fatal(err)
	}
	if got := readV(tx); got != 20 {
		t.Errorf("dirty read of unversioned table: V = %d, want 20", got)
	}
	if err := t2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := readV(tx); got != 20 {
		t.Errorf("after rollback: V = %d, want 20", got)
	}

	// Versioned tables in the same transaction still read the
	// snapshot: the bank balances predate the transaction, so a
	// concurrent auto-commit update stays invisible.
	mustExec(t, db, `UPDATE x IN ACCOUNTS SET BAL = 150 WHERE x.ID = 1`)
	if got := balance(t, tx, 1); got != 100 {
		t.Errorf("versioned read inside txn: BAL(1) = %d, want 100 (snapshot)", got)
	}
	if got := balance(t, db, 1); got != 150 {
		t.Errorf("versioned read outside txn: BAL(1) = %d, want 150", got)
	}
}

// A failed statement late in a long transaction restores exactly its
// own keys: the thousand earlier writes stay as they were, and the
// statement's partial effects — an overwritten earlier write, a first
// write to a stored row, a fresh insert — are undone.
func TestTxnStmtRollbackRestoresOwnKeys(t *testing.T) {
	db := openPathDB(t)
	blocker, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Rollback()
	if _, err := blocker.Exec(`UPDATE x IN T SET B = 'held' WHERE x.A = 3`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for i := 0; i < 999; i++ {
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, 'w')`, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Exec(`UPDATE x IN T SET B = 'kept' WHERE x.A = 1`); err != nil {
		t.Fatal(err)
	}
	image := func() []string {
		tbl, _, err := tx.Query(`SELECT x.A, x.B FROM x IN T`)
		if err != nil {
			t.Fatal(err)
		}
		return sortedRows(tbl)
	}
	before := image()
	pending, order, writes := len(tx.pending), len(tx.order), len(tx.writes)
	if pending != 1000 {
		t.Fatalf("%d buffered writes, want 1000", pending)
	}
	// Overwrites row 1's buffered image, writes row 2 for the first
	// time, then hits the blocker's lock on row 3.
	if _, err := tx.Exec(`UPDATE x IN T SET B = 'lost'`); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("update across a held row: %v, want ErrWriteConflict", err)
	}
	// Buffers its first tuple, then fails on the second.
	if _, err := tx.Exec(`INSERT INTO T VALUES (5000, 'lost'), ('bad', 'y')`); err == nil {
		t.Fatal("ill-typed insert succeeded")
	}
	if len(tx.pending) != pending || len(tx.order) != order || len(tx.writes) != writes {
		t.Errorf("buffer after the failed statements: %d pending, %d order, %d writes; want %d, %d, %d",
			len(tx.pending), len(tx.order), len(tx.writes), pending, order, writes)
	}
	if after := image(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("the failed statements changed the transaction's image (%d rows before, %d after)", len(before), len(after))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _, err := db.Query(`SELECT x.B FROM x IN T WHERE x.A <= 2 OR x.A = 5000`)
	if got := fmt.Sprint(sortedRows(tbl)); err != nil || got != `[("b") ("kept")]` {
		t.Errorf("committed rows 1, 2, 5000 = %s, %v", got, err)
	}
}

// TestTxnIndexedReadDuringWriterWindow: a transaction's indexed read
// takes no lock a writer holds. With snapMu held exclusively, as an
// auto-commit writer holds it from its first page write to its commit
// record, an indexed SELECT in a transaction — its snapshot on a
// versioned table, the current state on an unversioned one, its own
// buffered key change either way — completes, by index, and returns
// what the same read by scan returns.
func TestTxnIndexedReadDuringWriterWindow(t *testing.T) {
	for _, versioned := range []string{" VERSIONED", ""} {
		t.Run(fmt.Sprintf("versioned=%v", versioned != ""), func(t *testing.T) {
			db := openBank(t)
			mustExec(t, db, `CREATE TABLE T (K INT, W INT)`+versioned+`;
				CREATE INDEX TK ON T (K);
				INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)`)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback()
			if _, err := tx.Exec(`UPDATE x IN T SET K = 5 WHERE x.K = 1`); err != nil {
				t.Fatal(err)
			}
			type read struct {
				indexed, scanned, explain string
				err                       error
			}
			done := make(chan read, 1)
			db.snapMu.Lock()
			go func() {
				var r read
				for _, q := range []struct {
					text string
					out  *string
				}{
					{`SELECT x.K, x.W FROM x IN T WHERE x.K >= 2 OR x.K >= 2`, &r.scanned},
					{`SELECT x.K, x.W FROM x IN T WHERE x.K >= 2`, &r.indexed},
				} {
					tbl, _, err := tx.Query(q.text)
					if err != nil {
						r.err = err
						break
					}
					*q.out = fmt.Sprint(sortedRows(tbl))
				}
				if r.err == nil {
					var res []Result
					res, r.err = tx.Exec(`EXPLAIN SELECT x.K, x.W FROM x IN T WHERE x.K >= 2`)
					if r.err == nil {
						r.explain = res[0].Message
					}
				}
				done <- r
			}()
			var r read
			select {
			case r = <-done:
				db.snapMu.Unlock()
			case <-time.After(5 * time.Second):
				db.snapMu.Unlock()
				r = <-done
				t.Errorf("a transaction's indexed SELECT waited for snapMu, which a writer holds")
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			want := "[(2, 20) (3, 30) (5, 10)]"
			if r.indexed != want || r.scanned != want {
				t.Errorf("indexed %s, scanned %s; want %s", r.indexed, r.scanned, want)
			}
			if !strings.Contains(r.explain, "index TK(K) >= 2 (range) ∪ this transaction's writes") {
				t.Errorf("the read was not answered by the index and the transaction's writes:\n%s", r.explain)
			}
		})
	}
}
