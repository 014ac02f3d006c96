package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/wal"
)

// togglableWAL is an in-memory wal.File whose Write/Sync/Truncate can
// be made to fail on demand; the abort tests use it to fail a
// statement at precise points of its I/O sequence. The data survives
// the engine handle, so tests can "reopen" the same database.
type togglableWAL struct {
	data         []byte
	failWrite    int
	failSync     int
	failTruncate int
	closed       bool
}

var errToggled = errors.New("togglableWAL: injected fault")

func (f *togglableWAL) Write(p []byte) (int, error) {
	if f.failWrite > 0 {
		f.failWrite--
		return 0, errToggled
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *togglableWAL) Sync() error {
	if f.failSync > 0 {
		f.failSync--
		return errToggled
	}
	return nil
}

func (f *togglableWAL) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *togglableWAL) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		return offset, nil
	case io.SeekEnd:
		return int64(len(f.data)) + offset, nil
	}
	return 0, fmt.Errorf("togglableWAL: unsupported whence %d", whence)
}

func (f *togglableWAL) Truncate(size int64) error {
	if f.failTruncate > 0 {
		f.failTruncate--
		return errToggled
	}
	if size < int64(len(f.data)) {
		f.data = f.data[:size]
	}
	return nil
}

func (f *togglableWAL) Close() error { f.closed = true; return nil }

// oneLog is a wal.Storage holding a single wal.log that outlives the
// engine handle. The tests stay far below the default segment size,
// so the log never rolls to a second file.
type oneLog struct{ f wal.File }

func (s oneLog) Open(name string) (wal.File, error) {
	if name != "wal.log" {
		return nil, fmt.Errorf("oneLog: no segment %q", name)
	}
	return s.f, nil
}

func (s oneLog) Remove(name string) error { return fmt.Errorf("oneLog: cannot remove %q", name) }
func (s oneLog) List() ([]string, error)  { return []string{"wal.log"}, nil }

// faultDB is a WAL-backed in-memory database whose backing state
// outlives the engine handle.
type faultDB struct {
	walFile *togglableWAL
	stores  map[segment.ID]*segment.MemStore
}

func (fd *faultDB) open(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{
		OpenStore: func(id segment.ID) (segment.Store, error) {
			st := fd.stores[id]
			if st == nil {
				st = segment.NewMemStore()
				fd.stores[id] = st
			}
			return st, nil
		},
		OpenWALStorage: func() (wal.Storage, error) { return oneLog{fd.walFile}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func openFaultDB(t *testing.T) (*DB, *faultDB) {
	t.Helper()
	fd := &faultDB{walFile: &togglableWAL{}, stores: make(map[segment.ID]*segment.MemStore)}
	db := fd.open(t)
	if _, err := db.Exec(`CREATE TABLE EMP (ENO INT, NAME STRING, SAL INT);
		INSERT INTO EMP VALUES (1, 'A', 100);
		INSERT INTO EMP VALUES (2, 'B', 200)`); err != nil {
		t.Fatal(err)
	}
	return db, fd
}

func rowCount(t *testing.T, db *DB, table string) int {
	t.Helper()
	tbl, _, err := db.Query(`SELECT x.ENO FROM x IN ` + table)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return tbl.Len()
}

// TestCommitFailureRollsBack: the statement ran to completion but its
// commit sync failed — it must count as aborted: the row disappears,
// the engine stays usable, and a reopen over the same backing state
// agrees.
func TestCommitFailureRollsBack(t *testing.T) {
	db, fd := openFaultDB(t)
	fd.walFile.failSync = 1
	if _, err := db.Exec(`INSERT INTO EMP VALUES (3, 'C', 300)`); err == nil {
		t.Fatal("insert should have failed at commit")
	}
	if got := rowCount(t, db, "EMP"); got != 2 {
		t.Fatalf("%d rows after aborted insert, want 2", got)
	}
	if _, err := db.Exec(`INSERT INTO EMP VALUES (4, 'D', 400)`); err != nil {
		t.Fatalf("engine unusable after abort: %v", err)
	}
	if got := rowCount(t, db, "EMP"); got != 3 {
		t.Fatalf("%d rows after recovery insert, want 3", got)
	}
	// A fresh engine over the same log and stores must see the same
	// committed state: the aborted insert must not resurrect.
	db2 := fd.open(t)
	if got := rowCount(t, db2, "EMP"); got != 3 {
		t.Fatalf("%d rows after reopen, want 3", got)
	}
}

// TestMidStatementWALWriteFailureRollsBack fails the statement while
// it is still logging (a record larger than the append buffer forces
// a flush mid-Append), before any commit was attempted.
func TestMidStatementWALWriteFailureRollsBack(t *testing.T) {
	db, fd := openFaultDB(t)
	big := strings.Repeat("x", 8192)
	fd.walFile.failWrite = 1
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO EMP VALUES (3, '%s', 300)`, big)); err == nil {
		t.Fatal("insert should have failed mid-statement")
	}
	if got := rowCount(t, db, "EMP"); got != 2 {
		t.Fatalf("%d rows after aborted insert, want 2", got)
	}
	// The sticky bufio error from the failed flush must be gone.
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO EMP VALUES (3, '%s', 300)`, big)); err != nil {
		t.Fatalf("engine unusable after abort: %v", err)
	}
	if got := rowCount(t, db, "EMP"); got != 3 {
		t.Fatalf("%d rows, want 3", got)
	}
}

// TestPanicBecomesTaggedError: a panic inside statement execution
// surfaces as a *PanicError carrying the statement text, and the
// abort path heals the engine (reloadRuntime rebuilds the executor,
// which is how this induced nil-runtime panic self-repairs).
func TestPanicBecomesTaggedError(t *testing.T) {
	db, _ := openFaultDB(t)

	db.exec.RT = nil // next statement panics on a nil runtime
	_, _, err := db.Query(`SELECT x.ENO FROM x IN EMP`)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !strings.Contains(pe.Error(), "SELECT x.ENO") {
		t.Fatalf("panic error does not carry the statement text: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost the stack trace")
	}
	if got := rowCount(t, db, "EMP"); got != 2 {
		t.Fatalf("engine not healed after read-only panic: %d rows", got)
	}

	db.exec.RT = nil
	if _, err := db.Exec(`INSERT INTO EMP VALUES (3, 'C', 300)`); !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from mutating statement, got %v", err)
	}
	if got := rowCount(t, db, "EMP"); got != 2 {
		t.Fatalf("%d rows after panicking insert, want 2", got)
	}
	if _, err := db.Exec(`INSERT INTO EMP VALUES (3, 'C', 300)`); err != nil {
		t.Fatalf("engine unusable after panic abort: %v", err)
	}
}

// TestRollbackFailurePoisons: when even the rollback fails, the
// database must refuse all further statements instead of serving a
// state it cannot trust — and a reopen over the same backing state
// must come back clean.
func TestRollbackFailurePoisons(t *testing.T) {
	db, fd := openFaultDB(t)
	fd.walFile.failSync = 1
	fd.walFile.failTruncate = 100 // rollback's log truncation fails too
	_, err := db.Exec(`INSERT INTO EMP VALUES (3, 'C', 300)`)
	if err == nil || !strings.Contains(err.Error(), "needs reopen") {
		t.Fatalf("want poisoning error, got %v", err)
	}
	if _, _, qerr := db.Query(`SELECT x.ENO FROM x IN EMP`); !errors.Is(qerr, db.fatal()) {
		t.Fatalf("poisoned database served a query: %v", qerr)
	}
	if _, err2 := db.Exec(`INSERT INTO EMP VALUES (5, 'E', 500)`); !errors.Is(err2, db.fatal()) {
		t.Fatalf("poisoned database accepted DML: %v", err2)
	}
	// Reopen resolves the failed statement like an in-doubt transaction
	// after a power cut: its commit record physically reached the log
	// (only the fsync acknowledgment failed) and the broken rollback
	// could not truncate it, so recovery legitimately replays it. The
	// user was told the statement's outcome is unreliable ("needs
	// reopen"); what is not negotiable is that the reopened database is
	// consistent and usable.
	fd.walFile.failTruncate = 0
	db2 := fd.open(t)
	if got := rowCount(t, db2, "EMP"); got != 3 {
		t.Fatalf("%d rows after reopen of poisoned database, want 3 (in-doubt insert resolved as committed)", got)
	}
	if _, err := db2.Exec(`INSERT INTO EMP VALUES (6, 'F', 600)`); err != nil {
		t.Fatalf("reopened database unusable: %v", err)
	}
	if got := rowCount(t, db2, "EMP"); got != 4 {
		t.Fatalf("%d rows, want 4", got)
	}
}

// brokenStore fails every page read persistently and records whether
// it was closed.
type brokenStore struct {
	segment.Store
	closed bool
}

var errBroken = errors.New("brokenStore: unreadable page")

func (s *brokenStore) ReadPage(uint32, []byte) error { return errBroken }
func (s *brokenStore) Close() error                  { s.closed = true; return s.Store.Close() }

// TestFailedOpenClosesEverything: an Open that fails after the log is
// up — here recovery cannot read a single page — must close the log
// file and every store it opened.
func TestFailedOpenClosesEverything(t *testing.T) {
	db, fd := openFaultDB(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fd.walFile.closed = false
	var stores []*brokenStore
	_, err := Open(Options{
		OpenStore: func(id segment.ID) (segment.Store, error) {
			st := &brokenStore{Store: fd.stores[id]}
			if st.Store == nil {
				st.Store = segment.NewMemStore()
			}
			stores = append(stores, st)
			return st, nil
		},
		OpenWALStorage: func() (wal.Storage, error) { return oneLog{fd.walFile}, nil },
	})
	if !errors.Is(err, errBroken) {
		t.Fatalf("open over unreadable stores: %v, want the read fault", err)
	}
	if !fd.walFile.closed {
		t.Error("failed open left the log file open")
	}
	if len(stores) == 0 {
		t.Fatal("open failed before it opened a store")
	}
	for i, st := range stores {
		if !st.closed {
			t.Errorf("failed open left store %d of %d open", i+1, len(stores))
		}
	}
}
