package wal

import (
	"os"
	"path/filepath"
	"testing"
)

func openLog(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	recs := []*Record{
		{Op: OpInsert, Seg: 1, Page: 2, Slot: 3, Payload: []byte("one")},
		{Op: OpUpdate, Seg: 1, Page: 2, Slot: 3, Payload: []byte("two!")},
		{Op: OpDelete, Seg: 2, Page: 9, Slot: 0},
		{Op: OpCommit},
	}
	var lsns []uint64
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Errorf("LSNs not increasing: %v", lsns)
		}
	}
	if lsns[0] == 0 {
		t.Error("first LSN is zero (must be 1-based)")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if r.Op != w.Op || r.Seg != w.Seg || r.Page != w.Page || r.Slot != w.Slot || string(r.Payload) != string(w.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
		if r.LSN != lsns[i] {
			t.Errorf("record %d LSN = %d, want %d", i, r.LSN, lsns[i])
		}
	}
}

func TestReopenAppendsAfterLast(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	l.Append(&Record{Op: OpInsert, Seg: 1, Page: 1, Payload: []byte("a")})
	l.Sync()
	l.Close()

	l2 := openLog(t, dir)
	l2.Append(&Record{Op: OpInsert, Seg: 1, Page: 1, Slot: 1, Payload: []byte("b")})
	l2.Sync()
	n := 0
	l2.Replay(func(Record) error { n++; return nil })
	if n != 2 {
		t.Errorf("replayed %d, want 2", n)
	}
	l2.Close()
}

// A torn tail (partial record at the end) is truncated on reopen.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := OpenDir(dir, Config{})
	l.Append(&Record{Op: OpInsert, Seg: 1, Page: 1, Payload: []byte("keep")})
	l.Append(&Record{Op: OpCommit})
	l.Sync()
	l.Close()
	// Append garbage simulating a torn write.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{42, 0, 0, 0, 1, 2})
	f.Close()

	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(Record) error { n++; return nil })
	if n != 2 {
		t.Errorf("replay after torn tail = %d records, want 2", n)
	}
	// Appends continue cleanly.
	if _, err := l2.Append(&Record{Op: OpCommit}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	n = 0
	l2.Replay(func(Record) error { n++; return nil })
	if n != 3 {
		t.Errorf("after append: %d records, want 3", n)
	}
}

// A corrupted byte in the middle invalidates the tail from there.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := OpenDir(dir, Config{})
	l.Append(&Record{Op: OpInsert, Seg: 1, Page: 1, Payload: []byte("first")})
	r2 := &Record{Op: OpInsert, Seg: 1, Page: 1, Slot: 1, Payload: []byte("second")}
	lsn2, _ := l.Append(r2)
	l.Sync()
	l.Close()
	// Flip a payload byte of the second record.
	data, _ := os.ReadFile(path)
	data[lsn2-1+8+13] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(Record) error { n++; return nil })
	if n != 1 {
		t.Errorf("replay past corruption = %d records, want 1", n)
	}
}

func TestEnsureDurable(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	defer l.Close()
	lsn, _ := l.Append(&Record{Op: OpCommit})
	if l.SyncedThrough() > lsn {
		t.Error("unsynced record reported durable")
	}
	if err := l.EnsureDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if l.SyncedThrough() <= lsn-1 {
		t.Error("EnsureDurable did not advance the boundary")
	}
	// Already durable: no-op.
	if err := l.EnsureDurable(lsn); err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpInsert: "INSERT", OpUpdate: "UPDATE", OpDelete: "DELETE",
		OpCommit: "COMMIT", OpCheckpoint: "CHECKPOINT",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %s", op, op.String())
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op renders empty")
	}
}
