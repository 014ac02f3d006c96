package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/segment"
)

// flakyFile is an in-memory wal.File whose Write/Sync/ReadAt can be made
// to fail on demand; the tests use it to model flaky storage without
// touching the filesystem, and unarmed as a plain in-memory log file
// whose bytes stay addressable for checks against the raw input.
type flakyFile struct {
	mu        sync.Mutex
	data      []byte
	synced    int // durable prefix length; informational
	failWrite int // next N writes fail
	failRead  int
	failSync  int
	shortBy   int  // failing writes still accept all but shortBy bytes
	transient bool // classification of injected errors
	writes    int
}

type flakyErr struct{ transient bool }

func (e flakyErr) Error() string   { return "memfile: injected fault" }
func (e flakyErr) Transient() bool { return e.transient }

func (m *flakyFile) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes++
	if m.failWrite > 0 {
		m.failWrite--
		n := len(p) - m.shortBy
		if n < 0 {
			n = 0
		}
		m.data = append(m.data, p[:n]...)
		return n, flakyErr{m.transient}
	}
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failRead > 0 {
		m.failRead--
		return 0, flakyErr{m.transient}
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *flakyFile) Seek(offset int64, whence int) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch whence {
	case io.SeekStart:
		return offset, nil
	case io.SeekEnd:
		return int64(len(m.data)) + offset, nil
	}
	return 0, fmt.Errorf("memfile: unsupported whence %d", whence)
}

func (m *flakyFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < int64(len(m.data)) {
		m.data = m.data[:size]
	}
	if m.synced > int(size) {
		m.synced = int(size)
	}
	return nil
}

func (m *flakyFile) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failSync > 0 {
		m.failSync--
		return flakyErr{m.transient}
	}
	m.synced = len(m.data)
	return nil
}

func (m *flakyFile) Close() error { return nil }

// oneLog is a Storage holding a single wal.log. The logs the tests
// open over it never roll (Config.SegmentBytes is zero), so no other
// segment is ever created or removed.
type oneLog struct{ f File }

func (s oneLog) Open(name string) (File, error) {
	if name != legacySegName {
		return nil, fmt.Errorf("oneLog: no segment %q", name)
	}
	return s.f, nil
}

func (s oneLog) Remove(name string) error { return fmt.Errorf("oneLog: cannot remove %q", name) }
func (s oneLog) List() ([]string, error)  { return []string{legacySegName}, nil }

func record(op Op, payload string) *Record {
	return &Record{Op: op, Seg: 3, Page: 7, Slot: 1, Payload: []byte(payload)}
}

func countRecords(t *testing.T, l *Log) int {
	t.Helper()
	n := 0
	if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return n
}

// TestDiscardUnflushedDropsBufferedTail: records appended after the
// last acknowledged sync — even a complete commit record whose own
// fsync failed — are discarded, and the log accepts appends again.
func TestDiscardUnflushedDropsBufferedTail(t *testing.T) {
	mf := &flakyFile{}
	l, err := OpenStorage(oneLog{mf}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpInsert, "committed")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpCommit, "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := l.End()

	// A failing statement: one record flushed to the file by a full
	// buffer or an eviction, one still buffered, then a commit whose
	// sync fails.
	if _, err := l.Append(record(OpInsert, "doomed-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.w.Flush(); err != nil { // reached the file, not synced
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpInsert, "doomed-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpCommit, "")); err != nil {
		t.Fatal(err)
	}
	mf.failSync = 1
	if err := l.Sync(); err == nil {
		t.Fatal("sync should have failed")
	}

	if err := l.DiscardUnflushed(); err != nil {
		t.Fatal(err)
	}
	if l.End() != durable {
		t.Fatalf("append position %d after discard, want the durable boundary %d", l.End(), durable)
	}
	if got := countRecords(t, l); got != 2 {
		t.Fatalf("%d records after discard, want the 2 committed ones", got)
	}

	// The log must be fully usable afterwards.
	if _, err := l.Append(record(OpInsert, "next")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := countRecords(t, l); got != 3 {
		t.Fatalf("%d records after post-discard append, want 3", got)
	}
}

// TestDiscardUnflushedClearsStickyError: a failed flush poisons the
// bufio writer (every later write returns the same error); discard
// must clear it.
func TestDiscardUnflushedClearsStickyError(t *testing.T) {
	mf := &flakyFile{}
	l, err := OpenStorage(oneLog{mf}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpCommit, "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpInsert, "doomed")); err != nil {
		t.Fatal(err)
	}
	mf.failWrite = 1
	mf.shortBy = 5 // a partial flush leaves mid-record bytes in the file
	if err := l.Sync(); err == nil {
		t.Fatal("sync should have failed")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("the sticky bufio error should still fail syncs")
	}
	if err := l.DiscardUnflushed(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpInsert, "after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("log still poisoned after discard: %v", err)
	}
	if got := countRecords(t, l); got != 2 {
		t.Fatalf("%d records, want 2 (commit + post-discard insert)", got)
	}
}

// TestReplayPropagatesRealReadErrors: only EOF shapes mean "end of
// log"; a real I/O error during replay must surface, not silently
// truncate the committed history.
func TestReplayPropagatesRealReadErrors(t *testing.T) {
	mf := &flakyFile{}
	l, err := OpenStorage(oneLog{mf}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpInsert, "x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	mf.failRead = 1
	err = l.Replay(func(Record) error { return nil })
	var me flakyErr
	if !errors.As(err, &me) {
		t.Fatalf("replay swallowed the read error, got %v", err)
	}
}

// TestRetryFileResumesPartialWrites: a transient fault mid-write must
// not duplicate the bytes the backing file already accepted.
func TestRetryFileResumesPartialWrites(t *testing.T) {
	mf := &flakyFile{failWrite: 2, shortBy: 3, transient: true}
	f := WithRetry(mf, segment.RetryPolicy{Tries: 4})
	payload := []byte("abcdefghij")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if string(mf.data) != string(payload) {
		t.Fatalf("file content %q, want %q (duplicated or lost bytes)", mf.data, payload)
	}
	if mf.writes != 3 {
		t.Fatalf("expected 3 attempts, saw %d", mf.writes)
	}
}

// TestRetryFileAbsorbsTransientSyncs: a whole Log over a flaky file
// keeps working when faults stay within the retry budget.
func TestRetryFileAbsorbsTransientSyncs(t *testing.T) {
	mf := &flakyFile{transient: true}
	l, err := OpenStorage(oneLog{mf}, Config{Retry: segment.RetryPolicy{Tries: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(OpInsert, "x")); err != nil {
		t.Fatal(err)
	}
	mf.failSync = 3
	if err := l.Sync(); err != nil {
		t.Fatalf("3 transient sync faults should be absorbed by 4 tries: %v", err)
	}
	if got := countRecords(t, l); got != 1 {
		t.Fatalf("%d records, want 1", got)
	}
}
