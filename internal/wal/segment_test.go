package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// openSegLog opens a rolling log in dir with a tiny segment size so
// tests cross segment bounds after a handful of records.
func openSegLog(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := OpenDir(dir, Config{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestSegmentRollRoundTrip: appends that would cross a segment bound
// roll to a new file — records never span segments — and replay walks
// the whole chain in order, both live and after a reopen.
func TestSegmentRollRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openSegLog(t, dir, 96)
	var lsns []uint64
	payload := []byte("0123456789abcdef") // 16 bytes → 37-byte records
	for i := 0; i < 12; i++ {
		lsn, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: uint32(i), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.SegmentCount(); got < 3 {
		t.Fatalf("log did not roll: %d segments for 12 records over 96-byte segments", got)
	}
	check := func(l *Log, wantLSNs []uint64) {
		t.Helper()
		var got []uint64
		if err := l.Replay(func(r Record) error {
			got = append(got, r.LSN)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantLSNs) {
			t.Fatalf("replayed %d records, want %d", len(got), len(wantLSNs))
		}
		for i := range got {
			if got[i] != wantLSNs[i] {
				t.Fatalf("record %d LSN = %d, want %d", i, got[i], wantLSNs[i])
			}
		}
	}
	check(l, lsns)
	end := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openSegLog(t, dir, 96)
	defer l2.Close()
	if l2.End() != end {
		t.Fatalf("reopened end = %d, want %d", l2.End(), end)
	}
	check(l2, lsns)
	// Appends continue on the reopened chain.
	lsn, err := l2.Append(&Record{Op: OpCommit})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != end+1 {
		t.Fatalf("post-reopen LSN = %d, want %d", lsn, end+1)
	}
}

// TestOversizedRecordOwnSegment: a record bigger than SegmentBytes is
// written whole into a fresh segment — never split, never rejected.
func TestOversizedRecordOwnSegment(t *testing.T) {
	dir := t.TempDir()
	l := openSegLog(t, dir, 64)
	if _, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: 1, Payload: []byte("small")}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 300) // record ≈ 321 bytes ≫ 64
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := l.Append(&Record{Op: OpUpdate, Seg: 1, Page: 2, Payload: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpCommit}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if string(got[1].Payload) != string(big) {
		t.Fatal("oversized payload mangled across segment bound")
	}
	l.Close()
	// And the chain reopens cleanly around the oversized segment.
	l2 := openSegLog(t, dir, 64)
	defer l2.Close()
	n := 0
	if err := l2.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reopened replay saw %d records, want 3", n)
	}
}

// TestRecycleRespectsHorizon: without a checkpoint nothing is retired;
// after one, only whole segments strictly below the checkpoint go, and
// the replay tail survives recycling intact.
func TestRecycleRespectsHorizon(t *testing.T) {
	dir := t.TempDir()
	l := openSegLog(t, dir, 96)
	payload := []byte("0123456789abcdef")
	for i := 0; i < 12; i++ {
		if _, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: uint32(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segsBefore := l.SegmentCount()
	if segsBefore < 3 {
		t.Fatalf("log did not roll: %d segments", segsBefore)
	}

	// No checkpoint yet: every segment is still the replay tail.
	n, err := l.Recycle()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || l.SegmentCount() != segsBefore {
		t.Fatalf("recycle without a checkpoint removed %d segments", n)
	}

	ckpt, err := l.WriteCheckpoint(CheckpointInfo{Durable: l.SyncedThrough()})
	if err != nil {
		t.Fatal(err)
	}
	// Records after the checkpoint are the new tail.
	var tailLSNs []uint64
	for i := 0; i < 3; i++ {
		lsn, err := l.Append(&Record{Op: OpDelete, Seg: 1, Page: uint32(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		tailLSNs = append(tailLSNs, lsn)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	n, err = l.Recycle()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recycle after checkpoint removed nothing")
	}
	// The checkpoint's own segment must survive: the tail replays.
	var got []uint64
	if err := l.ReplayTail(func(r Record) error {
		if r.Op != OpCheckpoint {
			got = append(got, r.LSN)
		}
		return nil
	}); err != nil {
		t.Fatalf("tail replay after recycle: %v", err)
	}
	if len(got) != len(tailLSNs) {
		t.Fatalf("tail after recycle has %d records, want %d", len(got), len(tailLSNs))
	}
	if l.CheckpointLSN() != ckpt {
		t.Fatalf("checkpoint LSN %d, want %d", l.CheckpointLSN(), ckpt)
	}
	end := l.End()
	l.Close()

	// The recycled chain reopens from the checkpoint.
	l2 := openSegLog(t, dir, 96)
	defer l2.Close()
	if l2.CheckpointLSN() != ckpt {
		t.Fatalf("reopened checkpoint LSN %d, want %d", l2.CheckpointLSN(), ckpt)
	}
	if l2.End() != end {
		t.Fatalf("reopened end %d, want %d", l2.End(), end)
	}
}

// TestMissingSegmentTyped: a gap inside the replay chain surfaces as
// ErrMissingSegment, a typed error, not as a silent replay of a
// truncated history.
func TestMissingSegmentTyped(t *testing.T) {
	dir := t.TempDir()
	l := openSegLog(t, dir, 96)
	payload := []byte("0123456789abcdef")
	for i := 0; i < 12; i++ {
		if _, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: uint32(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("log did not roll: %d segments", l.SegmentCount())
	}
	l.Close()

	names := segFiles(t, dir)
	if len(names) < 3 {
		t.Fatalf("found %d segment files, want >= 3", len(names))
	}

	// Remove a middle segment: no checkpoint exists, so replay must
	// start at offset zero and the gap is fatal.
	victim := names[1]
	if victim == legacySegName {
		t.Fatalf("segment list out of order: %v", names)
	}
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, Config{SegmentBytes: 96}); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("open with a mid-chain gap: err = %v, want ErrMissingSegment", err)
	}

	// Remove the base segment too: still no checkpoint to restart
	// from, so the chain is unusable.
	if err := os.Remove(filepath.Join(dir, legacySegName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, Config{SegmentBytes: 96}); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("open without segment zero: err = %v, want ErrMissingSegment", err)
	}
}

// TestMissingHistoryBelowCheckpointTolerated: segments below the
// checkpoint are dead weight — a hole down there (a recycle that
// crashed between removals, or manual deletion) must not block open,
// and the next Recycle sweeps the stranded files.
func TestMissingHistoryBelowCheckpointTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openSegLog(t, dir, 96)
	payload := []byte("0123456789abcdef")
	for i := 0; i < 12; i++ {
		if _, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: uint32(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := l.WriteCheckpoint(CheckpointInfo{Durable: l.SyncedThrough()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpCommit}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Punch a hole in the pre-checkpoint history, as a crashed recycle
	// would after removing some but not all dead segments.
	names := segFiles(t, dir)
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}

	l2 := openSegLog(t, dir, 96)
	if l2.CheckpointLSN() != ckpt {
		t.Fatalf("reopened checkpoint LSN %d, want %d", l2.CheckpointLSN(), ckpt)
	}
	n := 0
	if err := l2.ReplayTail(func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("tail replay with stranded history: %v", err)
	}
	if n != 2 { // checkpoint + commit
		t.Fatalf("tail has %d records, want 2", n)
	}
	// Recycle sweeps both the stranded orphans and the contiguous
	// history below the checkpoint.
	if _, err := l2.Recycle(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	left := segFiles(t, dir)
	if len(left) != 1 {
		t.Fatalf("after recycle %d segment files remain (%v), want 1", len(left), left)
	}
}

// TestTornCheckpointFallsBack: a checkpoint whose record is torn on
// disk must not become the replay start — open falls back to the
// previous complete checkpoint.
func TestTornCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openSegLog(t, dir, 256)
	if _, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: 1, Payload: []byte("pre")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptA, err := l.WriteCheckpoint(CheckpointInfo{Durable: l.SyncedThrough()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpInsert, Seg: 1, Page: 2, Payload: []byte("mid")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptB, err := l.WriteCheckpoint(CheckpointInfo{Durable: l.SyncedThrough()})
	if err != nil {
		t.Fatal(err)
	}
	if ckptB <= ckptA {
		t.Fatalf("checkpoint LSNs not increasing: %d then %d", ckptA, ckptB)
	}
	l.Close()

	// Tear checkpoint B: it opens a fresh segment, so clipping that
	// file mid-record leaves a torn first record.
	nameB := segName(ckptB - 1)
	fi, err := os.Stat(filepath.Join(dir, nameB))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, nameB), fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2 := openSegLog(t, dir, 256)
	defer l2.Close()
	if l2.CheckpointLSN() != ckptA {
		t.Fatalf("replay start = %d, want fallback to checkpoint A at %d", l2.CheckpointLSN(), ckptA)
	}
	// The tail from A replays the mid record; the torn B is cut.
	var ops []Op
	if err := l2.ReplayTail(func(r Record) error { ops = append(ops, r.Op); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []Op{OpCheckpoint, OpInsert}
	if len(ops) != len(want) {
		t.Fatalf("tail ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("tail ops = %v, want %v", ops, want)
		}
	}
	if l2.End() != ckptB-1 {
		t.Fatalf("end after cutting torn checkpoint = %d, want %d", l2.End(), ckptB-1)
	}

	// A front whose header claims the largest legal body over a short
	// file is torn as well, and probing it must not allocate the claim.
	f, err := os.OpenFile(filepath.Join(dir, nameB), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<26)
	if _, err := f.WriteAt(append(hdr[:], "short"...), 0); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok, err := firstRecordOp(f)
	runtime.ReadMemStats(&after)
	if err != nil || ok {
		t.Fatalf("probe of a front claiming 1<<26 bytes = ok %v, err %v; want ok=false", ok, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("probe of a torn front allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestCheckpointInfoRoundTrip: the durable horizon and open-txn table
// survive the encode/decode round trip, and a clipped payload is
// rejected rather than misdecoded.
func TestCheckpointInfoRoundTrip(t *testing.T) {
	ci := CheckpointInfo{Durable: 12345, OpenTxns: []uint64{7, 9, 42}}
	enc := ci.Encode()
	got, ok := DecodeCheckpointInfo(enc)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.Durable != ci.Durable || len(got.OpenTxns) != 3 ||
		got.OpenTxns[0] != 7 || got.OpenTxns[1] != 9 || got.OpenTxns[2] != 42 {
		t.Fatalf("round trip = %+v, want %+v", got, ci)
	}
	if _, ok := DecodeCheckpointInfo(enc[:len(enc)-1]); ok {
		t.Fatal("clipped payload decoded")
	}
	if empty, ok := DecodeCheckpointInfo(CheckpointInfo{}.Encode()); !ok || empty.Durable != 0 || len(empty.OpenTxns) != 0 {
		t.Fatalf("empty info round trip = %+v, ok=%v", empty, ok)
	}
}
