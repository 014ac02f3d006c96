package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// sampleLogBytes builds a valid log image for seed corpora.
func sampleLogBytes(tb testing.TB, recs []*Record) []byte {
	mf := &flakyFile{}
	l, err := OpenStorage(oneLog{mf}, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), mf.data...)
}

var sampleRecs = []*Record{
	{Op: OpInsert, Seg: 1, Page: 1, Slot: 0, Payload: []byte("alpha")},
	{Op: OpUpdate, Seg: 1, Page: 1, Slot: 0, Payload: []byte("beta-beta")},
	{Op: OpCommit},
	{Op: OpDelete, Seg: 2, Page: 7, Slot: 3},
	{Op: OpCommit},
}

// FuzzReplay opens arbitrary bytes as a log. Open must never panic,
// and Replay must deliver only complete, CRC-valid records, in
// strictly increasing LSN order, never reaching past the input.
func FuzzReplay(f *testing.F) {
	valid := sampleLogBytes(f, sampleRecs)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[2:])            // misaligned start
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[0:], 1<<31) // absurd length claim
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		mf := &flakyFile{data: append([]byte(nil), data...)}
		l, err := OpenStorage(oneLog{mf}, Config{})
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		defer l.Close()
		if got := l.End(); got > uint64(len(data)) {
			t.Fatalf("End() = %d beyond input length %d", got, len(data))
		}
		prev := uint64(0)
		err = l.Replay(func(r Record) error {
			if r.LSN <= prev {
				t.Fatalf("LSNs not strictly increasing: %d after %d", r.LSN, prev)
			}
			prev = r.LSN
			end := int(r.LSN-1) + r.Size()
			if end > len(data) {
				t.Fatalf("record [%d, %d) extends past %d input bytes", r.LSN-1, end, len(data))
			}
			body := data[int(r.LSN-1)+recHeader : end]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[r.LSN-1+4:]) {
				t.Fatal("replay delivered a record whose stored CRC does not match")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Replay must absorb arbitrary input cleanly, got: %v", err)
		}
	})
}

// TestTornTailEveryOffset truncates a synced log at every byte offset
// inside its last record and asserts that reopening positions the log
// exactly after the last complete record, drops the torn bytes, and
// replays exactly the complete prefix — the regression test for
// crash-truncated log tails.
func TestTornTailEveryOffset(t *testing.T) {
	full := sampleLogBytes(t, sampleRecs)
	// Byte offset where the last record begins.
	lastStart := len(full) - sampleRecs[len(sampleRecs)-1].Size()
	for cut := lastStart; cut < len(full); cut++ {
		mf := &flakyFile{data: append([]byte(nil), full[:cut]...)}
		l, err := OpenStorage(oneLog{mf}, Config{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if got := l.End(); got != uint64(lastStart) {
			t.Fatalf("cut %d: End() = %d, want %d", cut, got, lastStart)
		}
		if len(mf.data) != lastStart {
			t.Fatalf("cut %d: torn tail not truncated: %d bytes, want %d", cut, len(mf.data), lastStart)
		}
		n := 0
		if err := l.Replay(func(r Record) error { n++; return nil }); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		if n != len(sampleRecs)-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, len(sampleRecs)-1)
		}
		// The log stays appendable after tail repair.
		if _, err := l.Append(&Record{Op: OpCommit}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("cut %d: sync after repair: %v", cut, err)
		}
		n = 0
		l.Replay(func(Record) error { n++; return nil })
		if n != len(sampleRecs) {
			t.Fatalf("cut %d: after repair+append replayed %d, want %d", cut, n, len(sampleRecs))
		}
		l.Close()
	}
}

// TestTruncateTail covers the recovery-time tail discard: records
// after the truncation point disappear and the log continues from the
// new end.
func TestTruncateTail(t *testing.T) {
	mf := &flakyFile{}
	l, err := OpenStorage(oneLog{mf}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for _, r := range sampleRecs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Keep the first three records (through the first commit).
	keep := (lsns[2] - 1) + uint64(sampleRecs[2].Size())
	if err := l.TruncateTail(keep); err != nil {
		t.Fatal(err)
	}
	if l.End() != keep {
		t.Fatalf("End() = %d after truncate, want %d", l.End(), keep)
	}
	n := 0
	if err := l.Replay(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records after truncate, want 3", n)
	}
	// New appends land at the truncation point with consistent LSNs.
	lsn, err := l.Append(&Record{Op: OpInsert, Seg: 3, Page: 1, Payload: []byte("post")})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != keep+1 {
		t.Fatalf("append after truncate at LSN %d, want %d", lsn, keep+1)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	n = 0
	l.Replay(func(Record) error { n++; return nil })
	if n != 4 {
		t.Fatalf("replayed %d records after truncate+append, want 4", n)
	}
}
