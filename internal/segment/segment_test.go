package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/page"
)

func testStore(t *testing.T, st Store) {
	t.Helper()
	if st.PageCount() != 0 {
		t.Fatalf("fresh store has %d pages", st.PageCount())
	}
	p1, err1 := st.Allocate()
	p2, err2 := st.Allocate()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if p1 != 1 || p2 != 2 {
		t.Fatalf("allocated %d, %d; want 1, 2", p1, p2)
	}
	buf := make([]byte, page.Size)
	for i := range buf {
		buf[i] = byte(i % 251)
	}
	if err := st.WritePage(p2, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, page.Size)
	if err := st.ReadPage(p2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Error("page content mismatch")
	}
	// Unwritten allocated page reads as zeros.
	if err := st.ReadPage(p1, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Error("fresh page not zero")
			break
		}
	}
	// Errors.
	if err := st.ReadPage(0, got); err == nil {
		t.Error("read of page 0 succeeded")
	}
	if err := st.ReadPage(99, got); err == nil {
		t.Error("read beyond end succeeded")
	}
	if err := st.WritePage(0, buf); err == nil {
		t.Error("write of page 0 succeeded")
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStore(t *testing.T) {
	st := NewMemStore()
	defer st.Close()
	testStore(t, st)
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStore(filepath.Join(dir, "seg.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	testStore(t, st)
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.dat")
	st, _ := OpenFileStore(path)
	no, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, page.Size)
	copy(buf, "persisted content")
	if err := st.WritePage(no, buf); err != nil {
		t.Fatal(err)
	}
	st.Sync()
	st.Close()

	st2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.PageCount() != 1 {
		t.Fatalf("reopened page count = %d", st2.PageCount())
	}
	got := make([]byte, page.Size)
	if err := st2.ReadPage(no, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("persisted content")) {
		t.Error("content lost across reopen")
	}
}

func TestWriteBeyondEndExtends(t *testing.T) {
	st := NewMemStore()
	buf := make([]byte, page.Size)
	buf[0] = 7
	if err := st.WritePage(5, buf); err != nil {
		t.Fatal(err)
	}
	if st.PageCount() != 5 {
		t.Errorf("page count after write-beyond = %d", st.PageCount())
	}
	got := make([]byte, page.Size)
	if err := st.ReadPage(5, got); err != nil || got[0] != 7 {
		t.Errorf("read back: %v, %d", err, got[0])
	}
	// Pages 1-4 exist as zeros.
	if err := st.ReadPage(3, got); err != nil {
		t.Errorf("intermediate page unreadable: %v", err)
	}
}

// TestFileStoreTruncatedUnderMapping: a page whose file range was cut
// off under an open store faults inside the mapping; the read returns
// an error and the process stays up.
func TestFileStoreTruncatedUnderMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.dat")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	buf := make([]byte, page.Size)
	for i := 0; i < 4; i++ {
		no, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(no)
		if err := st.WritePage(no, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, page.Size); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadPage(1, buf); err != nil || buf[0] != 1 {
		t.Fatalf("page 1 within the file: %v, byte %d", err, buf[0])
	}
	if err := st.ReadPage(3, buf); err == nil {
		t.Fatal("read of a page past the truncated end succeeded")
	}
}

// TestFileStoreReadsDuringRemap: readers copy pages while a writer
// grows the store through several remaps, allocating every other page
// before writing it; every read of a page below the current count
// (the last one may be allocated and not yet written) returns what was
// written to it.
func TestFileStoreReadsDuringRemap(t *testing.T) {
	st, err := OpenFileStore(filepath.Join(t.TempDir(), "seg.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const pages = 8 * minMapPages // three doublings past the first mapping
	fill := func(no uint32) []byte {
		return bytes.Repeat([]byte{byte(no), byte(no >> 8)}, page.Size/2)
	}
	write := func(no uint32) {
		if err := st.WritePage(no, fill(no)); err != nil {
			t.Error(err)
		}
	}
	write(1)
	write(2)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got := make([]byte, page.Size)
			for i := 0; ; i++ {
				n := st.PageCount()
				no := uint32(1 + (i*7+r)%int(n-1))
				if err := st.ReadPage(no, got); err != nil {
					t.Errorf("read page %d of %d: %v", no, n, err)
					return
				}
				if !bytes.Equal(got, fill(no)) {
					t.Errorf("page %d of %d reads back other bytes", no, n)
					return
				}
				if n == pages {
					return
				}
			}
		}(r)
	}
	for no := uint32(3); no <= pages; no++ {
		if no%2 == 0 {
			if got, err := st.Allocate(); err != nil || got != no {
				t.Fatalf("allocate: page %d, %v; want %d", got, err, no)
			}
		}
		write(no)
	}
	wg.Wait()
}
