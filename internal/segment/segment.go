// Package segment provides database segments: linearly addressed
// arrays of fixed-size pages with a persistent backing store. A
// segment is the unit within which TIDs are interpreted ("the page
// number in a TID is interpreted relatively to the beginning of the
// database segment", §4.1).
//
// Two backing stores are provided: a file store for durability and a
// memory store for tests and benchmarks where only logical page
// traffic (counted by the buffer pool) matters.
package segment

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"syscall"

	"repro/internal/page"
)

// ID identifies a segment within a database.
type ID uint16

// Store is the persistence interface of a segment: page 1 is the
// first page (page 0 is never used, keeping the zero TID invalid).
type Store interface {
	// ReadPage fills buf (len page.Size) with the page's content.
	ReadPage(no uint32, buf []byte) error
	// WritePage persists buf as the page's content, extending the
	// store if the page is beyond the current end.
	WritePage(no uint32, buf []byte) error
	// PageCount returns the highest allocated page number.
	PageCount() uint32
	// Allocate reserves the next page number. On error no page is
	// reserved.
	Allocate() (uint32, error)
	// Sync flushes to stable storage.
	Sync() error
	// Close releases resources.
	Close() error
}

// MemStore is an in-memory Store. Reads take a shared lock so
// concurrent page faults on different pages do not serialize on the
// store.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte // index 0 unused
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{pages: make([][]byte, 1)} }

// ReadPage implements Store.
func (m *MemStore) ReadPage(no uint32, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if no == 0 || int(no) >= len(m.pages) {
		return fmt.Errorf("segment: read of unallocated page %d", no)
	}
	if m.pages[no] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, m.pages[no])
	return nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(no uint32, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if no == 0 {
		return fmt.Errorf("segment: write of page 0")
	}
	for int(no) >= len(m.pages) {
		m.pages = append(m.pages, nil)
	}
	if m.pages[no] == nil {
		m.pages[no] = make([]byte, page.Size)
	}
	copy(m.pages[no], buf)
	return nil
}

// PageCount implements Store.
func (m *MemStore) PageCount() uint32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return uint32(len(m.pages) - 1)
}

// Allocate implements Store.
func (m *MemStore) Allocate() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, nil)
	return uint32(len(m.pages) - 1), nil
}

// Sync implements Store.
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// FileStore is a file-backed Store; page n lives at offset
// (n-1)*page.Size. Reads copy the page out of a read-only shared
// mapping of the file, under a shared lock, so parallel page faults
// overlap and a read costs one copy and no system call. Writes stay
// positioned writes (pwrite) and Sync stays fsync: the operating
// system's unified page cache makes a write visible through the
// mapping, and durability does not depend on it.
//
// The mapping always covers pages 1..count. Where count grows
// (Allocate, WritePage) it is remapped, at least doubling, under the
// exclusive lock, so no reader copies out of an unmapped range.
type FileStore struct {
	mu    sync.RWMutex
	f     *os.File
	count uint32
	m     []byte // read-only mapping; len is a multiple of page.Size
}

// OpenFileStore opens (or creates) the segment file at path.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &FileStore{f: f, count: uint32(st.Size() / page.Size)}
	if err := s.cover(s.count); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: map %s: %w", path, err)
	}
	return s, nil
}

// minMapPages is the smallest mapping a store with any page makes, so
// a growing segment's first pages do not each remap.
const minMapPages = 64

// cover makes the mapping reach page n, remapping to at least twice
// its length when it is short; s.mu is held exclusively (or s is not
// yet shared).
func (s *FileStore) cover(n uint32) error {
	have := len(s.m) / page.Size
	if int(n) <= have {
		return nil
	}
	pages := max(2*have, int(n), minMapPages)
	// A mapping may reach past the end of the file: those pages are
	// never read, because count never passes the file's end.
	m, err := syscall.Mmap(int(s.f.Fd()), 0, pages*page.Size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	if s.m != nil {
		// Unmapping fails only for a range this store did not map.
		_ = syscall.Munmap(s.m)
	}
	s.m = m
	return nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(no uint32, buf []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if no == 0 || no > s.count {
		return fmt.Errorf("segment: read of unallocated page %d", no)
	}
	if s.m == nil {
		return fmt.Errorf("segment: read page %d: store closed", no)
	}
	off := int(no-1) * page.Size
	if err := copyFault(buf, s.m[off:off+page.Size]); err != nil {
		return fmt.Errorf("segment: read page %d: %w", no, err)
	}
	return nil
}

// copyFault copies src to dst and turns a fault on src into an error:
// a file truncated under the mapping, or an I/O error behind it,
// arrives as SIGBUS while copying, and must fail this one read rather
// than the process.
func copyFault(dst, src []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("fault at %#x in the mapped file", fault.Addr())
		}
	}()
	copy(dst, src)
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(no uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if no == 0 {
		return fmt.Errorf("segment: write of page 0")
	}
	if err := s.writeLocked(no, buf); err != nil {
		return fmt.Errorf("segment: write page %d: %w", no, err)
	}
	return nil
}

// writeLocked writes page no and, when it lies past the end, maps it
// and advances count; s.mu is held exclusively. On error count stays.
func (s *FileStore) writeLocked(no uint32, buf []byte) error {
	if _, err := s.f.WriteAt(buf, int64(no-1)*page.Size); err != nil {
		return err
	}
	if no <= s.count {
		return nil
	}
	if err := s.cover(no); err != nil {
		return err
	}
	s.count = no
	return nil
}

// PageCount implements Store.
func (s *FileStore) PageCount() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// zeroPage is the image Allocate materializes.
var zeroPage = make([]byte, page.Size)

// Allocate implements Store.
func (s *FileStore) Allocate() (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Materialize the page so later reads succeed.
	no := s.count + 1
	if err := s.writeLocked(no, zeroPage); err != nil {
		return 0, fmt.Errorf("segment: allocate page %d: %w", no, err)
	}
	return no, nil
}

// Sync implements Store.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.m != nil {
		err = syscall.Munmap(s.m)
		s.m = nil
	}
	return errors.Join(err, s.f.Close())
}
