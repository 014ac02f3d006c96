package simkit

import (
	"slices"

	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// SectorSize is the granularity at which a torn page write mixes old
// and new content: a disk persists sectors atomically, pages not.
const SectorSize = 512

// WrapStore interposes the injector between the engine and the store
// of segment id: ReadPage, WritePage and Sync are fault points, and
// page faults armed on (id, page) fire on WritePage. The engine layers
// its retry wrapper on top.
func (in *Injector) WrapStore(id segment.ID, st segment.Store) segment.Store {
	return &store{Store: st, in: in, id: id}
}

type store struct {
	segment.Store
	in *Injector
	id segment.ID
}

func (s *store) ReadPage(no uint32, buf []byte) error {
	if _, err := s.in.step(PageRead); err != nil {
		return err
	}
	return s.Store.ReadPage(no, buf)
}

func (s *store) WritePage(no uint32, buf []byte) error {
	crashNow, err := s.in.step(PageWrite)
	if err != nil {
		return err
	}
	if crashNow {
		// A sector prefix of the write lands over the page's previous
		// content, then the process dies.
		img := make([]byte, page.Size)
		if s.Store.ReadPage(no, img) != nil {
			clear(img)
		}
		k := s.in.intn(page.Size/SectorSize+1) * SectorSize
		copy(img[:k], buf[:k])
		_ = s.Store.WritePage(no, img) // the process is dead either way
		return ErrCrashed
	}
	f, ok := s.in.pageFault(s.id, no)
	switch {
	case !ok:
		return s.Store.WritePage(no, buf)
	case f.Kind == LostWrite:
		return nil // acked and dropped
	case f.Kind == MisdirectedWrite:
		return s.Store.WritePage(f.Target, buf)
	}
	img := append([]byte(nil), buf...)
	if f.Kind == BitFlip {
		img[f.Off%len(img)] ^= 0xFF
	} else {
		clear(img)
	}
	return s.Store.WritePage(no, img)
}

func (s *store) Sync() error {
	crashNow, err := s.in.step(PageSync)
	if crashNow {
		err = ErrCrashed // power fails before the flush
	}
	if err != nil {
		return err
	}
	return s.Store.Sync()
}

// WrapWAL interposes the injector between the log and its segment
// files: creating and removing a file are crash points, and Write,
// Sync and ReadAt of every file are fault points. Seek, Truncate and
// List only fail after the crash — they are the rollback's own tools,
// and faulting them would only test that a rollback can fail, which
// the engine's poisoned state covers directly.
func (in *Injector) WrapWAL(st wal.Storage) wal.Storage {
	return &storage{st: st, in: in}
}

type storage struct {
	st wal.Storage
	in *Injector
}

func (s *storage) List() ([]string, error) {
	if s.in.Crashed() {
		return nil, ErrCrashed
	}
	return s.st.List()
}

func (s *storage) Open(name string) (wal.File, error) {
	names, err := s.st.List()
	if err != nil {
		return nil, err
	}
	if !slices.Contains(names, name) {
		crashNow, err := s.in.step(LogCreate)
		if err != nil {
			return nil, err
		}
		if crashNow {
			// The create is issued; whether it reached the directory is
			// the disk's to decide.
			if f, err := s.st.Open(name); err == nil {
				_ = f.Close() // nothing was written to it
			}
			return nil, ErrCrashed
		}
	}
	f, err := s.st.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{File: f, in: s.in}, nil
}

func (s *storage) Remove(name string) error {
	crashNow, err := s.in.step(LogRemove)
	if err != nil {
		return err
	}
	err = s.st.Remove(name)
	if crashNow {
		return ErrCrashed // issued; the disk decides whether it stuck
	}
	return err
}

type file struct {
	wal.File
	in *Injector
}

func (f *file) Write(p []byte) (int, error) {
	crashNow, err := f.in.step(LogWrite)
	if err != nil {
		return 0, err
	}
	if crashNow {
		n, _ := f.File.Write(p[:f.in.intn(len(p)+1)]) // the process is dead either way
		return n, ErrCrashed
	}
	return f.File.Write(p)
}

func (f *file) Sync() error {
	crashNow, err := f.in.step(LogSync)
	if crashNow {
		err = ErrCrashed
	}
	if err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.in.step(LogRead); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	if f.in.Crashed() {
		return 0, ErrCrashed
	}
	return f.File.Seek(offset, whence)
}

func (f *file) Truncate(size int64) error {
	if f.in.Crashed() {
		return ErrCrashed
	}
	return f.File.Truncate(size)
}
