package faultsim

import (
	"repro/internal/segment"
	"repro/internal/wal"
)

// WrapStore interposes the injector between the engine and a backing
// store: ReadPage, WritePage and Sync become fault points. The engine
// layers its retry wrapper on top, so the composition under test is
// retry(faultsim(backing store)).
func (in *Injector) WrapStore(st segment.Store) segment.Store {
	return &store{in: in, st: st}
}

type store struct {
	in *Injector
	st segment.Store
}

func (s *store) ReadPage(no uint32, buf []byte) error {
	if err := s.in.step(OpRead); err != nil {
		return err
	}
	return s.st.ReadPage(no, buf)
}

func (s *store) WritePage(no uint32, buf []byte) error {
	if err := s.in.step(OpWrite); err != nil {
		return err
	}
	return s.st.WritePage(no, buf)
}

func (s *store) Sync() error {
	if err := s.in.step(OpSync); err != nil {
		return err
	}
	return s.st.Sync()
}

func (s *store) PageCount() uint32 { return s.st.PageCount() }
func (s *store) Allocate() uint32  { return s.st.Allocate() }
func (s *store) Close() error      { return s.st.Close() }

// WrapWAL interposes the injector between the log and its segment
// files: Write, Sync and ReadAt of every file the log opens become
// fault points. Seek, Truncate, List and Remove pass through — Seek
// and Truncate are the rollback path's own tools, and faulting them
// would only test that a rollback can fail, which the poisoned
// fatalErr path covers directly.
func (in *Injector) WrapWAL(st wal.Storage) wal.Storage {
	return &storage{in: in, st: st}
}

type storage struct {
	in *Injector
	st wal.Storage
}

func (s *storage) Open(name string) (wal.File, error) {
	f, err := s.st.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{in: s.in, f: f}, nil
}

func (s *storage) Remove(name string) error { return s.st.Remove(name) }
func (s *storage) List() ([]string, error)  { return s.st.List() }

type file struct {
	in *Injector
	f  wal.File
}

func (w *file) Write(p []byte) (int, error) {
	if err := w.in.step(OpWALWrite); err != nil {
		return 0, err
	}
	return w.f.Write(p)
}

func (w *file) Sync() error {
	if err := w.in.step(OpWALSync); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *file) ReadAt(p []byte, off int64) (int, error) {
	if err := w.in.step(OpWALRead); err != nil {
		return 0, err
	}
	return w.f.ReadAt(p, off)
}

func (w *file) Seek(offset int64, whence int) (int64, error) {
	return w.f.Seek(offset, whence)
}

func (w *file) Truncate(size int64) error { return w.f.Truncate(size) }
func (w *file) Close() error              { return w.f.Close() }
