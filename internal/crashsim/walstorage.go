package crashsim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/wal"
)

// sessWALSeg is the session's view of one WAL segment file: the full
// visible content plus the prefix known to be durable. What the
// unsynced suffix leaves on the disk is decided at settle, like every
// other unsynced write.
type sessWALSeg struct {
	data    []byte
	synced  int
	created bool // did not exist durably when this session first opened it
}

// OpenWALStorage returns the fault-injecting segment-file namespace of
// the log; it is the engine.Options.OpenWALStorage hook. Segment
// creation and removal are failpoints of their own, so the crash
// matrix lands inside rolls, checkpoints and recycling.
func (s *Session) OpenWALStorage() (wal.Storage, error) {
	return &faultWALStorage{s: s}, nil
}

type faultWALStorage struct {
	s *Session
}

func (st *faultWALStorage) List() ([]string, error) {
	if st.s.inj.Crashed() {
		return nil, ErrCrashed
	}
	s := st.s
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	s.d.mu.Lock()
	for name := range s.d.walSegs {
		seen[name] = true
	}
	s.d.mu.Unlock()
	for name := range s.walSegFiles {
		seen[name] = true
	}
	for name := range s.walRemoved {
		delete(seen, name)
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (st *faultWALStorage) Open(name string) (wal.File, error) {
	s := st.s
	s.mu.Lock()
	if ws := s.walSegFiles[name]; ws != nil {
		s.mu.Unlock()
		return &faultSegFile{s: s, ws: ws}, nil
	}
	if !s.walRemoved[name] {
		s.d.mu.Lock()
		durable, ok := s.d.walSegs[name]
		if ok {
			ws := &sessWALSeg{data: append([]byte(nil), durable...), synced: len(durable)}
			s.walSegFiles[name] = ws
			s.d.mu.Unlock()
			s.mu.Unlock()
			return &faultSegFile{s: s, ws: ws}, nil
		}
		s.d.mu.Unlock()
	}
	s.mu.Unlock()
	// Creating a file is a mutating directory operation: a failpoint.
	crashNow, err := s.inj.step()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	delete(s.walRemoved, name) // a re-create supersedes a pending removal
	ws := &sessWALSeg{created: true}
	s.walSegFiles[name] = ws
	s.mu.Unlock()
	if crashNow {
		return nil, ErrCrashed
	}
	return &faultSegFile{s: s, ws: ws}, nil
}

func (st *faultWALStorage) Remove(name string) error {
	crashNow, err := st.s.inj.step()
	if err != nil {
		return err
	}
	s := st.s
	s.mu.Lock()
	delete(s.walSegFiles, name)
	s.walRemoved[name] = true
	s.mu.Unlock()
	if crashNow {
		// The removal is pending; settle decides whether it reached the
		// directory before the power failed.
		return ErrCrashed
	}
	return nil
}

// faultSegFile is one segment file of the session's log. Write and
// Sync are failpoints; a crashing Write keeps a seeded prefix of its
// bytes.
type faultSegFile struct {
	s  *Session
	ws *sessWALSeg
}

func (f *faultSegFile) Write(p []byte) (int, error) {
	crashNow, err := f.s.inj.step()
	if err != nil {
		return 0, err
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if crashNow {
		k := f.s.inj.intn(len(p) + 1)
		f.ws.data = append(f.ws.data, p[:k]...)
		return k, ErrCrashed
	}
	f.ws.data = append(f.ws.data, p...)
	return len(p), nil
}

func (f *faultSegFile) Sync() error {
	crashNow, err := f.s.inj.step()
	if err != nil {
		return err
	}
	if crashNow {
		return ErrCrashed
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.ws.synced = len(f.ws.data)
	return nil
}

func (f *faultSegFile) ReadAt(p []byte, off int64) (int, error) {
	if f.s.inj.Crashed() {
		return 0, ErrCrashed
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if off >= int64(len(f.ws.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ws.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *faultSegFile) Seek(offset int64, whence int) (int64, error) {
	if f.s.inj.Crashed() {
		return 0, ErrCrashed
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	switch whence {
	case io.SeekStart:
		return offset, nil
	case io.SeekEnd:
		return int64(len(f.ws.data)) + offset, nil
	default:
		return 0, fmt.Errorf("crashsim: unsupported seek whence %d", whence)
	}
}

func (f *faultSegFile) Truncate(size int64) error {
	if f.s.inj.Crashed() {
		return ErrCrashed
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if size < int64(len(f.ws.data)) {
		f.ws.data = f.ws.data[:size]
	}
	if f.ws.synced > int(size) {
		f.ws.synced = int(size)
	}
	return nil
}

func (f *faultSegFile) Close() error { return nil }
