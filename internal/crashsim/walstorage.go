package crashsim

import (
	"fmt"
	"io"
	"sort"
	"time"

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

// OpenWALStorage returns the session's log segment files behind its
// injector; it is the engine.Options.OpenWALStorage hook.
func (s *Session) OpenWALStorage() (wal.Storage, error) {
	return s.WrapWAL(memWAL{s}), nil
}

// memWAL is the session's view of the log directory.
type memWAL struct {
	s *Session
}

func (st memWAL) List() ([]string, error) {
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

func (st memWAL) Open(name string) (wal.File, error) {
	s := st.s
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.walSegFiles[name]
	if ws == nil {
		s.d.mu.Lock()
		durable, ok := s.d.walSegs[name]
		s.d.mu.Unlock()
		if ok && !s.walRemoved[name] {
			ws = &sessWALSeg{data: append([]byte(nil), durable...), synced: len(durable)}
		} else {
			delete(s.walRemoved, name) // a re-create supersedes a pending removal
			ws = &sessWALSeg{created: true}
		}
		s.walSegFiles[name] = ws
	}
	return &memFile{s: s, ws: ws}, nil
}

func (st memWAL) Remove(name string) error {
	s := st.s
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.walSegFiles, name)
	s.walRemoved[name] = true
	return nil
}

// memFile is one segment file of the session's log.
type memFile struct {
	s  *Session
	ws *sessWALSeg
}

func (f *memFile) Write(p []byte) (int, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.ws.data = append(f.ws.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if f.s.syncDelay > 0 {
		time.Sleep(f.s.syncDelay)
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.ws.synced = len(f.ws.data)
	return nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
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

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
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

func (f *memFile) Truncate(size int64) error {
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

func (f *memFile) Close() error { return nil }
