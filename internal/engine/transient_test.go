package engine

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
)

// errFlaky is a device hiccup that declares itself transient.
type errFlaky struct{}

func (errFlaky) Error() string   { return "flakyStore: device busy" }
func (errFlaky) Transient() bool { return true }

// flakyStore records the pages it reads and fails the reads of one
// page transiently, burst times in a row.
type flakyStore struct {
	segment.Store
	mu    sync.Mutex
	read  []uint32
	page  uint32
	burst int
}

func (s *flakyStore) ReadPage(no uint32, buf []byte) error {
	s.mu.Lock()
	s.read = append(s.read, no)
	fail := no == s.page && s.burst > 0
	if fail {
		s.burst--
	}
	s.mu.Unlock()
	if fail {
		return errFlaky{}
	}
	return s.Store.ReadPage(no, buf)
}

// TestTransientOverflowReadIsNotCorruption aims a burst of transient
// faults longer than the retry budget at a page of an overflow chain —
// a string attribute three pages long — and reads the object by index:
// the statement fails with the transient fault as it is, nothing is
// quarantined, and once the device recovers the same statement reads
// the object. A chain read that re-labelled the fault as corruption
// would quarantine a healthy object.
func TestTransientOverflowReadIsNotCorruption(t *testing.T) {
	var stores []*flakyStore
	db, err := Open(Options{
		Retry: segment.RetryPolicy{Tries: 2},
		OpenStore: func(segment.ID) (segment.Store, error) {
			st := &flakyStore{Store: segment.NewMemStore()}
			stores = append(stores, st)
			return st, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE NOTES (K INT, BODY STRING, TAGS TABLE OF (TAG STRING))`); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("overflow ", 3*page.Size/9)
	tags := model.NewRelation()
	tags.Append(model.Tuple{model.Str("long")})
	if err := db.Insert("NOTES", model.Tuple{model.Int(1), model.Str(long), tags}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("NOTES_K", "NOTES", []string{"K"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(`SELECT x.BODY FROM x IN NOTES WHERE x.K = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// coldRead empties the pool and reads the note, returning the pages
	// the stores were asked for, in order.
	coldRead := func() ([]uint32, error) {
		if err := db.Pool().FlushAll(); err != nil {
			t.Fatal(err)
		}
		db.Pool().InvalidateAll()
		for _, st := range stores {
			st.mu.Lock()
			st.read = st.read[:0]
			st.mu.Unlock()
		}
		tbl, _, err := ps.Query(model.Int(1))
		var read []uint32
		for _, st := range stores {
			st.mu.Lock()
			read = append(read, st.read...)
			st.mu.Unlock()
		}
		if err == nil && (tbl.Len() != 1 || tbl.Tuples[0][0] != model.Str(long)) {
			t.Fatalf("read %d rows, want the one note", tbl.Len())
		}
		return read, err
	}
	read, err := coldRead()
	if err != nil {
		t.Fatal(err)
	}
	// The chain is read last: its last chunk's page is the last page read.
	chunk := read[len(read)-1]
	if read[0] == chunk {
		t.Fatalf("the note fits one page (pages read %v): no overflow chain", read)
	}
	for _, st := range stores {
		st.page, st.burst = chunk, 2
	}
	if _, err := coldRead(); err == nil || !segment.IsTransient(err) {
		t.Fatalf("read through a failing chain page: %v, want the transient fault", err)
	}
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("a transient fault quarantined %v", q[0])
	}
	if _, err := coldRead(); err != nil {
		t.Fatalf("read after the device recovered: %v", err)
	}
}
