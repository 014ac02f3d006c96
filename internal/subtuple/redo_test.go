package subtuple

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// recoverLog runs crash recovery the way the engine does: one summary
// scan of the tail, then the redo pass.
func recoverLog(log *wal.Log, pool *buffer.Pool) error {
	t, err := ScanTail(log)
	if err != nil {
		return err
	}
	return Recover(log, pool, t)
}

// copyStore returns a MemStore holding the same pages as st.
func copyStore(t *testing.T, st segment.Store) *segment.MemStore {
	t.Helper()
	m := segment.NewMemStore()
	buf := make([]byte, page.Size)
	for no := uint32(1); no <= st.PageCount(); no++ {
		if err := st.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		m.Allocate()
		if err := m.WritePage(no, buf); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// storeBytes flushes the pool and returns every page of seg 1 as
// stored.
func storeBytes(t *testing.T, pool *buffer.Pool) [][]byte {
	t.Helper()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := pool.Store(1)
	out := make([][]byte, st.PageCount())
	for i := range out {
		out[i] = make([]byte, page.Size)
		if err := st.ReadPage(uint32(i+1), out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func samePages(t *testing.T, what string, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d pages vs %d", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("%s: page %d differs", what, i+1)
		}
	}
}

// TestRedoRecoveryAndReplicaAgree checks that the one redo step gives
// the same pages on both of its paths. A seeded versioned workload
// commits groups of inserts, growing updates and deletes around a
// checkpoint, on a pool small enough to write pages back mid-run, and
// then crashes. Crash recovery over the primary's store and a replica
// that starts from the checkpoint's pages and applies the tail group by
// group must reach byte-identical pages. Redoing every group a second
// time, as a restarted follower does, must change no page.
func TestRedoRecoveryAndReplicaAgree(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDir(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	disk := segment.NewMemStore()
	pool := buffer.NewPool(16)
	pool.Register(1, disk)
	ts := int64(0)
	s := New(Config{Pool: pool, Seg: 1, Log: log, Versioned: true, Clock: func() int64 { ts++; return ts }})
	rng := rand.New(rand.NewSource(31))
	var live []page.TID
	var base *segment.MemStore
	for g := 0; g < 24; g++ {
		if g == 8 {
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := log.WriteCheckpoint(wal.CheckpointInfo{}); err != nil {
				t.Fatal(err)
			}
			base = copyStore(t, disk)
		}
		for i := 0; i < 12; i++ {
			payload := bytes.Repeat([]byte{byte('a' + g)}, 20+rng.Intn(300))
			switch op := rng.Intn(4); {
			case op <= 1 || len(live) == 0:
				tid, err := s.Insert(payload)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, tid)
			case op == 2:
				if err := s.Update(live[rng.Intn(len(live))], payload); err != nil {
					t.Fatal(err)
				}
			default:
				k := rng.Intn(len(live))
				if err := s.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pool.InvalidateAll() // crash: unflushed pages are lost
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := wal.OpenDir(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	var groups [][]wal.Record
	var cur []wal.Record
	if err := log2.ReplayTail(func(r wal.Record) error {
		cur = append(cur, r)
		if r.Op == wal.OpCommit || r.Op == wal.OpCheckpoint {
			groups = append(groups, cur)
			cur = nil
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 17 || len(cur) != 0 {
		t.Fatalf("tail holds %d groups and %d trailing records, want 17 and 0", len(groups), len(cur))
	}
	images := 0
	for _, g := range groups {
		for _, r := range g {
			if r.Op == wal.OpPageImage {
				images++
			}
		}
	}
	if images == 0 {
		t.Fatal("tail holds no page image; the workload does not cover image redo")
	}

	recovered := buffer.NewPool(16)
	recovered.Register(1, disk)
	if err := recoverLog(log2, recovered); err != nil {
		t.Fatal(err)
	}
	want := storeBytes(t, recovered)

	replica := buffer.NewPool(16)
	replica.Register(1, base)
	apply := func() {
		for _, g := range groups {
			term := g[len(g)-1].LSN
			for _, r := range g {
				if err := Redo(replica, r, term); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	apply()
	samePages(t, "replica apply vs recovery", storeBytes(t, replica), want)
	apply()
	samePages(t, "second replica apply", storeBytes(t, replica), want)

	s2 := New(Config{Pool: recovered, Seg: 1, Versioned: true, Clock: s.clock})
	for _, tid := range live {
		if _, err := s2.Read(tid); err != nil {
			t.Fatal(fmt.Errorf("live record %v after recovery: %w", tid, err))
		}
	}
}
