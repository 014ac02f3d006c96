package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/wal"
)

// ErrReadOnlyReplica is returned for any write attempted on a read
// replica (Options.Replica): DML, DDL, and explicit transactions. The
// replica's state is entirely a function of the primary's shipped WAL;
// a local write would fork the two histories.
var ErrReadOnlyReplica = errors.New("engine: read replica is read-only")

// --- replica reads -------------------------------------------------------

// readExec returns the executor a read statement should run through:
// the database's own on a primary, and on a replica a fresh executor
// whose runtime pins this statement (or cursor) to the visibility
// horizon sampled now (snapshot.ts). Sampling once per call is what
// makes an open cursor snapshot-stable across concurrently applied
// groups.
func (db *DB) readExec() *exec.Executor {
	if !db.opts.Replica {
		return db.exec
	}
	return &exec.Executor{
		RT:        &runtime{db: db, snap: snapshot{ts: db.ReplCounters().VisibleTS.Load()}},
		FullPaths: db.exec.FullPaths,
	}
}

// --- replica apply -------------------------------------------------------

// ReplicaApply applies one commit-terminated WAL group shipped from
// the primary: raw holds the group's verbatim bytes starting at global
// offset start (which must equal the replica log's end — the stream is
// byte-contiguous), recs their decoded form, and the last record is
// the terminator (OpCommit or OpCheckpoint). The group's bytes are
// mirrored into the replica's log first (the write-ahead rule), then
// redone onto the pages; a crash between the two replays the group
// from the mirrored log on reopen.
//
// Groups that touch the catalog's meta segment (DDL) — or, defensively,
// a segment the replica has not seen — rebuild the runtime under the
// heal barrier, exactly like primary-side DDL. Plain commit groups
// apply without the barrier, so open cursors keep streaming.
func (db *DB) ReplicaApply(start uint64, raw []byte, recs []wal.Record) error {
	if !db.opts.Replica {
		return errors.New("engine: ReplicaApply on a non-replica database")
	}
	if len(recs) == 0 {
		return nil
	}
	term := recs[len(recs)-1]
	if term.Op != wal.OpCommit && term.Op != wal.OpCheckpoint {
		return fmt.Errorf("engine: shipped group ends with op %d, not a commit horizon", term.Op)
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if err := db.fatal(); err != nil {
		return err
	}
	meta := false
	for _, r := range recs {
		if r.Seg == 0 {
			continue
		}
		if r.Seg == catalog.MetaSegment {
			meta = true
			break
		}
		if _, ok := db.stores[r.Seg]; !ok {
			meta = true
			break
		}
	}
	if meta {
		db.healMu.Lock()
		defer db.healMu.Unlock()
	}
	apply := func(rs []wal.Record) error {
		for _, r := range rs {
			if r.Seg != 0 {
				if _, ok := db.stores[r.Seg]; !ok {
					if err := db.registerSegment(r.Seg, false); err != nil {
						return err
					}
				}
			}
			if err := subtuple.Redo(db.pool, r, term.LSN); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	switch term.Op {
	case wal.OpCommit:
		if err = db.log.MirrorAppend(start, raw); err == nil {
			err = apply(recs)
		}
	case wal.OpCheckpoint:
		// Everything before the checkpoint record mirrors and applies
		// like a plain group; then all pages are flushed so the
		// checkpoint is locally honest (recovery from it must not need
		// older history), and the record itself rolls the mirrored log
		// onto a fresh segment, allowing the dead ones to retire.
		termStart := term.LSN - 1
		pre := raw[:termStart-start]
		if len(pre) > 0 {
			err = db.log.MirrorAppend(start, pre)
		}
		if err == nil {
			err = apply(recs[:len(recs)-1])
		}
		if err == nil {
			err = db.pool.FlushAll()
		}
		if err == nil {
			err = db.log.MirrorCheckpoint(termStart, raw[termStart-start:])
		}
		if err == nil {
			_, err = db.log.Recycle()
		}
	}
	if err != nil {
		// A half-applied group leaves pages the next group cannot build
		// on; poison the handle like a failed rollback would.
		db.setFatal(fmt.Errorf("engine: replica apply at %d: %w", start, err))
		return err
	}
	if meta {
		if err := db.reloadRuntime(); err != nil {
			db.setFatal(fmt.Errorf("engine: replica reload at %d: %w", start, err))
			return err
		}
	}
	// Visibility first: a reader that saw AppliedLSN reach this group
	// must find its commit visible (ReplCounters).
	ctr := db.ReplCounters()
	if term.Op == wal.OpCommit {
		if _, ts, ok := wal.DecodeCommitPayload(term.Payload); ok && ts > 0 {
			ctr.NoteVisible(ts)
		}
	}
	ctr.AppliedLSN.Store(start + uint64(len(raw)))
	ctr.GroupsApplied.Add(1)
	return nil
}

// --- snapshots -----------------------------------------------------------

// ReplSnapSeg is one data segment's pages in a replication snapshot.
type ReplSnapSeg struct {
	ID    segment.ID
	Pages uint32
	Data  []byte // Pages * page.Size verbatim bytes, page 1 first
}

// ReplSnapshot is a checkpoint-consistent copy of the database: every
// segment's pages plus the WAL tail from the checkpoint the pages are
// consistent with. Restoring it (RestoreSnapshot) and replaying yields
// a byte-identical replica positioned at WALEnd. The snapshot is
// memory-resident — a deliberate prototype simplification; segment
// sizes here are bounded by the experiments, not production data.
type ReplSnapshot struct {
	Segs    []ReplSnapSeg
	WALBase uint64 // global offset of the first tail byte
	WAL     []byte // the checkpoint tail, [WALBase, WALEnd)
}

// WALEnd returns the offset replication resumes from after restore.
func (s *ReplSnapshot) WALEnd() uint64 { return s.WALBase + uint64(len(s.WAL)) }

// ReplicaSnapshot produces a snapshot for bootstrapping a follower. It
// checkpoints first (bounding the shipped tail), then under the apply
// lock flushes and reads every page — between statements, so the pages
// and the tail form exactly the state recovery reproduces.
func (db *DB) ReplicaSnapshot() (*ReplSnapshot, error) {
	if db.log == nil {
		return nil, errors.New("engine: replication requires a write-ahead log")
	}
	if db.opts.Replica {
		return nil, errors.New("engine: cascading replication is not supported")
	}
	if err := db.WALCheckpoint(); err != nil {
		return nil, err
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if err := db.fatal(); err != nil {
		return nil, err
	}
	if err := db.pool.FlushAll(); err != nil {
		return nil, err
	}
	if err := db.log.Sync(); err != nil {
		return nil, err
	}
	snap := &ReplSnapshot{WALBase: db.log.TailStart()}
	if end := db.log.SyncedThrough(); end > snap.WALBase {
		tail, err := db.log.ReadDurable(snap.WALBase, end)
		if err != nil {
			return nil, err
		}
		snap.WAL = tail
	}
	ids := make([]segment.ID, 0, len(db.stores))
	for id := range db.stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := db.pool.Store(id)
		if st == nil {
			continue
		}
		n := st.PageCount()
		data := make([]byte, int(n)*page.Size)
		for p := uint32(1); p <= n; p++ {
			if err := st.ReadPage(p, data[int(p-1)*page.Size:int(p)*page.Size]); err != nil {
				return nil, fmt.Errorf("engine: snapshot read seg %d page %d: %w", id, p, err)
			}
		}
		snap.Segs = append(snap.Segs, ReplSnapSeg{ID: id, Pages: n, Data: data})
	}
	db.ReplCounters().SnapshotsServed.Add(1)
	return snap, nil
}

// dbFile reports whether a file of a database directory belongs to the
// database: a segment file or a log segment.
func dbFile(name string) bool {
	return strings.HasSuffix(name, ".log") || (strings.HasPrefix(name, "seg_") && strings.HasSuffix(name, ".dat"))
}

// HasDatabase reports whether dir holds a database: a segment file or
// a log segment. A missing or unreadable directory holds none.
func HasDatabase(dir string) bool {
	entries, _ := os.ReadDir(dir)
	return slices.ContainsFunc(entries, func(e os.DirEntry) bool { return dbFile(e.Name()) })
}

// RestoreSnapshot materializes a snapshot into dir, replacing any
// database already there: segment files are written verbatim (page
// LSNs and checksums travel with the bytes) and the WAL tail becomes
// the single retained log segment, named for its global base so the
// offsets keep meaning across the wire. Opening dir afterwards — with
// Options.Replica to keep following, or without to promote the
// follower to a standalone primary — runs ordinary recovery over it.
func RestoreSnapshot(dir string, snap *ReplSnapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if dbFile(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	for _, s := range snap.Segs {
		if len(s.Data) != int(s.Pages)*page.Size {
			return fmt.Errorf("engine: snapshot seg %d: %d bytes for %d pages", s.ID, len(s.Data), s.Pages)
		}
		st, err := segment.OpenFileStore(filepath.Join(dir, fmt.Sprintf("seg_%d.dat", s.ID)))
		if err != nil {
			return err
		}
		for p := uint32(1); p <= s.Pages; p++ {
			if err := st.WritePage(p, s.Data[int(p-1)*page.Size:int(p)*page.Size]); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Sync(); err != nil {
			st.Close()
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, wal.SegFileName(snap.WALBase)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(snap.WAL); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
