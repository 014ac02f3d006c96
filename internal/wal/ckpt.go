package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/segment"
)

// CheckpointInfo is the payload of an OpCheckpoint record: the state
// a fuzzy checkpoint captured. Recovery does not strictly need it —
// the record's position alone bounds the replay tail, because the
// engine only writes a checkpoint after every dirty page whose LSN
// precedes it has been flushed — but the horizon and the open
// transaction table make the checkpoint auditable by offline tools.
type CheckpointInfo struct {
	// Durable is the durable-LSN horizon at checkpoint time: every
	// log byte below it was fsync-acknowledged before the checkpoint
	// was written.
	Durable uint64
	// OpenTxns are the ids of the transactions open at checkpoint
	// time. Their writes are still buffered in memory (nothing of an
	// uncommitted transaction reaches the log), so recovery ignores
	// them; the table records which commits can still appear in the
	// tail.
	OpenTxns []uint64
}

// Encode serializes the checkpoint payload.
func (ci CheckpointInfo) Encode() []byte {
	b := binary.AppendUvarint(nil, ci.Durable)
	b = binary.AppendUvarint(b, uint64(len(ci.OpenTxns)))
	for _, id := range ci.OpenTxns {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

// DecodeCheckpointInfo parses a CheckpointInfo payload.
func DecodeCheckpointInfo(p []byte) (CheckpointInfo, bool) {
	var ci CheckpointInfo
	durable, n := binary.Uvarint(p)
	if n <= 0 {
		return ci, false
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return ci, false
	}
	p = p[n:]
	ci.Durable = durable
	for i := uint64(0); i < count; i++ {
		id, n := binary.Uvarint(p)
		if n <= 0 {
			return CheckpointInfo{}, false
		}
		p = p[n:]
		ci.OpenTxns = append(ci.OpenTxns, id)
	}
	return ci, true
}

// WriteCheckpoint appends a checkpoint record and makes it durable.
// In a rolling log the record is placed at the front of a fresh
// segment, so reopen finds it with an O(1) probe of each segment's
// first record; in a log that never rolls it lands mid-file and
// reopen finds it by scanning. On success the record becomes the new
// replay start and a new full-page-image era begins. The caller must
// have flushed every dirty page first — that ordering, not the
// payload, is what makes the records before the checkpoint dead
// weight.
func (l *Log) WriteCheckpoint(info CheckpointInfo) (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.cfg.SegmentBytes > 0 && l.nextLSN > l.active().base {
		if err := l.rollLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	r := Record{Op: OpCheckpoint, Payload: info.Encode()}
	if _, err := l.appendLocked(&r); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	if err := l.syncLocked(); err != nil {
		// The checkpoint record may be torn on disk; cut it so the log
		// state matches what callers were told. Reopen would reject a
		// torn checkpoint anyway (firstRecordOp checks the CRC).
		derr := l.discardLocked()
		l.mu.Unlock()
		if derr != nil {
			return 0, fmt.Errorf("wal: checkpoint sync failed (%v) and discard failed: %w", err, derr)
		}
		return 0, err
	}
	l.ckptLSN = r.LSN
	l.tailStart = r.LSN - 1
	l.imaged = make(map[imageKey]uint64)
	l.mu.Unlock()
	return r.LSN, nil
}

// Recycle retires log history recovery can no longer need: whole
// segments strictly below the last durable checkpoint, plus any stale
// files a crashed earlier recycle left below the chain. It removes
// oldest-first so a crash mid-way leaves a shorter retained history,
// never a gap. Without a checkpoint nothing is retired. Returns the
// number of files removed.
func (l *Log) Recycle() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.orphans) > 0 {
		if err := l.storage.Remove(l.orphans[0]); err != nil {
			return removed, err
		}
		l.orphans = l.orphans[1:]
		removed++
	}
	if l.ckptLSN == 0 {
		return removed, nil
	}
	// A segment is removable only when the next one starts at or
	// before the checkpoint record, i.e. the whole replay tail lives
	// in the segments that remain.
	for len(l.segs) > 1 && l.segs[1].base <= l.ckptLSN-1 {
		sf := l.segs[0]
		if err := l.storage.Remove(sf.name); err != nil {
			return removed, err
		}
		sf.f.Close()
		l.segs = l.segs[1:]
		removed++
	}
	return removed, nil
}

// EnsureImaged logs a full-page image for the page unless one was
// already logged in the current checkpoint era. The caller passes the
// page content BEFORE applying the operation it is about to log, so
// the image always captures committed pre-statement state (statements
// apply serially; an aborted statement's records — including its
// images — are cut from the log by rollback, which also forgets them
// here so the next toucher re-images). Recovery uses the image to
// rebuild a page it wiped without needing pre-checkpoint history.
func (l *Log) EnsureImaged(seg segment.ID, pageNo uint32, img []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := imageKey{seg: seg, page: pageNo}
	if _, ok := l.imaged[k]; ok {
		return nil
	}
	r := Record{Op: OpPageImage, Seg: seg, Page: pageNo, Payload: img}
	if _, err := l.appendLocked(&r); err != nil {
		return err
	}
	l.imaged[k] = r.LSN
	return nil
}
