// Package wal implements a write-ahead log with record-level redo
// logging. Every subtuple operation (insert, update, delete) is
// logged before it is applied to a page; dirty pages may only be
// written back after the log records that dirtied them are on stable
// storage (enforced through the buffer pool's flush hook). Recovery
// replays the log in order onto the pages, applying a record only
// when the page's LSN shows it has not been applied yet, and stops at
// the last commit record.
//
// The log is a chain of bounded segment files over a Storage
// namespace. LSNs are global byte offsets across the whole chain, so
// rolling to a new segment changes nothing for the record format or
// for page LSNs; records never span segment files, which keeps every
// segment independently scannable and lets whole segments below the
// checkpoint horizon be retired (Recycle). Checkpoint records are the
// recovery starting points: WriteCheckpoint places one at the front
// of a fresh segment and ReplayTail streams only the records from the
// last complete checkpoint onward.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/segment"
)

// Op is the kind of a log record.
type Op byte

// Log record kinds. Slot-level physical redo operations plus
// transaction control and recovery-bound records.
const (
	OpInsert Op = iota + 1
	OpUpdate
	OpDelete
	OpCommit
	OpCheckpoint
	// OpPageImage carries a full page image of the committed
	// pre-statement state of a page, logged once per page per
	// checkpoint era at the page's first modification. Recovery uses
	// it to rebuild pages it had to wipe without replaying history
	// from before the checkpoint.
	OpPageImage
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpCommit:
		return "COMMIT"
	case OpCheckpoint:
		return "CHECKPOINT"
	case OpPageImage:
		return "PAGEIMAGE"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Record is one log entry. For page operations Seg/Page/Slot address
// the affected slot and Payload carries the full record image (empty
// for deletes).
type Record struct {
	LSN     uint64 // byte offset of the record in the log file
	Op      Op
	Seg     segment.ID
	Page    uint32
	Slot    uint16
	Payload []byte
}

// CommitPayload encodes the transaction id and commit timestamp a
// transaction's OpCommit record carries. Recovery does not need it —
// a commit record's mere presence makes the preceding operations
// durable — but the stamps let offline tools (and tests) attribute
// each committed batch to its transaction.
func CommitPayload(txn uint64, ts int64) []byte {
	b := binary.AppendUvarint(nil, txn)
	return binary.AppendVarint(b, ts)
}

// DecodeCommitPayload parses a CommitPayload. A nil/empty payload
// (the pre-transaction commit format) decodes as (0, 0, true).
func DecodeCommitPayload(p []byte) (txn uint64, ts int64, ok bool) {
	if len(p) == 0 {
		return 0, 0, true
	}
	txn, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, false
	}
	ts, m := binary.Varint(p[n:])
	if m <= 0 {
		return 0, 0, false
	}
	return txn, ts, true
}

// File is the backing storage of a log segment: an append-position
// writer with random-access reads. *os.File implements it;
// crash-simulation harnesses substitute fault-injecting
// implementations.
type File interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// segFile is one segment of the chain: a file whose first byte is the
// global log offset base.
type segFile struct {
	name string
	base uint64
	size int64 // bytes in the file (for the active segment, maintained lazily)
	f    File
}

// imageKey identifies a page for the once-per-era full-page-image
// bookkeeping.
type imageKey struct {
	seg  segment.ID
	page uint32
}

// Log is an append-only write-ahead log backed by a chain of segment
// files.
type Log struct {
	mu      sync.Mutex
	storage Storage
	cfg     Config
	segs    []*segFile // ascending base; the last one is the active segment
	orphans []string   // stale files below the chain, deleted on the next Recycle
	w       *bufio.Writer
	nextLSN uint64 // == total chain size including buffered bytes

	// ckptLSN is the LSN of the last durable checkpoint record (0:
	// none); tailStart is the byte offset recovery replays from.
	ckptLSN   uint64
	tailStart uint64
	// imaged maps pages to the LSN of their full-page image in the
	// current checkpoint era; entries are pruned when truncation cuts
	// the image and cleared when a checkpoint starts a new era.
	imaged map[imageKey]uint64

	// flushed is the LSN boundary known to be on stable storage. It is
	// written under mu but read atomically, so the buffer pool's
	// write-ahead check (EnsureDurable) can confirm an already-durable
	// LSN without serializing concurrent evictions on the log mutex.
	flushed atomic.Uint64
	// epoch counts truncations that discarded appended-but-unflushed
	// bytes. A group-commit waiter snapshots it at append; a change
	// while waiting means its record was physically cut (statement
	// rollback), so the commit is lost, not merely slow.
	epoch atomic.Uint64
	// syncs counts fsyncs of the log; the group-commit benchmark reads
	// it to show batching (commits per fsync).
	syncs atomic.Uint64

	// syncMu serializes group-commit leaders and excludes them while
	// DiscardUnflushed cuts the log. Lock order: syncMu before mu.
	syncMu sync.Mutex

	// cuts and tailCh serve tail-following replication readers (see
	// tail.go): cuts is a suffix-min stack of truncation points so a
	// cursor can regress past a cut, tailCh is the lazily-created
	// broadcast channel closed whenever the durable horizon advances
	// or the chain is reshaped. Both are guarded by mu.
	cuts   []tailCut
	tailCh chan struct{}
}

// header: totalLen uint32 | crc uint32; body: op 1 | seg 2 | page 4 |
// slot 2 | payloadLen uint32 | payload.
const recHeader = 8

// Size returns the record's on-disk length including the header.
func (r *Record) Size() int { return recHeader + 13 + len(r.Payload) }

func (l *Log) active() *segFile { return l.segs[len(l.segs)-1] }

// Append writes the record to the log buffer and returns its LSN. The
// record is durable only after Sync.
func (l *Log) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r *Record) (uint64, error) {
	body := make([]byte, 0, 13+len(r.Payload))
	body = append(body, byte(r.Op))
	body = binary.LittleEndian.AppendUint16(body, uint16(r.Seg))
	body = binary.LittleEndian.AppendUint32(body, r.Page)
	body = binary.LittleEndian.AppendUint16(body, r.Slot)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(r.Payload)))
	body = append(body, r.Payload...)

	// Roll before the record would cross the segment bound, so records
	// never span files. An oversized record gets a fresh segment of
	// its own.
	size := uint64(recHeader + len(body))
	if l.cfg.SegmentBytes > 0 && l.nextLSN > l.active().base &&
		int64(l.nextLSN-l.active().base)+int64(size) > l.cfg.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
	}

	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(body); err != nil {
		return 0, err
	}
	// LSNs are 1-based (file offset + 1) so that a page LSN of zero
	// always means "nothing applied yet".
	r.LSN = l.nextLSN + 1
	l.nextLSN += size
	return r.LSN, nil
}

// rollLocked closes out the active segment (flushing and syncing it,
// so a later segment always implies a complete predecessor) and opens
// the next one at the current append position.
func (l *Log) rollLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.active().f.Sync(); err != nil {
		return err
	}
	l.flushed.Store(l.nextLSN)
	l.syncs.Add(1)
	name := segName(l.nextLSN)
	f, err := l.storage.Open(name)
	if err != nil {
		return err
	}
	f = WithRetry(f, l.cfg.Retry)
	// A crashed recycle or truncation can leave a stale file under the
	// same name; start clean.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.active().size = int64(l.nextLSN - l.active().base)
	l.segs = append(l.segs, &segFile{name: name, base: l.nextLSN, f: f})
	l.w.Reset(f)
	l.notifyTailLocked()
	return nil
}

// Sync forces all appended records to stable storage.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncUnderLeader()
}

// syncUnderLeader makes all appended records durable. The caller
// holds syncMu — which every truncation path (DiscardUnflushed,
// AbandonCommit, checkpoint failure) also takes, so the captured file
// cannot be cut mid-sync. The buffered writer is flushed under the
// log mutex, but the device sync itself runs without it: appends —
// and therefore whole statements — proceed while the fsync is in
// flight, which is what lets group commit pipeline. flushed advances
// by CAS-max because a concurrent segment roll also publishes it.
func (l *Log) syncUnderLeader() error {
	l.mu.Lock()
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return err
	}
	f := l.active().f
	target := l.nextLSN
	l.mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	for {
		cur := l.flushed.Load()
		if cur >= target || l.flushed.CompareAndSwap(cur, target) {
			break
		}
	}
	l.syncs.Add(1)
	l.mu.Lock()
	l.notifyTailLocked()
	l.mu.Unlock()
	return nil
}

// syncLocked is the fully-locked variant for callers that need the
// sync atomic with other log-state changes (checkpointing, close).
func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.active().f.Sync(); err != nil {
		return err
	}
	l.flushed.Store(l.nextLSN)
	l.syncs.Add(1)
	l.notifyTailLocked()
	return nil
}

// SyncedThrough returns the LSN boundary known durable; used by the
// buffer pool flush hook to enforce the write-ahead rule.
func (l *Log) SyncedThrough() uint64 {
	return l.flushed.Load()
}

// End returns the log's append position (one past the LSN of the last
// appended record); every valid page LSN is strictly below End()+1.
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// SegmentCount returns the number of retained segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// CheckpointLSN returns the LSN of the last durable checkpoint record
// (0 when none exists).
func (l *Log) CheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptLSN
}

// TailStart returns the byte offset recovery replays from: the start
// of the last complete checkpoint record, or the start of the oldest
// retained segment when no checkpoint exists.
func (l *Log) TailStart() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailStart
}

// Syncs returns the number of fsyncs the log has issued.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// EnsureDurable syncs the log if lsn is not yet durable. The
// already-durable check is a lock-free atomic load: dirty-page
// evictions from independent buffer shards whose LSNs are long since
// synced confirm the write-ahead rule without touching the log mutex.
func (l *Log) EnsureDurable(lsn uint64) error {
	if lsn < l.flushed.Load() {
		return nil
	}
	return l.Sync()
}

// TruncateTail discards every record at or beyond the byte offset
// off. Recovery uses it to drop the records of statements that never
// committed: if they stayed in the log, a commit record appended by
// a later statement would retroactively "commit" them, resurrecting
// the aborted effects on the next recovery. Whole segments above the
// cut are removed (newest first, so a crash mid-way never leaves a
// gap in the chain).
func (l *Log) TruncateTail(off uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncateTailLocked(off)
}

func (l *Log) truncateTailLocked(off uint64) error {
	if off >= l.nextLSN {
		return nil
	}
	if off < l.segs[0].base {
		off = l.segs[0].base
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	for len(l.segs) > 1 && l.active().base >= off {
		sf := l.active()
		sf.f.Close()
		if err := l.storage.Remove(sf.name); err != nil {
			return err
		}
		l.segs = l.segs[:len(l.segs)-1]
	}
	a := l.active()
	if err := a.f.Truncate(int64(off - a.base)); err != nil {
		return err
	}
	if _, err := a.f.Seek(int64(off-a.base), io.SeekStart); err != nil {
		return err
	}
	a.size = int64(off - a.base)
	l.nextLSN = off
	l.epoch.Add(1)
	l.noteCutLocked(off)
	if l.flushed.Load() > off {
		l.flushed.Store(off)
	}
	if l.ckptLSN > off {
		l.ckptLSN = 0
		l.tailStart = l.segs[0].base
	}
	for k, lsn := range l.imaged {
		if lsn > off {
			delete(l.imaged, k)
		}
	}
	l.w.Reset(a.f)
	return nil
}

// DiscardUnflushed cuts the log back to the last boundary a Sync
// acknowledged: it drops the append buffer (partial or complete
// records that never reached the file, plus any sticky write error a
// failed flush left in the buffered writer) and truncates the file
// over everything written but never fsync-acknowledged. Statement
// abort uses it: every successful statement ends with an acknowledged
// commit sync, so everything past the flushed boundary belongs to the
// failed statement — crucially including a complete commit record
// whose own fsync failed, which must not count as committed once the
// statement has reported failure. It takes the group-commit leader
// lock first, so no concurrent committer can fsync the doomed bytes
// while the cut is in progress.
func (l *Log) DiscardUnflushed() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.discardLocked()
}

func (l *Log) discardLocked() error {
	a := l.active()
	l.w.Reset(a.f)
	// Unflushed bytes only ever live in the active segment: rolling
	// syncs the predecessor before the new segment accepts a byte.
	flushed := l.flushed.Load()
	cut := l.nextLSN > flushed
	if err := a.f.Truncate(int64(flushed - a.base)); err != nil {
		return err
	}
	if _, err := a.f.Seek(int64(flushed-a.base), io.SeekStart); err != nil {
		return err
	}
	a.size = int64(flushed - a.base)
	l.nextLSN = flushed
	if cut {
		l.epoch.Add(1)
		l.noteCutLocked(flushed)
		for k, lsn := range l.imaged {
			if lsn > flushed {
				delete(l.imaged, k)
			}
		}
	}
	return nil
}

var errTorn = errors.New("wal: torn record at end of log")

// chainReader returns a reader over the chain's bytes from global
// offset start; sizes must be current for every segment.
func chainReader(segs []*segFile, start uint64) io.Reader {
	var parts []io.Reader
	for _, sf := range segs {
		end := sf.base + uint64(sf.size)
		if end <= start {
			continue
		}
		from := int64(0)
		if start > sf.base {
			from = int64(start - sf.base)
		}
		parts = append(parts, io.NewSectionReader(sf.f, from, int64(end-sf.base)-from))
	}
	return io.MultiReader(parts...)
}

// readerFrom prepares a snapshot reader from global offset off; the
// append buffer is flushed so buffered records are visible.
func (l *Log) readerFrom(off uint64) (io.Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return nil, err
	}
	a := l.active()
	a.size = int64(l.nextLSN - a.base)
	segs := append([]*segFile(nil), l.segs...)
	return chainReader(segs, off), nil
}

// Replay streams every complete record of the retained chain in LSN
// order. After recycling this starts at the oldest retained segment,
// not offset zero; ReplayTail starts at the last checkpoint.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	start := l.segs[0].base
	l.mu.Unlock()
	return l.replayFrom(start, fn)
}

// ReplayTail streams the records recovery must consider: from the
// last complete checkpoint record (inclusive) to the end of the log.
func (l *Log) ReplayTail(fn func(Record) error) error {
	l.mu.Lock()
	start := l.tailStart
	if start < l.segs[0].base {
		start = l.segs[0].base
	}
	l.mu.Unlock()
	return l.replayFrom(start, fn)
}

func (l *Log) replayFrom(off uint64, fn func(Record) error) error {
	r, err := l.readerFrom(off)
	if err != nil {
		return err
	}
	err = replayReader(r, off, fn)
	if errors.Is(err, errTorn) {
		return nil
	}
	return err
}

// replayReader decodes complete records from r, whose first byte is
// the global log offset start, stopping with errTorn at a torn or
// corrupt tail.
func replayReader(r io.Reader, start uint64, fn func(Record) error) error {
	br := bufio.NewReader(r)
	pos := start
	for {
		rec, err := readFrame(br, pos)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		pos += uint64(rec.Size())
	}
}

// firstRecordOp reads the op of the first record in a segment file,
// verifying the record is complete (CRC included); ok is false for an
// empty, torn, or corrupt front. A genuine read error is returned as
// such — only a short file demotes to ok=false, so a transient I/O
// fault can never silently move the replay start.
func firstRecordOp(f File) (Op, bool, error) {
	rec, err := readFrame(io.NewSectionReader(f, 0, 1<<62), 0)
	switch {
	case err == nil:
		return rec.Op, true, nil
	case errors.Is(err, io.EOF) || errors.Is(err, errTorn):
		return 0, false, nil
	default:
		return 0, false, err
	}
}

// Every record is one frame: an 8-byte header (body length, CRC-32 of
// the body) and a body of op, segment, page, slot and payload length
// (13 bytes) followed by the payload, as appendLocked writes it. The
// three readers of frames — replay, the segment probe and the decoder
// of shipped bytes — check them with frameLen and decodeFrame.

// frameLen returns the body length a frame header claims, or an error
// when it lies outside what appendLocked can write.
func frameLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n < 13 || n > 1<<26 {
		return 0, fmt.Errorf("length %d", n)
	}
	return int(n), nil
}

// decodeFrame checks a frame's body against its header's CRC and the
// body layout, and decodes it as the record at global offset pos. The
// payload aliases body.
func decodeFrame(hdr, body []byte, pos uint64) (Record, error) {
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:]) {
		return Record{}, errors.New("bad checksum")
	}
	if int(binary.LittleEndian.Uint32(body[9:])) != len(body)-13 {
		return Record{}, errors.New("payload length mismatch")
	}
	return Record{
		LSN:     pos + 1,
		Op:      Op(body[0]),
		Seg:     segment.ID(binary.LittleEndian.Uint16(body[1:])),
		Page:    binary.LittleEndian.Uint32(body[3:]),
		Slot:    binary.LittleEndian.Uint16(body[7:]),
		Payload: body[13:],
	}, nil
}

// readFrame reads the frame at global offset pos from r. It returns
// io.EOF at a clean end and errTorn for a short, out-of-bounds or
// corrupt frame. A real I/O error is returned as such: it must not
// masquerade as a torn tail, because recovery truncates at the torn
// point and doing that on a transient read failure would cut off
// committed records.
func readFrame(r io.Reader, pos uint64) (Record, error) {
	var hdr [recHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, readErr(err, pos)
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return Record{}, errTorn
	}
	// Read the body incrementally so a corrupt length claim cannot
	// force a huge up-front allocation.
	body, err := readExact(r, n)
	if err != nil {
		return Record{}, readErr(err, pos)
	}
	rec, err := decodeFrame(hdr[:], body, pos)
	if err != nil {
		return Record{}, errTorn
	}
	return rec, nil
}

// readErr classifies a failed read inside a frame: running out of
// bytes is a torn frame, anything else a read error.
func readErr(err error, pos uint64) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errTorn
	}
	return fmt.Errorf("wal: read log at offset %d: %w", pos, err)
}

// readExact reads exactly n bytes, growing the buffer as bytes
// actually arrive (bounded by the real data, not the claimed length).
func readExact(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Close flushes and closes every segment file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.closeFilesLocked()
}

// Abandon closes every segment file without flushing the append
// buffer: records appended but never written are dropped, as a crash
// drops them. A failed engine open uses it to release the log.
func (l *Log) Abandon() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeFilesLocked()
}

func (l *Log) closeFilesLocked() error {
	var first error
	for _, sf := range l.segs {
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
