package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/segment"
)

// ErrMissingSegment reports that the on-disk log is not a usable
// chain: a segment recovery needs is gone (recycled too eagerly,
// deleted by hand, or lost to filesystem damage) and no complete
// checkpoint exists to restart the chain after the gap. It is a typed
// error so callers can distinguish "the log is gone" from silent
// replay of a truncated history.
var ErrMissingSegment = errors.New("wal: missing log segment")

// Storage is the namespace a segmented log lives in: a flat set of
// named files. DirStorage maps it onto a directory; crash-simulation
// harnesses substitute fault-injecting implementations so segment
// creation and retirement are themselves crash points.
type Storage interface {
	// Open opens (or creates) the named segment file.
	Open(name string) (File, error)
	// Remove deletes the named segment file.
	Remove(name string) error
	// List returns the names of the existing segment files, in any
	// order.
	List() ([]string, error)
}

// legacySegName is the name of the base-0 segment. It is the same
// name the pre-segmented log used for its single file, so a database
// written before segmenting opens as a one-segment chain.
const legacySegName = "wal.log"

const segSuffix = ".log"

// segName returns the file name of the segment whose first byte is
// the global log offset base. Rolled segments carry their base offset
// in the name so the chain can be rebuilt from a directory listing.
func segName(base uint64) string {
	if base == 0 {
		return legacySegName
	}
	return fmt.Sprintf("wal-%020d%s", base, segSuffix)
}

// parseSegName inverts segName; ok is false for files that are not
// log segments.
func parseSegName(name string) (base uint64, ok bool) {
	if name == legacySegName {
		return 0, true
	}
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), segSuffix)
	if len(digits) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// DirStorage is the production Storage: segment files in a directory.
type DirStorage struct {
	dir string
}

// NewDirStorage returns a Storage over dir.
func NewDirStorage(dir string) *DirStorage { return &DirStorage{dir: dir} }

func (d *DirStorage) Open(name string) (File, error) {
	path := filepath.Join(d.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return f, nil
}

func (d *DirStorage) Remove(name string) error {
	return os.Remove(filepath.Join(d.dir, name))
}

func (d *DirStorage) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", d.dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Config tunes a segmented log.
type Config struct {
	// SegmentBytes rolls the log to a new segment file when appending
	// a record would grow the active segment past this size. Zero
	// disables rolling (one unbounded segment). A record larger than
	// SegmentBytes is written whole into a fresh segment of its own —
	// records never span segment files.
	SegmentBytes int64
	// Retry wraps every segment file so transient faults are retried.
	Retry segment.RetryPolicy
}

// OpenStorage opens a segmented log over st. It lists the segments,
// picks the replay start — the newest segment whose first record is a
// complete checkpoint, falling back to older checkpoints if the
// newest is torn, or to segment zero when no checkpoint exists —
// verifies the chain is contiguous from there, scans the tail for the
// end of the last complete record, and truncates torn bytes. Segments
// below the replay chain that are no longer contiguous (left behind
// by a crash during recycling) are ignored and deleted on the next
// Recycle. A gap inside the replay chain, or a missing segment zero
// with no checkpoint to restart from, is ErrMissingSegment.
func OpenStorage(st Storage, cfg Config) (*Log, error) {
	names, err := st.List()
	if err != nil {
		return nil, err
	}
	bases := make(map[string]uint64, len(names))
	var segNames []string
	for _, name := range names {
		base, ok := parseSegName(name)
		if !ok {
			continue
		}
		bases[name] = base
		segNames = append(segNames, name)
	}
	sort.Slice(segNames, func(i, j int) bool { return bases[segNames[i]] < bases[segNames[j]] })
	if len(segNames) == 0 {
		segNames = []string{legacySegName}
		bases[legacySegName] = 0
	}

	var segs []*segFile
	fail := func(err error) (*Log, error) {
		for _, sf := range segs {
			sf.f.Close()
		}
		return nil, err
	}
	for _, name := range segNames {
		f, err := st.Open(name)
		if err != nil {
			return fail(err)
		}
		f = WithRetry(f, cfg.Retry)
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return fail(err)
		}
		segs = append(segs, &segFile{name: name, base: bases[name], size: size, f: f})
	}

	// Replay start: the newest segment opening with a complete
	// checkpoint record. A torn checkpoint never becomes the start —
	// firstRecordOp rejects it and the probe falls back to the
	// previous one.
	si := -1
	for i := len(segs) - 1; i >= 0; i-- {
		op, ok, err := firstRecordOp(segs[i].f)
		if err != nil {
			return fail(fmt.Errorf("wal: probing %s for a checkpoint: %w", segs[i].name, err))
		}
		if ok && op == OpCheckpoint {
			si = i
			break
		}
	}
	if si == -1 {
		if segs[0].base != 0 {
			return fail(fmt.Errorf("%w: no checkpoint found and segment at offset 0 is gone (oldest is %s)", ErrMissingSegment, segs[0].name))
		}
		si = 0
	}
	// The chain must be contiguous from the replay start forward.
	for j := si + 1; j < len(segs); j++ {
		if segs[j].base != segs[j-1].base+uint64(segs[j-1].size) {
			return fail(fmt.Errorf("%w: gap between %s (ends at %d) and %s (starts at %d)",
				ErrMissingSegment, segs[j-1].name, segs[j-1].base+uint64(segs[j-1].size), segs[j].name, segs[j].base))
		}
	}
	// Retain contiguous history below the start (not yet recycled);
	// anything older with a gap is an orphan a crashed recycle left
	// behind.
	k := si
	for k > 0 && segs[k-1].base+uint64(segs[k-1].size) == segs[k].base {
		k--
	}
	var orphans []string
	for _, sf := range segs[:k] {
		sf.f.Close()
		orphans = append(orphans, sf.name)
	}
	segs = segs[k:]
	si -= k

	l := &Log{
		storage: st,
		cfg:     cfg,
		segs:    segs,
		orphans: orphans,
		imaged:  make(map[imageKey]uint64),
	}
	last := segs[len(segs)-1]
	l.nextLSN = last.base + uint64(last.size)
	l.w = bufio.NewWriter(last.f)

	// Scan the tail for the end of the last complete record and the
	// last complete checkpoint.
	end := segs[si].base
	var ckpt uint64
	err = replayReader(chainReader(segs, segs[si].base), segs[si].base, func(r Record) error {
		end = (r.LSN - 1) + uint64(r.Size())
		if r.Op == OpCheckpoint {
			ckpt = r.LSN
		}
		return nil
	})
	if err != nil && !errors.Is(err, errTorn) {
		return fail(err)
	}
	if err := l.truncateTailLocked(end); err != nil {
		return fail(err)
	}
	l.flushed.Store(end)
	l.ckptLSN = ckpt
	l.tailStart = segs[0].base
	if ckpt > 0 {
		l.tailStart = ckpt - 1
	}
	return l, nil
}

// OpenDir opens a segmented log stored as wal.log / wal-*.log files
// inside dir.
func OpenDir(dir string, cfg Config) (*Log, error) {
	return OpenStorage(NewDirStorage(dir), cfg)
}
