// Package corruptsim plans silent storage corruption — the faults a
// checksum-less DBMS would never notice — against an on-disk database:
//
//   - BitFlip: media rot flips a byte of a durable page image.
//   - ZeroPage: a page reads back as zeroes (unwritten/remapped block).
//   - LostWrite: the device acks a page write and drops it; the page
//     keeps its previous, stale-but-well-formed image.
//   - MisdirectedWrite: a page write lands on the wrong block, so one
//     page is stale and another holds a page sealed for a different
//     identity.
//
// The kinds are simkit.PageFault kinds. At-rest faults (BitFlip,
// ZeroPage) are rot of a file, not of an I/O path: Plan aims them and
// Inject applies them to segment files between runs. Write-path faults
// (LostWrite, MisdirectedWrite) need a live write to subvert: WritePath
// aims them, and the matrix arms them on a simkit.Injector wrapping the
// engine's file stores, which fires each on the next write of its page.
//
// The corruption-matrix test drives hundreds of seeded fault points
// through this package and asserts the paper-prototype's robustness
// contract: corruption may cost availability of the damaged object
// (typed errors, repairable loss) but never a silently wrong answer.
package corruptsim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/simkit"
)

func segPath(dir string, id segment.ID) string {
	return filepath.Join(dir, fmt.Sprintf("seg_%d.dat", id))
}

// Pages enumerates the segments of the database under dir and their
// durable page counts.
func Pages(dir string) (map[segment.ID]uint32, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[segment.ID]uint32)
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg_") || !strings.HasSuffix(name, ".dat") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg_"), ".dat"))
		if err != nil {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[segment.ID(id)] = uint32(fi.Size() / page.Size)
	}
	return out, nil
}

// pagedSegments returns the segments holding durable pages, in order.
func pagedSegments(dir string) (map[segment.ID]uint32, []segment.ID, error) {
	counts, err := Pages(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []segment.ID
	for id, c := range counts {
		if c > 0 {
			segs = append(segs, id)
		}
	}
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("corruptsim: no durable pages under %s", dir)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return counts, segs, nil
}

// Plan generates n seeded at-rest fault points of the given kinds
// (round robin) aimed at existing pages of the database under dir.
func Plan(seed int64, dir string, kinds []simkit.PageFaultKind, n int) ([]simkit.PageFault, error) {
	for _, k := range kinds {
		if k != simkit.BitFlip && k != simkit.ZeroPage {
			return nil, fmt.Errorf("corruptsim: %v is a write-path fault; aim it with WritePath", k)
		}
	}
	counts, segs, err := pagedSegments(dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	faults := make([]simkit.PageFault, 0, n)
	for i := 0; i < n; i++ {
		id := segs[rng.Intn(len(segs))]
		faults = append(faults, simkit.PageFault{
			Seg:  id,
			Page: 1 + uint32(rng.Intn(int(counts[id]))),
			Kind: kinds[i%len(kinds)],
			Off:  rng.Intn(page.Size),
		})
	}
	return faults, nil
}

// WritePath aims one write-path fault of kind at every durable page of
// the database under dir. A misdirected write lands on a seeded other
// page of its segment — never its own page, which would corrupt
// nothing — so a one-page segment gets none.
func WritePath(seed int64, dir string, kind simkit.PageFaultKind) ([]simkit.PageFault, error) {
	counts, segs, err := pagedSegments(dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var faults []simkit.PageFault
	for _, id := range segs {
		c := counts[id]
		if kind == simkit.MisdirectedWrite && c < 2 {
			continue
		}
		for p := uint32(1); p <= c; p++ {
			f := simkit.PageFault{Seg: id, Page: p, Kind: kind}
			if kind == simkit.MisdirectedWrite {
				if f.Target = 1 + uint32(rng.Intn(int(c-1))); f.Target >= p {
					f.Target++
				}
			}
			faults = append(faults, f)
		}
	}
	return faults, nil
}

// Inject applies an at-rest fault (BitFlip or ZeroPage) to the
// durable segment file under dir.
func Inject(dir string, f simkit.PageFault) error {
	fl, err := os.OpenFile(segPath(dir, f.Seg), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer fl.Close()
	off := int64(f.Page-1) * page.Size
	switch f.Kind {
	case simkit.BitFlip:
		b := make([]byte, 1)
		if _, err := fl.ReadAt(b, off+int64(f.Off)); err != nil {
			return err
		}
		b[0] ^= 0xFF
		_, err = fl.WriteAt(b, off+int64(f.Off))
		return err
	case simkit.ZeroPage:
		_, err = fl.WriteAt(make([]byte, page.Size), off)
		return err
	}
	return fmt.Errorf("corruptsim: %v is a write-path fault; arm it on a simkit.Injector", f.Kind)
}
