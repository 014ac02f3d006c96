// Package scrub implements the online structural scrubber: a
// read-only audit that walks every durable page, every catalog entry,
// every object directory, every complex object's Mini-Directory tree,
// every flat tuple, and every index, cross-checking each layer
// against the layers below and reporting a typed finding per fault.
//
// The scrubber never repairs anything itself; it observes. With
// Options.Quarantine set it records broken objects in the engine's
// quarantine set (so later reads fail fast with a typed error instead
// of re-visiting rot) and takes diverging indexes out of service —
// both containment actions, not repairs. aimdoctor drives the actual
// repair using the scrubber's report.
package scrub

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/textindex"
)

// Kind classifies a finding by the cross-check that produced it.
type Kind string

// The scrubber's finding kinds, one per cross-check.
const (
	// PageChecksum: a durable page image fails its identity-bound
	// checksum (bit rot, torn write, or a misdirected write carrying
	// another page's identity).
	PageChecksum Kind = "page-checksum"
	// PageStructure: the page checksums correctly but its slot
	// directory or free-space bounds are inconsistent (software fault
	// sealed into the page).
	PageStructure Kind = "page-structure"
	// PageLSN: the page carries an LSN beyond the end of the log —
	// an impossible future write.
	PageLSN Kind = "page-lsn"
	// Directory: a chunk of a table's object directory cannot be read
	// or decoded.
	Directory Kind = "directory"
	// Object: a complex object fails to materialize — its Mini-
	// Directory tree, data subtuples, or page list is broken.
	Object Kind = "object"
	// Tuple: a flat table's tuple fails to decode.
	Tuple Kind = "flat-tuple"
	// Schema: a tuple or object materializes but violates its
	// cataloged type.
	Schema Kind = "schema"
	// IndexDiverged: a live value index disagrees with an index
	// freshly rebuilt from base data.
	IndexDiverged Kind = "index-diverged"
	// TextDiverged: a live text index disagrees with a fresh rebuild.
	TextDiverged Kind = "text-index-diverged"
	// IndexDegraded: the index is out of service (it could not be
	// rebuilt at startup, or a prior scrub degraded it).
	IndexDegraded Kind = "index-degraded"
	// IndexUnbuildable: the shadow rebuild itself failed because the
	// base data is corrupt; the live index cannot be cross-checked.
	IndexUnbuildable Kind = "index-unbuildable"
)

// Finding is one detected fault, locating it as precisely as the
// failing cross-check allows.
type Finding struct {
	Kind   Kind   `json:"kind"`
	Seg    uint16 `json:"seg,omitempty"`
	Page   uint32 `json:"page,omitempty"`
	Table  string `json:"table,omitempty"`
	Ref    string `json:"ref,omitempty"`
	Index  string `json:"index,omitempty"`
	Detail string `json:"detail"`
}

// Report is the machine-readable scrub result.
type Report struct {
	Findings []Finding `json:"findings"`
	// Counters prove coverage: what the scrub actually visited.
	PagesScanned   int `json:"pages_scanned"`
	TablesChecked  int `json:"tables_checked"`
	ObjectsChecked int `json:"objects_checked"`
	TuplesChecked  int `json:"tuples_checked"`
	IndexesChecked int `json:"indexes_checked"`
	// Clean is true when no findings were recorded.
	Clean bool `json:"clean"`
}

// Options configures a scrub run.
type Options struct {
	// Quarantine records broken objects in the engine's quarantine set
	// and degrades diverging indexes, so the live engine contains the
	// damage the scrub found. Off = pure observation.
	Quarantine bool
	// SkipIndexes skips the index cross-check (which rebuilds every
	// index from base data and is the most expensive pass).
	SkipIndexes bool
}

// Run audits the database and returns the report. It runs online,
// holding the shared statement lock (queries proceed, mutating
// statements wait), and flushes dirty pages first so the physical
// pass verifies the actual durable images.
func Run(db *engine.DB, opts Options) (*Report, error) {
	r := &Report{}
	var degrade []degradeReq
	err := db.View(func() error {
		if err := db.Checkpoint(); err != nil {
			return fmt.Errorf("scrub: checkpoint before physical pass: %w", err)
		}
		scrubPages(db, r)
		scrubTables(db, opts, r)
		if !opts.SkipIndexes {
			degrade = scrubIndexes(db, opts, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Degradations are applied after the View: DegradeIndex detaches
	// the live index under the DDL locks (applyMu and the exclusive heal
	// barrier), which cannot be taken while View holds applyMu and the
	// shared side.
	for _, d := range degrade {
		db.DegradeIndex(d.name, d.reason)
	}
	r.Clean = len(r.Findings) == 0
	return r, nil
}

func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// scrubPages verifies the durable image of every page of every
// segment: identity-bound checksum, slotted-page structure, and LSN
// bounds against the log.
func scrubPages(db *engine.DB, r *Report) {
	segs := map[segment.ID]bool{catalog.MetaSegment: true}
	for _, t := range db.Tables() {
		segs[t.Seg] = true
	}
	ids := make([]int, 0, len(segs))
	for id := range segs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	end := uint64(0)
	if db.Log() != nil {
		end = db.Log().End()
	}
	buf := make([]byte, page.Size)
	for _, id := range ids {
		st := db.Pool().Store(segment.ID(id))
		if st == nil {
			r.add(Finding{Kind: PageChecksum, Seg: uint16(id), Detail: "segment has no backing store"})
			continue
		}
		for no := uint32(1); no <= st.PageCount(); no++ {
			r.PagesScanned++
			if err := st.ReadPage(no, buf); err != nil {
				r.add(Finding{Kind: PageChecksum, Seg: uint16(id), Page: no,
					Detail: fmt.Sprintf("unreadable: %v", err)})
				continue
			}
			p := page.View(buf)
			if !p.ChecksumOK(uint16(id), no) {
				r.add(Finding{Kind: PageChecksum, Seg: uint16(id), Page: no,
					Detail: "durable image fails identity-bound checksum"})
				continue
			}
			if err := p.Validate(); err != nil {
				r.add(Finding{Kind: PageStructure, Seg: uint16(id), Page: no, Detail: err.Error()})
			}
			if db.Log() != nil && p.LSN() > end {
				r.add(Finding{Kind: PageLSN, Seg: uint16(id), Page: no,
					Detail: fmt.Sprintf("LSN %d beyond log end %d", p.LSN(), end)})
			}
		}
	}
}

// scrubTables materializes every object of every table, cross-checking
// data subtuples against MD trees (complex) and decoded tuples against
// the cataloged schema (both kinds).
func scrubTables(db *engine.DB, opts Options, r *Report) {
	for _, t := range db.Tables() {
		r.TablesChecked++
		if t.Kind == catalog.Flat {
			scrubFlatTable(db, t, opts, r)
			continue
		}
		scrubComplexTable(db, t, opts, r)
	}
}

// scrubFlatTable decodes every stored tuple directly off the subtuple
// store, continuing past per-tuple faults (a table scan would stop at
// the first).
func scrubFlatTable(db *engine.DB, t *catalog.Table, opts Options, r *Report) {
	fs, ok := db.FlatStore(t.Name)
	if !ok {
		r.add(Finding{Kind: Tuple, Table: t.Name, Detail: "flat store not attached"})
		return
	}
	err := fs.Subtuples().Scan(func(tid page.TID, raw []byte) error {
		r.TuplesChecked++
		vals, err := model.DecodeAtoms(raw)
		if err != nil {
			r.add(Finding{Kind: Tuple, Table: t.Name, Ref: tid.String(),
				Detail: fmt.Sprintf("tuple does not decode: %v", err)})
			if opts.Quarantine {
				db.QuarantineObject(t.Name, tid, err)
			}
			return nil // keep scanning the rest of the table
		}
		if len(vals) > len(t.Type.Attrs) {
			r.add(Finding{Kind: Schema, Table: t.Name, Ref: tid.String(),
				Detail: fmt.Sprintf("stored tuple has %d values, schema %d", len(vals), len(t.Type.Attrs))})
			if opts.Quarantine {
				db.QuarantineObject(t.Name, tid,
					fmt.Errorf("scrub: tuple wider than schema"))
			}
			return nil
		}
		for len(vals) < len(t.Type.Attrs) {
			vals = append(vals, model.Null{})
		}
		if err := model.Conform(t.Type, model.Tuple(vals)); err != nil {
			r.add(Finding{Kind: Schema, Table: t.Name, Ref: tid.String(),
				Detail: fmt.Sprintf("tuple violates schema: %v", err)})
		}
		return nil
	})
	if err != nil {
		// A page-level fault aborted the raw scan; the physical pass
		// reports the page, here we record that the table is affected.
		r.add(Finding{Kind: Tuple, Table: t.Name,
			Detail: fmt.Sprintf("table scan aborted: %v", err)})
	}
}

// scrubComplexTable walks the object directory chain and materializes
// every object, including a full Mini-Directory walk (ObjectStats
// visits every MD subtuple and D pointer, so a broken pointer or
// missing data subtuple surfaces even when pruned reads would not
// touch it).
func scrubComplexTable(db *engine.DB, t *catalog.Table, opts Options, r *Report) {
	refs, err := db.Refs(t.Name)
	if err != nil {
		r.add(Finding{Kind: Directory, Table: t.Name,
			Detail: fmt.Sprintf("directory walk failed: %v", err)})
		// Refs quarantines the directory itself when opts mirror the
		// engine guard; nothing more to check without the ref list.
		return
	}
	m, _ := db.Manager(t.Name)
	rt := db.Runtime()
	for _, ref := range refs {
		r.ObjectsChecked++
		tup, err := rt.OpenRef(t, ref, 0, nil, false)
		if err != nil {
			r.add(Finding{Kind: Object, Table: t.Name, Ref: ref.String(),
				Detail: fmt.Sprintf("object does not materialize: %v", err)})
			if opts.Quarantine {
				db.QuarantineObject(t.Name, ref, err)
			}
			continue
		}
		if err := model.Conform(t.Type, tup); err != nil {
			r.add(Finding{Kind: Schema, Table: t.Name, Ref: ref.String(),
				Detail: fmt.Sprintf("object violates schema: %v", err)})
			continue
		}
		if m != nil {
			if _, err := m.ObjectStats(t.Type, ref); err != nil {
				r.add(Finding{Kind: Object, Table: t.Name, Ref: ref.String(),
					Detail: fmt.Sprintf("Mini-Directory walk failed: %v", err)})
				if opts.Quarantine {
					db.QuarantineObject(t.Name, ref, err)
				}
			}
		}
	}
}

// IndexesAgree scrubs the database and fails if a live value or text
// index disagrees with its rebuild from base data: the check the
// live-engine simulators end with, proof that index upkeep kept up.
func IndexesAgree(db *engine.DB) error {
	r, err := Run(db, Options{})
	if err != nil {
		return err
	}
	for _, f := range r.Findings {
		if f.Kind == IndexDiverged || f.Kind == TextDiverged {
			return fmt.Errorf("scrub: %s %s of %s: %s", f.Kind, f.Index, f.Table, f.Detail)
		}
	}
	return nil
}

// degradeReq is a deferred DegradeIndex call: scrubIndexes runs
// inside a View (shared heal barrier held) and the detach needs the
// exclusive side, so divergent indexes are collected and degraded by
// Run after the View returns.
type degradeReq struct {
	name   string
	reason error
}

// scrubIndexes rebuilds every cataloged index from base data and
// compares it entry-for-entry against the live incarnation; any
// divergence means reads through the index could silently disagree
// with base-table scans. It returns the indexes to degrade (when
// opts.Quarantine is set).
func scrubIndexes(db *engine.DB, opts Options, r *Report) []degradeReq {
	var degrade []degradeReq
	degraded := db.DegradedIndexes()
	for _, t := range db.Tables() {
		for _, def := range db.Catalog().Indexes(t.Name) {
			r.IndexesChecked++
			if reason, down := degraded[def.Name]; down {
				r.add(Finding{Kind: IndexDegraded, Table: t.Name, Index: def.Name, Detail: reason})
				continue
			}
			shadowIx, shadowTi, err := db.BuildShadowIndex(def)
			if err != nil {
				r.add(Finding{Kind: IndexUnbuildable, Table: t.Name, Index: def.Name,
					Detail: fmt.Sprintf("rebuild from base data failed: %v", err)})
				continue
			}
			if def.Text {
				live, ok := db.TextIndexByName(def.Name)
				if !ok {
					r.add(Finding{Kind: TextDiverged, Table: t.Name, Index: def.Name,
						Detail: "live text index missing"})
					continue
				}
				if detail, diverged := textindex.Diff(live, shadowTi); diverged {
					r.add(Finding{Kind: TextDiverged, Table: t.Name, Index: def.Name, Detail: detail})
					if opts.Quarantine {
						degrade = append(degrade, degradeReq{def.Name, fmt.Errorf("scrub: %s", detail)})
					}
				}
				continue
			}
			live, ok := db.IndexByName(def.Name)
			if !ok {
				r.add(Finding{Kind: IndexDiverged, Table: t.Name, Index: def.Name,
					Detail: "live index missing"})
				continue
			}
			if detail, diverged := index.Diff(live, shadowIx); diverged {
				r.add(Finding{Kind: IndexDiverged, Table: t.Name, Index: def.Name, Detail: detail})
				if opts.Quarantine {
					degrade = append(degrade, degradeReq{def.Name, fmt.Errorf("scrub: %s", detail)})
				}
			}
		}
	}
	return degrade
}
