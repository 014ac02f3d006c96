// Package doctor implements the repair engine behind the aimdoctor
// tool: scan (quick structural audit), verify (full audit including
// index cross-checks), and repair.
//
// Repair strategy, in order of preference:
//
//  1. WAL redo. Opening the database replays the full page history,
//     which rebuilds every page holding committed data — the only
//     repair that recovers data exactly. Databases with a WAL
//     normally come back bit-perfect from this step alone.
//  2. Salvage. Objects that are still broken after redo are read
//     tolerantly (object.Manager.Salvage): the readable parts are
//     re-inserted as a replacement object, the lost parts reported.
//  3. Amputate. Objects with nothing salvageable are dropped; durable
//     pages that remain corrupt after the objects on them were
//     dropped or replaced are reformatted empty so scans stop
//     tripping over them. Both are reported data loss — visible,
//     never silent.
//
// Afterwards every index is rebuilt from the (now consistent) base
// data and the database is re-scrubbed to prove the repair took.
package doctor

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/page"
	"repro/internal/scrub"
	"repro/internal/segment"
)

// Action is one repair step the doctor performed (or failed to).
type Action struct {
	// Op is the action kind: "replace" (salvaged object re-inserted),
	// "drop" (object removed), "amputate-page" (corrupt page
	// reformatted empty), "adopt-page" (intact page resealed with an
	// LSN inside the current log after the original WAL was lost),
	// "rebuild-index", or "failed".
	Op     string `json:"op"`
	Table  string `json:"table,omitempty"`
	Ref    string `json:"ref,omitempty"`
	NewRef string `json:"new_ref,omitempty"`
	Index  string `json:"index,omitempty"`
	Seg    uint16 `json:"seg,omitempty"`
	Page   uint32 `json:"page,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Report is the machine-readable result of a doctor run.
type Report struct {
	Mode string `json:"mode"`
	// Scrub is the audit that drove the run (for repair: the state
	// found before repairing).
	Scrub *scrub.Report `json:"scrub"`
	// Actions lists what repair did; empty for scan/verify.
	Actions []Action `json:"actions,omitempty"`
	// PostScrub proves the repair took (repair mode only).
	PostScrub *scrub.Report `json:"post_scrub,omitempty"`
	// Healthy is the verdict: no findings in the (final) scrub.
	Healthy bool `json:"healthy"`
}

// Scan opens the database and runs the quick audit (no index
// cross-check), closing it again.
func Scan(opts engine.Options) (*Report, error) {
	return run(opts, "scan", func(db *engine.DB) (*Report, error) {
		r, err := scrub.Run(db, scrub.Options{SkipIndexes: true})
		if err != nil {
			return nil, err
		}
		return &Report{Mode: "scan", Scrub: r, Healthy: r.Clean}, nil
	})
}

// Verify opens the database and runs the full audit, including the
// index-vs-base-data cross-check.
func Verify(opts engine.Options) (*Report, error) {
	return run(opts, "verify", func(db *engine.DB) (*Report, error) {
		r, err := scrub.Run(db, scrub.Options{})
		if err != nil {
			return nil, err
		}
		return &Report{Mode: "verify", Scrub: r, Healthy: r.Clean}, nil
	})
}

// Repair opens the database (which replays the WAL — repair step 1),
// repairs what remains broken, and closes it.
func Repair(opts engine.Options) (*Report, error) {
	return run(opts, "repair", RepairDB)
}

// NoDatabaseError reports a directory that holds no database. The
// doctor audits and repairs databases; it never creates one.
type NoDatabaseError struct{ Dir string }

func (e *NoDatabaseError) Error() string { return fmt.Sprintf("doctor: %s holds no database", e.Dir) }

// Open opens the database in opts.Dir, refusing a directory that holds
// none (engine.HasDatabase) with *NoDatabaseError before writing to it.
func Open(opts engine.Options) (*engine.DB, error) {
	if opts.Dir != "" && !engine.HasDatabase(opts.Dir) {
		return nil, &NoDatabaseError{Dir: opts.Dir}
	}
	db, err := engine.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("doctor: open: %w", err)
	}
	return db, nil
}

func run(opts engine.Options, mode string, fn func(*engine.DB) (*Report, error)) (*Report, error) {
	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	rep, ferr := fn(db)
	if cerr := db.Close(); ferr == nil && cerr != nil {
		ferr = fmt.Errorf("doctor: close after %s: %w", mode, cerr)
	}
	return rep, ferr
}

// RepairDB repairs an already-open database in place (the WAL redo of
// step 1 must have happened at its Open). Exposed for harnesses that
// inject faulty stores.
func RepairDB(db *engine.DB) (*Report, error) {
	rep := &Report{Mode: "repair"}
	pre, err := scrub.Run(db, scrub.Options{Quarantine: true})
	if err != nil {
		return nil, err
	}
	rep.Scrub = pre

	// Step 2: salvage or drop every quarantined object. The scrub just
	// quarantined everything that fails to materialize; guards may have
	// added more before the doctor ran.
	for _, q := range db.Quarantined() {
		if q.Ref.Nil() {
			// The table's directory chain itself is broken and the WAL
			// could not rebuild it; its objects are unreachable.
			rep.Actions = append(rep.Actions, Action{Op: "failed", Table: q.Table,
				Detail: fmt.Sprintf("object directory unrecoverable: %v", q.Reason)})
			continue
		}
		res, err := db.SalvageObject(q.Table, q.Ref)
		if err != nil {
			rep.Actions = append(rep.Actions, Action{Op: "failed", Table: q.Table, Ref: q.Ref.String(),
				Detail: fmt.Sprintf("salvage: %v", err)})
			continue
		}
		if res.Tuple == nil {
			if err := db.DropCorruptObject(q.Table, q.Ref); err != nil {
				rep.Actions = append(rep.Actions, Action{Op: "failed", Table: q.Table, Ref: q.Ref.String(),
					Detail: fmt.Sprintf("drop: %v", err)})
				continue
			}
			rep.Actions = append(rep.Actions, Action{Op: "drop", Table: q.Table, Ref: q.Ref.String(),
				Detail: "nothing salvageable: " + strings.Join(res.Lost, "; ")})
			continue
		}
		newRef, err := db.ReplaceObject(q.Table, q.Ref, res.Tuple)
		if err != nil {
			rep.Actions = append(rep.Actions, Action{Op: "failed", Table: q.Table, Ref: q.Ref.String(),
				Detail: fmt.Sprintf("replace: %v", err)})
			continue
		}
		detail := "fully salvaged"
		if !res.Complete {
			detail = "partially salvaged, lost: " + strings.Join(res.Lost, "; ")
		}
		rep.Actions = append(rep.Actions, Action{Op: "replace", Table: q.Table,
			Ref: q.Ref.String(), NewRef: newRef.String(), Detail: detail})
	}

	// Make the logical repairs durable BEFORE raw page surgery: the
	// drops/replacements live in dirty buffer frames, and the cache
	// invalidation below would discard them.
	if err := db.Commit(); err != nil {
		return rep, fmt.Errorf("doctor: commit salvage: %w", err)
	}
	if err := db.Checkpoint(); err != nil {
		return rep, fmt.Errorf("doctor: checkpoint salvage: %w", err)
	}

	// Step 3: amputate pages that are still corrupt now that the
	// objects living on them are dropped or replaced. Reformatting
	// loses whatever the page held (reported); with a WAL this step is
	// normally idle because redo healed every page at open.
	seen := make(map[[2]uint32]bool)
	for _, f := range pre.Findings {
		if f.Kind != scrub.PageChecksum && f.Kind != scrub.PageStructure && f.Kind != scrub.PageLSN {
			continue
		}
		if seen[[2]uint32{uint32(f.Seg), f.Page}] {
			continue
		}
		seen[[2]uint32{uint32(f.Seg), f.Page}] = true
		if stillCorrupt(db, f.Seg, f.Page) {
			if err := amputatePage(db, f.Seg, f.Page); err != nil {
				rep.Actions = append(rep.Actions, Action{Op: "failed", Seg: f.Seg, Page: f.Page,
					Detail: fmt.Sprintf("amputate: %v", err)})
				continue
			}
			rep.Actions = append(rep.Actions, Action{Op: "amputate-page", Seg: f.Seg, Page: f.Page,
				Detail: "reformatted empty; prior content (and any version history on it) lost"})
			continue
		}
		// The page itself is intact; if its LSN points beyond the log's
		// end the original WAL was lost or replaced. Adopt the page into
		// the current log: keep its content, clamp its LSN.
		adopted, err := adoptPage(db, f.Seg, f.Page)
		if err != nil {
			rep.Actions = append(rep.Actions, Action{Op: "failed", Seg: f.Seg, Page: f.Page,
				Detail: fmt.Sprintf("adopt: %v", err)})
			continue
		}
		if adopted {
			rep.Actions = append(rep.Actions, Action{Op: "adopt-page", Seg: f.Seg, Page: f.Page,
				Detail: "content kept; LSN from a lost log reset into the current log"})
		}
	}
	if len(rep.Actions) > 0 {
		// Amputation and raw drops invalidate cached frames and leave
		// stale index entries; drop the cache and rebuild every index
		// from the repaired base data.
		db.Pool().InvalidateAll()
		for _, t := range db.Tables() {
			for _, def := range db.Catalog().Indexes(t.Name) {
				if err := db.RebuildIndex(def.Name); err != nil {
					rep.Actions = append(rep.Actions, Action{Op: "failed", Table: t.Name, Index: def.Name,
						Detail: fmt.Sprintf("rebuild: %v", err)})
					continue
				}
				rep.Actions = append(rep.Actions, Action{Op: "rebuild-index", Table: t.Name, Index: def.Name})
			}
		}
	}
	if err := db.Commit(); err != nil {
		return rep, fmt.Errorf("doctor: commit repairs: %w", err)
	}
	if err := db.Checkpoint(); err != nil {
		return rep, fmt.Errorf("doctor: checkpoint repairs: %w", err)
	}

	// Lift quarantine entries the repair resolved, then prove the
	// repair took with a full re-audit.
	db.ClearQuarantine()
	post, err := scrub.Run(db, scrub.Options{Quarantine: true})
	if err != nil {
		return rep, err
	}
	rep.PostScrub = post
	rep.Healthy = post.Clean
	return rep, nil
}

// stillCorrupt re-reads the durable page image and reports whether it
// still fails verification (the logical repair may have rewritten it).
func stillCorrupt(db *engine.DB, seg uint16, no uint32) bool {
	st := db.Pool().Store(segment.ID(seg))
	if st == nil {
		return false
	}
	buf := make([]byte, page.Size)
	if err := st.ReadPage(no, buf); err != nil {
		return true
	}
	p := page.View(buf)
	return !p.ChecksumOK(seg, no) || p.Validate() != nil
}

// amputatePage reformats a durable page as empty and seals it under
// its own identity, so scans and recovery treat it as an initialized
// page with no records.
func amputatePage(db *engine.DB, seg uint16, no uint32) error {
	st := db.Pool().Store(segment.ID(seg))
	if st == nil {
		return fmt.Errorf("segment %d has no store", seg)
	}
	buf := make([]byte, page.Size)
	p := page.View(buf)
	p.Init()
	p.Seal(seg, no)
	if err := st.WritePage(no, buf); err != nil {
		return err
	}
	return st.Sync()
}

// adoptPage reseals an intact durable page whose LSN lies beyond the
// current log's end (its original WAL is gone) with the log-end LSN,
// so recovery and the scrubber accept it as applied history. Returns
// false when the page needs no adoption.
func adoptPage(db *engine.DB, seg uint16, no uint32) (bool, error) {
	if db.Log() == nil {
		return false, nil
	}
	st := db.Pool().Store(segment.ID(seg))
	if st == nil {
		return false, fmt.Errorf("segment %d has no store", seg)
	}
	buf := make([]byte, page.Size)
	if err := st.ReadPage(no, buf); err != nil {
		return false, err
	}
	p := page.View(buf)
	end := db.Log().End()
	if p.LSN() <= end {
		return false, nil
	}
	p.SetLSN(end)
	p.Seal(seg, no)
	if err := st.WritePage(no, buf); err != nil {
		return false, err
	}
	return true, st.Sync()
}

// FormatText renders a report for terminal consumption (the JSON form
// is just the Report struct marshalled).
func FormatText(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "aimdoctor %s: ", r.Mode)
	if r.Healthy {
		b.WriteString("database is healthy\n")
	} else {
		b.WriteString("problems found\n")
	}
	sc := r.Scrub
	fmt.Fprintf(&b, "  scanned: %d pages, %d tables, %d objects, %d flat tuples, %d indexes\n",
		sc.PagesScanned, sc.TablesChecked, sc.ObjectsChecked, sc.TuplesChecked, sc.IndexesChecked)
	for _, f := range sc.Findings {
		b.WriteString("  finding: " + formatFinding(f) + "\n")
	}
	for _, a := range r.Actions {
		fmt.Fprintf(&b, "  action: %s", a.Op)
		if a.Table != "" {
			b.WriteString(" " + a.Table)
		}
		if a.Ref != "" {
			b.WriteString(" " + a.Ref)
		}
		if a.Index != "" {
			b.WriteString(" index " + a.Index)
		}
		if a.Page != 0 {
			fmt.Fprintf(&b, " page %d.%d", a.Seg, a.Page)
		}
		if a.Detail != "" {
			b.WriteString(": " + a.Detail)
		}
		b.WriteString("\n")
	}
	if r.PostScrub != nil {
		if r.PostScrub.Clean {
			b.WriteString("  post-repair audit: clean\n")
		} else {
			fmt.Fprintf(&b, "  post-repair audit: %d findings remain\n", len(r.PostScrub.Findings))
			for _, f := range r.PostScrub.Findings {
				b.WriteString("    " + formatFinding(f) + "\n")
			}
		}
	}
	return b.String()
}

func formatFinding(f scrub.Finding) string {
	var parts []string
	parts = append(parts, string(f.Kind))
	if f.Table != "" {
		parts = append(parts, f.Table)
	}
	if f.Ref != "" {
		parts = append(parts, f.Ref)
	}
	if f.Index != "" {
		parts = append(parts, "index "+f.Index)
	}
	if f.Page != 0 {
		parts = append(parts, "page "+strconv.Itoa(int(f.Seg))+"."+strconv.Itoa(int(f.Page)))
	}
	return strings.Join(parts, " ") + ": " + f.Detail
}
