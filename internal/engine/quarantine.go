package engine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/dberr"
	"repro/internal/flat"
	"repro/internal/page"
)

// Object quarantine: corruption containment at the object granularity.
//
// When a read hits a corrupt page, subtuple, or Mini-Directory node,
// the engine records the affected object (its root reference — the
// Mini-Directory entry — for complex tables, the tuple TID for flat
// ones) in the quarantine set and returns a typed *QuarantineError.
// Later statements touching the same object fail fast with the same
// error instead of re-reading rotten pages; every other object — in
// the same table and in every other table — keeps being served. A
// corrupt directory chunk quarantines the table's scans (Ref zero)
// while point reads by reference stay available.
//
// Quarantine entries are observations about the durable state, so
// they survive statement aborts and runtime reloads — except that a
// successful rollback replays the full WAL history over every page
// holding committed data, which repairs the images the entries were
// observed on; rollbackStmt therefore clears the set and lets reads
// re-detect whatever recovery could not cure. aimdoctor repair and
// scrub re-verification clear entries explicitly once an object is
// salvaged or dropped.

// ErrQuarantined is the sentinel matched by errors.Is for every
// *QuarantineError.
var ErrQuarantined = errors.New("engine: object quarantined")

// QuarantineError reports that a statement touched a quarantined
// object. It unwraps to both ErrQuarantined and (through Reason) the
// dberr.ErrCorrupt sentinel.
type QuarantineError struct {
	// Table is the table holding the object.
	Table string
	// Ref is the object's root reference (tuple TID for flat tables);
	// the zero TID means the table's directory itself is corrupt, which
	// quarantines table scans but not point reads.
	Ref page.TID
	// Reason is the corruption error observed when the object was
	// quarantined.
	Reason error
}

func (e *QuarantineError) Error() string {
	if e.Ref.Nil() {
		return fmt.Sprintf("engine: directory of table %s quarantined: %v", e.Table, e.Reason)
	}
	return fmt.Sprintf("engine: object %s %v quarantined: %v", e.Table, e.Ref, e.Reason)
}

// Is matches the ErrQuarantined sentinel.
func (e *QuarantineError) Is(target error) bool { return target == ErrQuarantined }

// Unwrap exposes the observed corruption to errors.Is/As.
func (e *QuarantineError) Unwrap() error { return e.Reason }

type quarKey struct {
	table string
	ref   page.TID
}

// quarantine records the object as quarantined (first observation
// wins) and returns the entry to fail the statement with.
func (db *DB) quarantine(table string, ref page.TID, reason error) *QuarantineError {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	k := quarKey{table, ref}
	if q, ok := db.quar[k]; ok {
		return q
	}
	q := &QuarantineError{Table: table, Ref: ref, Reason: reason}
	db.quar[k] = q
	return q
}

// quarCheck fails fast if the object (or, via the zero ref, the whole
// table's directory) is quarantined.
func (db *DB) quarCheck(table string, ref page.TID) error {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	if q, ok := db.quar[quarKey{table, ref}]; ok {
		return q
	}
	return nil
}

// guardRead converts a corruption error from a read of the given
// object into its quarantine entry; other errors pass through. A
// flat.TupleError pins the quarantine to the tuple it names.
func (db *DB) guardRead(table string, ref page.TID, err error) error {
	if err == nil {
		return err
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return err // already typed
	}
	var te *flat.TupleError
	if errors.As(err, &te) {
		return db.quarantine(table, te.TID, err)
	}
	if dberr.IsCorrupt(err) {
		return db.quarantine(table, ref, err)
	}
	return err
}

// guardDir converts a corruption error from the table's directory
// chain into a table-level quarantine entry (zero ref).
func (db *DB) guardDir(table string, err error) error {
	if err == nil {
		return nil
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return err
	}
	if dberr.IsCorrupt(err) {
		return db.quarantine(table, page.TID{}, err)
	}
	return err
}

// QuarantineObject records an externally detected fault (the scrubber
// and aimdoctor use this) and returns the typed error future reads of
// the object will fail with.
func (db *DB) QuarantineObject(table string, ref page.TID, reason error) *QuarantineError {
	return db.quarantine(table, ref, reason)
}

// Unquarantine drops one quarantine entry (after the object was
// repaired, salvaged, or dropped).
func (db *DB) Unquarantine(table string, ref page.TID) {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	delete(db.quar, quarKey{table, ref})
}

// ClearQuarantine empties the quarantine set; statement rollback calls
// it after recovery has rebuilt every page holding committed data, so
// reads re-detect any fault recovery could not cure.
func (db *DB) ClearQuarantine() {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	db.quar = make(map[quarKey]*QuarantineError)
}

// Quarantined lists the current quarantine entries, sorted by table
// and reference.
func (db *DB) Quarantined() []*QuarantineError {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	out := make([]*QuarantineError, 0, len(db.quar))
	for _, q := range db.quar {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		if out[i].Ref.Page != out[j].Ref.Page {
			return out[i].Ref.Page < out[j].Ref.Page
		}
		return out[i].Ref.Slot < out[j].Ref.Slot
	})
	return out
}

// --- index degradation --------------------------------------------------

// DegradeIndex takes a live index out of service: it is removed from
// the planner's view (queries fall back to base-table scans — slower,
// never wrong) while its catalog definition stays, so aimdoctor or the
// next successful runtime reload can rebuild it.
func (db *DB) DegradeIndex(name string, reason error) {
	db.quarMu.Lock()
	db.degraded[name] = reason.Error()
	db.quarMu.Unlock()
	// Detach under the DDL locks: writers keep the live indexes under
	// applyMu, readers resolve them by name from the live maps under the
	// shared heal barrier, and the scrubber calls in here concurrently
	// with both.
	unlock := db.ddlLock()
	db.detachIndex(name)
	unlock()
	// Cached plans may have chosen this index; detach them all. (They
	// could not have used it anyway — execute-time resolution is by
	// name against the live maps — but re-binding promptly restores
	// index access paths for whatever indexes remain.)
	db.bumpEpoch()
}

// degradeIndexLocked is DegradeIndex for callers inside reloadRuntime,
// where the index was never attached.
func (db *DB) noteDegraded(name string, reason error) {
	db.quarMu.Lock()
	db.degraded[name] = reason.Error()
	db.quarMu.Unlock()
	db.bumpEpoch()
}

// clearDegraded forgets a degradation record (the index was rebuilt).
func (db *DB) clearDegraded(name string) {
	db.quarMu.Lock()
	delete(db.degraded, name)
	db.quarMu.Unlock()
	db.bumpEpoch()
}

// DegradedIndexes returns the names of out-of-service indexes mapped
// to the reason each was degraded.
func (db *DB) DegradedIndexes() map[string]string {
	db.quarMu.Lock()
	defer db.quarMu.Unlock()
	out := make(map[string]string, len(db.degraded))
	for k, v := range db.degraded {
		out[k] = v
	}
	return out
}

// detachIndex removes a live index (value or text) from the runtime
// maps without touching its catalog definition.
func (db *DB) detachIndex(name string) {
	var table string
	if ix, ok := db.indexByName[name]; ok {
		delete(db.indexByName, name)
		table = ix.Table
	} else if ti, ok := db.textByName[name]; ok {
		delete(db.textByName, name)
		table = ti.Table
	} else {
		return
	}
	db.live[table] = db.live[table].without(name)
}

// --- helpers for external integrity tooling -----------------------------

// Tables lists the cataloged tables (sorted by name, like
// catalog.Tables).
func (db *DB) Tables() []*catalog.Table { return db.cat.Tables() }

// View runs fn with mutations excluded (applyMu) while participating
// as a reader in the heal barrier, so fn sees a statement-consistent
// database while queries keep running and mutating statements wait.
// The online scrubber uses it.
func (db *DB) View(fn func() error) error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.healMu.RLock()
	defer db.healMu.RUnlock()
	if err := db.fatal(); err != nil {
		return err
	}
	return fn()
}
