package crashsim

import (
	"bytes"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/scrub"
)

// CheckInvariants audits a (typically just-recovered) engine:
//
//   - scrub's page and object passes: every durable page of every
//     segment passes its checksum and the slotted-page structure check
//     and carries an LSN within the log's bounds; every object of every
//     table materializes and conforms to the schema, and complex
//     objects walk their full Mini-Directory. The first finding fails
//     the audit.
//   - every index entry round-trips to a live subtuple holding the
//     indexed value, and every indexed value occurrence in the data is
//     reachable through the index (checkIndexes, an oracle independent
//     of the index rebuild scrub compares against).
func CheckInvariants(eng *engine.DB) error {
	r, err := scrub.Run(eng, scrub.Options{SkipIndexes: true})
	if err != nil {
		return fmt.Errorf("crashsim: scrub: %w", err)
	}
	if len(r.Findings) > 0 {
		f := r.Findings[0]
		return fmt.Errorf("crashsim: scrub finding %s (seg %d page %d table %q ref %s): %s",
			f.Kind, f.Seg, f.Page, f.Table, f.Ref, f.Detail)
	}
	return checkIndexes(eng)
}

// occurrence is one indexed value in the data, keyed by the root
// reference the index must report for it.
type occurrence struct {
	ref page.TID
	val model.Value
}

// checkIndexes verifies both directions of every value index: data
// occurrence -> index entry and index entry -> live subtuple.
func checkIndexes(eng *engine.DB) error {
	cat := eng.Catalog()
	for _, t := range cat.Tables() {
		for _, def := range cat.Indexes(t.Name) {
			if def.Text {
				continue
			}
			ix, ok := eng.IndexByName(def.Name)
			if !ok {
				return fmt.Errorf("crashsim: index %s not rebuilt", def.Name)
			}
			_, _, atomPos, _, err := index.ResolvePath(t.Type, def.Path)
			if err != nil {
				return fmt.Errorf("crashsim: index %s path: %w", def.Name, err)
			}
			occs, err := indexedOccurrences(eng, t, def.Path)
			if err != nil {
				return err
			}
			// Every entry resolves to a live subtuple with the key's value.
			entries := 0
			var entErr error
			ix.Tree().Range(nil, nil, func(key []byte, addrs []index.Addr) bool {
				for _, addr := range addrs {
					entries++
					if err := resolveEntry(eng, t, ix, addr, atomPos, key); err != nil {
						entErr = fmt.Errorf("crashsim: index %s entry %v: %w", def.Name, addr.TID, err)
						return false
					}
				}
				return true
			})
			if entErr != nil {
				return entErr
			}
			if entries != len(occs) {
				return fmt.Errorf("crashsim: index %s has %d entries, data has %d occurrences",
					def.Name, entries, len(occs))
			}
			// Every occurrence is reachable through the index.
			for _, oc := range occs {
				addrs, err := ix.Lookup(oc.val)
				if err != nil {
					return fmt.Errorf("crashsim: index %s lookup %v: %w", def.Name, oc.val, err)
				}
				found := false
				for _, addr := range addrs {
					if addr.TID == oc.ref {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("crashsim: index %s misses %v of %s %v", def.Name, oc.val, t.Name, oc.ref)
				}
			}
		}
	}
	return nil
}

// resolveEntry follows one index address back to stored data and
// confirms the indexed attribute still holds the entry's key.
func resolveEntry(eng *engine.DB, t *catalog.Table, ix *index.Index, addr index.Addr, atomPos int, key []byte) error {
	if len(addr.Path) == 0 {
		// Flat (or root-TID) address: the tuple itself must exist.
		if _, err := eng.Runtime().OpenRef(t, addr.TID, 0, nil); err != nil {
			return err
		}
		return nil
	}
	m, ok := eng.Manager(t.Name)
	if !ok {
		return fmt.Errorf("no manager for %s", t.Name)
	}
	atoms, err := m.ReadDataPath(addr.TID, addr.Path)
	if err != nil {
		return err
	}
	if atomPos >= len(atoms) {
		return fmt.Errorf("data subtuple has %d atoms, index expects position %d", len(atoms), atomPos)
	}
	got, err := model.EncodeKeyValue(atoms[atomPos])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, key) {
		return fmt.Errorf("stored value %v does not match index key", atoms[atomPos])
	}
	return nil
}

// indexedOccurrences collects every value the index ought to contain
// by walking the logical data along the index path.
func indexedOccurrences(eng *engine.DB, t *catalog.Table, path []string) ([]occurrence, error) {
	sc, err := eng.Runtime().OpenScan(t, 0, nil, false)
	if err != nil {
		return nil, fmt.Errorf("crashsim: scan %s: %w", t.Name, err)
	}
	defer sc.Close()
	var occs []occurrence
	for {
		ref, tup, ok, err := sc.Next()
		if err != nil {
			return nil, fmt.Errorf("crashsim: scan %s: %w", t.Name, err)
		}
		if !ok {
			return occs, nil
		}
		for _, v := range pathValues(t.Type, tup, path) {
			occs = append(occs, occurrence{ref: ref, val: v})
		}
	}
}

// pathValues walks one tuple along an attribute path, descending
// through subtables, and returns every value at the path's end.
func pathValues(tt *model.TableType, tup model.Tuple, path []string) []model.Value {
	ai := tt.AttrIndex(path[0])
	if ai < 0 || ai >= len(tup) {
		return nil
	}
	if len(path) == 1 {
		return []model.Value{tup[ai]}
	}
	sub, ok := tup[ai].(*model.Table)
	if !ok {
		return nil
	}
	var vals []model.Value
	for _, member := range sub.Tuples {
		vals = append(vals, pathValues(tt.Attrs[ai].Type.Table, member, path[1:])...)
	}
	return vals
}
