package engine

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/segment"
)

// sealHoles formats every allocated-but-uninitialized durable page of
// segment id as a sealed empty page. It runs right after WAL recovery:
// by then every page holding committed data has been rebuilt from the
// log, so a remaining all-zero in-range page can only be a hole left
// by an aborted allocation — legitimate free space. Sealing the holes
// establishes the invariant that no in-range page is uninitialized at
// rest, which makes a page that later READS back zeroed an
// unambiguous sign of lost content (see the uninitialized-page checks
// in subtuple reads and scans) instead of something a scan may
// silently skip.
func (db *DB) sealHoles(id segment.ID) error {
	st := db.pool.Store(id)
	if st == nil {
		return nil
	}
	buf := make([]byte, page.Size)
	for no := uint32(1); no <= st.PageCount(); no++ {
		if err := st.ReadPage(no, buf); err != nil {
			return fmt.Errorf("engine: seal holes: read %d.%d: %w", id, no, err)
		}
		if !allZero(buf) {
			continue
		}
		p := page.View(buf)
		p.Init()
		p.Seal(uint16(id), no)
		if err := st.WritePage(no, buf); err != nil {
			return fmt.Errorf("engine: seal holes: write %d.%d: %w", id, no, err)
		}
		db.pool.MarkSealed(buffer.PageKey{Seg: id, Page: no})
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Repair primitives used by aimdoctor. They bypass the per-statement
// index maintenance on purpose: a corrupt object cannot be read for
// entry withdrawal, so the doctor drops/replaces objects raw and
// rebuilds the affected indexes afterwards (RebuildIndex).

// SalvageObject reads as much of a complex object as remains readable
// (see object.Manager.Salvage). For flat tables the tuple either
// decodes or it does not — the result is all-or-nothing.
func (db *DB) SalvageObject(table string, ref page.TID) (*object.SalvageResult, error) {
	t, ok := db.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", table)
	}
	if t.Kind == catalog.Flat {
		tup, err := db.flats[table].Read(ref)
		if err != nil {
			return &object.SalvageResult{Lost: []string{fmt.Sprintf("tuple %v: %v", ref, err)}}, nil
		}
		return &object.SalvageResult{Tuple: tup, Complete: true}, nil
	}
	return db.mgrs[table].Salvage(t.Type, ref)
}

// DropCorruptObject removes an unreadable object from the table — the
// directory entry for complex tables, the record slot for flat ones —
// without the usual read-back index maintenance, and lifts its
// quarantine entry. Callers must rebuild the table's indexes
// afterwards; the object's own subtuples are abandoned in place (the
// prototype has no segment-level free list, cf. objCtx.reap).
func (db *DB) DropCorruptObject(table string, ref page.TID) error {
	t, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if t.Kind == catalog.Flat {
		if err := db.flats[table].Delete(ref); err != nil {
			return err
		}
	} else {
		if err := db.dirRemove(t, ref); err != nil {
			return err
		}
	}
	db.Unquarantine(table, ref)
	return nil
}

// ReplaceObject swaps a corrupt object for a (typically salvaged)
// replacement tuple: the old object is dropped raw and the tuple
// inserted as a fresh object with a new reference, which is returned.
// Callers must rebuild the table's indexes afterwards.
func (db *DB) ReplaceObject(table string, ref page.TID, tup model.Tuple) (page.TID, error) {
	t, ok := db.cat.Table(table)
	if !ok {
		return page.TID{}, fmt.Errorf("engine: no table %q", table)
	}
	if err := db.DropCorruptObject(table, ref); err != nil {
		return page.TID{}, err
	}
	if t.Kind == catalog.Flat {
		return db.flats[table].Insert(tup)
	}
	m := db.mgrs[table]
	newRef, err := m.Insert(t.Type, tup)
	if err != nil {
		return page.TID{}, err
	}
	if err := db.dirAdd(t, newRef); err != nil {
		return page.TID{}, err
	}
	return newRef, nil
}
