package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/dberr"
	"repro/internal/page"
)

// The object directory is the persistent list of root MD subtuple
// TIDs of a complex table: a chain of chunk subtuples stored in the
// table's own segment, each holding up to dirChunkCap entries. For
// versioned tables the chunks are versioned like all other subtuples,
// so an ASOF scan of the table sees the membership as of that
// instant.

const dirChunkCap = 400

// chunk payload: next TID (6) | count uvarint | TID...
func encodeDirChunk(next page.TID, refs []page.TID) []byte {
	b := page.AppendTID(nil, next)
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, r := range refs {
		b = page.AppendTID(b, r)
	}
	return b
}

func decodeDirChunk(raw []byte) (next page.TID, refs []page.TID, err error) {
	next, err = page.DecodeTID(raw)
	if err != nil {
		return
	}
	p := raw[page.EncodedTIDLen:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		err = dberr.Corruptf("engine: corrupt directory chunk")
		return
	}
	p = p[sz:]
	refs = make([]page.TID, 0, n)
	for i := uint64(0); i < n; i++ {
		var r page.TID
		r, err = page.DecodeTID(p)
		if err != nil {
			return
		}
		refs = append(refs, r)
		p = p[page.EncodedTIDLen:]
	}
	return
}

// setDirHead publishes a new directory head via copy-on-write: the
// caller's *catalog.Table may be shared with concurrent readers that
// traverse it without locks, so the Table struct is never mutated in
// place — a copy carries the new head into the catalog. Readers with
// the stale pointer see the old head, which stays a valid chain start
// (new heads link to old ones and next pointers never change).
func (db *DB) setDirHead(t *catalog.Table, head page.TID) error {
	t2 := *t
	t2.DirHead = head
	return db.cat.UpdateTable(&t2)
}

// dirAdd registers a new object root in the table's directory.
func (db *DB) dirAdd(t *catalog.Table, ref page.TID) error {
	st := db.stores[t.Seg]
	if t.DirHead.Nil() {
		head, err := st.Insert(encodeDirChunk(page.TID{}, []page.TID{ref}))
		if err != nil {
			return err
		}
		return db.setDirHead(t, head)
	}
	raw, err := st.Read(t.DirHead)
	if err != nil {
		return err
	}
	next, refs, err := decodeDirChunk(raw)
	if err != nil {
		return err
	}
	if len(refs) < dirChunkCap {
		refs = append(refs, ref)
		return st.Update(t.DirHead, encodeDirChunk(next, refs))
	}
	// Head chunk full: start a new head pointing at the old one.
	head, err := st.Insert(encodeDirChunk(t.DirHead, []page.TID{ref}))
	if err != nil {
		return err
	}
	return db.setDirHead(t, head)
}

// dirRemove withdraws an object root from the directory.
func (db *DB) dirRemove(t *catalog.Table, ref page.TID) error {
	st := db.stores[t.Seg]
	cur := t.DirHead
	for !cur.Nil() {
		raw, err := st.Read(cur)
		if err != nil {
			return err
		}
		next, refs, err := decodeDirChunk(raw)
		if err != nil {
			return err
		}
		for i, r := range refs {
			if r == ref {
				refs = append(refs[:i], refs[i+1:]...)
				return st.Update(cur, encodeDirChunk(next, refs))
			}
		}
		cur = next
	}
	return fmt.Errorf("engine: object %v not in directory of %s", ref, t.Name)
}
