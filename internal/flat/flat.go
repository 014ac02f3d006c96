// Package flat stores tables in first normal form. Flat tables are
// the degenerate case of the extended NF² model: every tuple is
// completely stored in one data subtuple and there are no Mini
// Directories at all (§4.1: "a flat (1NF) table does not have Mini
// Directories for its objects"). This is also the substrate for the
// 1NF baseline (Tables 1-4) that the NF² representation is compared
// against, and for Lorie's "on top" complex objects.
package flat

import (
	"fmt"

	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/subtuple"
)

// TupleError reports a stored tuple that cannot be read back — the
// flat-table analogue of a broken complex object. It carries the TID
// so the engine can quarantine exactly that tuple, and wraps the
// underlying corruption error for errors.Is classification.
type TupleError struct {
	TID page.TID
	Err error
}

func (e *TupleError) Error() string { return fmt.Sprintf("flat: tuple %v: %v", e.TID, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TupleError) Unwrap() error { return e.Err }

// wrapCorrupt tags corruption errors with the tuple's TID; other
// errors pass through unchanged.
func wrapCorrupt(tid page.TID, err error) error {
	if err != nil && dberr.IsCorrupt(err) {
		return &TupleError{TID: tid, Err: err}
	}
	return err
}

// Store holds the tuples of one flat table in one subtuple store.
type Store struct {
	st *subtuple.Store
	tt *model.TableType
}

// New creates a flat store; tt must be in first normal form.
func New(st *subtuple.Store, tt *model.TableType) (*Store, error) {
	if !tt.Flat() {
		return nil, fmt.Errorf("flat: table type %s is not in first normal form", tt)
	}
	return &Store{st: st, tt: tt}, nil
}

// Type returns the table's type.
func (s *Store) Type() *model.TableType { return s.tt }

// Subtuples returns the underlying subtuple store.
func (s *Store) Subtuples() *subtuple.Store { return s.st }

// Insert stores a tuple and returns its TID.
func (s *Store) Insert(tup model.Tuple) (page.TID, error) {
	if err := model.Conform(s.tt, tup); err != nil {
		return page.TID{}, err
	}
	payload, err := model.EncodeAtoms(tup)
	if err != nil {
		return page.TID{}, err
	}
	return s.st.Insert(payload)
}

// Read returns the tuple stored at the TID.
func (s *Store) Read(tid page.TID) (model.Tuple, error) {
	raw, err := s.st.Read(tid)
	if err != nil {
		return nil, wrapCorrupt(tid, err)
	}
	tup, err := s.decode(raw)
	return tup, wrapCorrupt(tid, err)
}

// ReadAsOf returns the tuple as of the instant ts; the boolean
// reports whether it existed then.
func (s *Store) ReadAsOf(tid page.TID, ts int64) (model.Tuple, bool, error) {
	raw, ok, err := s.st.ReadAsOf(tid, ts)
	if err != nil || !ok {
		return nil, ok, wrapCorrupt(tid, err)
	}
	tup, err := s.decode(raw)
	return tup, true, wrapCorrupt(tid, err)
}

func (s *Store) decode(raw []byte) (model.Tuple, error) {
	vals, err := model.DecodeAtoms(raw)
	if err != nil {
		return nil, err
	}
	if len(vals) > len(s.tt.Attrs) {
		return nil, dberr.Corruptf("flat: stored tuple has %d values, schema %d", len(vals), len(s.tt.Attrs))
	}
	// Tuples written before an ALTER TABLE ADD read the new (last)
	// attributes as null.
	for len(vals) < len(s.tt.Attrs) {
		vals = append(vals, model.Null{})
	}
	return model.Tuple(vals), nil
}

// Update overwrites the tuple at the TID.
func (s *Store) Update(tid page.TID, tup model.Tuple) error {
	if err := model.Conform(s.tt, tup); err != nil {
		return err
	}
	payload, err := model.EncodeAtoms(tup)
	if err != nil {
		return err
	}
	return s.st.Update(tid, payload)
}

// Delete removes the tuple at the TID.
func (s *Store) Delete(tid page.TID) error { return s.st.Delete(tid) }

// Scan streams all tuples of the table.
func (s *Store) Scan(fn func(tid page.TID, tup model.Tuple) error) error {
	return s.st.Scan(func(tid page.TID, raw []byte) error {
		tup, err := s.decode(raw)
		if err != nil {
			return wrapCorrupt(tid, err)
		}
		return fn(tid, tup)
	})
}

// Cursor streams the table's tuples one Next at a time; pass asof 0
// for the current state, nonzero for the state at that instant. No
// buffer pages are held between calls.
type Cursor struct {
	s *Store
	c *subtuple.Cursor
}

// NewCursor opens a pull cursor over the table (asof 0 = current).
func (s *Store) NewCursor(asof int64) (*Cursor, error) {
	var c *subtuple.Cursor
	var err error
	if asof != 0 {
		c, err = s.st.NewAsOfCursor(asof)
	} else {
		c, err = s.st.NewCursor()
	}
	if err != nil {
		return nil, err
	}
	return &Cursor{s: s, c: c}, nil
}

// Next returns the next tuple; the boolean is false at end of scan.
func (c *Cursor) Next() (page.TID, model.Tuple, bool, error) {
	tid, raw, ok, err := c.c.Next()
	if err != nil || !ok {
		return page.TID{}, nil, false, err
	}
	tup, err := c.s.decode(raw)
	if err != nil {
		return page.TID{}, nil, false, wrapCorrupt(tid, err)
	}
	return tid, tup, true, nil
}

// Close releases the cursor (idempotent, never fails).
func (c *Cursor) Close() error { return c.c.Close() }

// Newest returns the largest version stamp among the tuples the cursor
// has met, deleted ones included (subtuple.Cursor.Newest).
func (c *Cursor) Newest() int64 { return c.c.Newest() }

// All materializes the whole table.
func (s *Store) All() (*model.Table, error) {
	t := &model.Table{Ordered: s.tt.Ordered}
	err := s.Scan(func(_ page.TID, tup model.Tuple) error {
		t.Append(tup)
		return nil
	})
	return t, err
}
