package netproto

import (
	"encoding/binary"
	"fmt"

	"repro/internal/model"
)

// The payload codec: append-style encoders over a byte slice and a
// consuming decoder that latches its first error. Values are
// self-describing (kind tag per value, tables carried recursively), so
// a Row frame can be decoded without the schema in hand; table types
// are encoded structurally for the RowHeader and Results frames.

type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *enc) string(s string) { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

type dec struct {
	b   []byte
	err error
	// slab holds the atoms decoded values point into; nil boxes each
	// on the heap (see model.Slab).
	slab *model.Slab
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("netproto: "+format, args...)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated payload")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds payload", n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// done checks that the payload was consumed exactly.
func (d *dec) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// --- values --------------------------------------------------------------

// maxDepth bounds value and type nesting so a hostile payload cannot
// recurse the decoder into a stack overflow.
const maxDepth = 64

func (e *enc) value(v model.Value) error { return e.valueDepth(v, 0) }

// valueDepth writes a table as its kind tag, order flag and tuples, and
// every other value as the storage layer's atom (model.AppendAtom).
func (e *enc) valueDepth(v model.Value, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("netproto: value nesting exceeds %d", maxDepth)
	}
	x, ok := v.(*model.Table)
	if !ok {
		b, err := model.AppendAtom(e.b, v)
		if err != nil {
			return fmt.Errorf("netproto: %w", err)
		}
		e.b = b
		return nil
	}
	e.byte(byte(model.KindTable))
	e.bool(x.Ordered)
	e.uvarint(uint64(len(x.Tuples)))
	for _, tup := range x.Tuples {
		if err := e.tupleDepth(tup, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (e *enc) tuple(t model.Tuple) error { return e.tupleDepth(t, 0) }

func (e *enc) tupleDepth(t model.Tuple, depth int) error {
	e.uvarint(uint64(len(t)))
	for _, v := range t {
		if err := e.valueDepth(v, depth); err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) value() model.Value { return d.valueDepth(0, 1) }

// valueDepth decodes one value; rest is the number of values left in
// the tuple it belongs to, counting this one (the slab's size hint). A
// bad atom is a protocol fault, never storage corruption: its error
// does not wrap dberr.ErrCorrupt, so Classify cannot report it as one.
func (d *dec) valueDepth(depth, rest int) model.Value {
	if depth > maxDepth {
		d.fail("value nesting exceeds %d", maxDepth)
		return nil
	}
	if d.err != nil {
		return nil
	}
	if len(d.b) == 0 || model.Kind(d.b[0]) != model.KindTable {
		v, n, err := model.DecodeAtom(d.b, d.slab, rest)
		if err != nil {
			d.fail("bad value: %v", err)
			return nil
		}
		d.b = d.b[n:]
		return v
	}
	d.b = d.b[1:]
	tbl := &model.Table{Ordered: d.bool()}
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		d.fail("table tuple count %d exceeds payload", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		tbl.Append(d.tupleDepth(depth + 1))
	}
	return tbl
}

func (d *dec) tuple() model.Tuple { return d.tupleDepth(0) }

func (d *dec) tupleDepth(depth int) model.Tuple {
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		d.fail("tuple arity %d exceeds payload", n)
		return nil
	}
	tup := d.slab.Tuple(int(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		tup = append(tup, d.valueDepth(depth, int(n-i)))
	}
	return tup
}

// --- table types ---------------------------------------------------------

func (e *enc) tableType(tt *model.TableType) error { return e.tableTypeDepth(tt, 0) }

func (e *enc) tableTypeDepth(tt *model.TableType, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("netproto: type nesting exceeds %d", maxDepth)
	}
	if tt == nil {
		e.bool(false)
		return nil
	}
	e.bool(true)
	e.bool(tt.Ordered)
	e.uvarint(uint64(len(tt.Attrs)))
	for _, a := range tt.Attrs {
		e.string(a.Name)
		e.byte(byte(a.Type.Kind))
		if a.Type.Kind == model.KindTable {
			if err := e.tableTypeDepth(a.Type.Table, depth+1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *dec) tableType() *model.TableType { return d.tableTypeDepth(0) }

func (d *dec) tableTypeDepth(depth int) *model.TableType {
	if depth > maxDepth {
		d.fail("type nesting exceeds %d", maxDepth)
		return nil
	}
	if !d.bool() {
		return nil
	}
	tt := &model.TableType{Ordered: d.bool()}
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		d.fail("attr count %d exceeds payload", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		a := model.Attr{Name: d.string()}
		a.Type.Kind = model.Kind(d.byte())
		if a.Type.Kind == model.KindTable {
			a.Type.Table = d.tableTypeDepth(depth + 1)
		}
		tt.Attrs = append(tt.Attrs, a)
	}
	return tt
}
