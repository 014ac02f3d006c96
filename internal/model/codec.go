package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/dberr"
)

// EncodeAtoms serializes a list of atomic values into the byte payload
// of a data subtuple. The format is self-describing: a uvarint count
// followed by, per value, one atom as AppendAtom writes it.
func EncodeAtoms(vals []Value) ([]byte, error) {
	buf := make([]byte, 0, 16+8*len(vals))
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for i, v := range vals {
		var err error
		if buf, err = AppendAtom(buf, v); err != nil {
			return nil, fmt.Errorf("model: cannot encode value %d of kind %s as atom", i, v.Kind())
		}
	}
	return buf, nil
}

// AppendAtom appends one atomic value to dst: its kind tag byte (0 for
// null) and a kind-dependent payload. Ints and Times use zigzag
// varints, Floats 8 little-endian bytes, Strings a uvarint length
// prefix, Bools one byte. The storage layer's data subtuples and the
// wire protocol's values both write atoms this way. A table is not an
// atom; for one, dst comes back unchanged with an error.
func AppendAtom(dst []byte, v Value) ([]byte, error) {
	if IsNull(v) {
		return append(dst, byte(KindInvalid)), nil
	}
	switch x := v.(type) {
	case Int:
		return binary.AppendVarint(append(dst, byte(KindInt)), int64(x)), nil
	case Float:
		return binary.LittleEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(float64(x))), nil
	case Str:
		dst = binary.AppendUvarint(append(dst, byte(KindString)), uint64(len(x)))
		return append(dst, x...), nil
	case Bool:
		if x {
			return append(dst, byte(KindBool), 1), nil
		}
		return append(dst, byte(KindBool), 0), nil
	case Time:
		return binary.AppendVarint(append(dst, byte(KindTime)), int64(x)), nil
	}
	return dst, fmt.Errorf("model: cannot encode value of kind %s as atom", v.Kind())
}

// The faults DecodeAtom reports. They say what is wrong with the atom
// alone; a caller says where it was and what it means (corrupt storage,
// a bad wire payload).
var (
	errAtomTruncated = errors.New("truncated")
	errAtomVarint    = errors.New("bad varint")
	errAtomFloat     = errors.New("short float")
	errAtomString    = errors.New("bad string")
	errAtomBool      = errors.New("short bool")
)

// DecodeAtom decodes the atom at the start of p, as AppendAtom wrote
// it, and returns it with the number of bytes it took. p is only read:
// the value owns its bytes. With a slab the value lives in it (see
// Slab); with nil it is a heap box of its own. rest is the number of
// atoms left to decode, counting this one: the slab sizes a new chunk
// by it. A table's tag is not an atom's and is reported as unknown.
func DecodeAtom(p []byte, slab *Slab, rest int) (Value, int, error) {
	if len(p) == 0 {
		return nil, 0, errAtomTruncated
	}
	tag := Kind(p[0])
	p = p[1:]
	switch tag {
	case KindInvalid:
		return Null{}, 1, nil
	case KindInt, KindTime:
		x, m := binary.Varint(p)
		if m <= 0 {
			return nil, 0, errAtomVarint
		}
		return slab.word(tag, uint64(x), rest), 1 + m, nil
	case KindFloat:
		if len(p) < 8 {
			return nil, 0, errAtomFloat
		}
		return slab.word(tag, binary.LittleEndian.Uint64(p), rest), 9, nil
	case KindString:
		l, m := binary.Uvarint(p)
		if m <= 0 || uint64(len(p)-m) < l {
			return nil, 0, errAtomString
		}
		end := m + int(l)
		return slab.str(p[m:end], rest, len(p)), 1 + end, nil
	case KindBool:
		if len(p) < 1 {
			return nil, 0, errAtomBool
		}
		return Bool(p[0] != 0), 2, nil
	}
	return nil, 0, fmt.Errorf("unknown kind tag %d", tag)
}

// DecodeAtoms parses a data-subtuple payload produced by EncodeAtoms.
// The values share one slab.
func DecodeAtoms(data []byte) ([]Value, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, dberr.Corruptf("model: corrupt atom payload: bad count")
	}
	if n > uint64(len(data)) {
		return nil, dberr.Corruptf("model: corrupt atom payload: count %d exceeds payload", n)
	}
	vals := make([]Value, n)
	var slab Slab
	if _, err := DecodeAtomsInto(data, vals, nil, &slab); err != nil {
		return nil, err
	}
	return vals, nil
}

// DecodeAtomsInto is DecodeAtoms writing straight into tuple slots:
// atom i is stored at dst[slots[i]] (nil slots: at dst[i]), so a data
// subtuple decodes into its place in a tuple without an intermediate
// slice. It returns the number of atoms the payload held; a payload
// with more atoms than there are slots is corrupt. data is only read:
// every decoded value owns its bytes. With a slab the values live in it
// (see Slab); with nil each is a heap box of its own.
func DecodeAtomsInto(data []byte, dst []Value, slots []int, slab *Slab) (int, error) {
	room := len(dst)
	if slots != nil {
		room = len(slots)
	}
	n, p, err := atomCount(data, room)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		v, m, err := DecodeAtom(p, slab, n-i)
		if err != nil {
			return 0, dberr.Corruptf("model: corrupt atom payload: %v at value %d", err, i)
		}
		p = p[m:]
		if slots != nil {
			dst[slots[i]] = v
		} else {
			dst[i] = v
		}
	}
	if len(p) != 0 {
		return 0, dberr.Corruptf("model: corrupt atom payload: %d trailing bytes", len(p))
	}
	return n, nil
}

// atomCount reads the atom count of a data-subtuple payload for a level
// with room atomic attributes and returns the bytes after it.
func atomCount(data []byte, room int) (int, []byte, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return 0, nil, dberr.Corruptf("model: corrupt atom payload: bad count")
	}
	if n > uint64(room) {
		return 0, nil, dberr.Corruptf("model: data subtuple has %d atoms, schema wants %d", n, room)
	}
	return int(n), data[off:], nil
}

// Atom is one atom of an encoded data subtuple, cut out in place: its
// kind tag (KindInvalid for null) and its value — the bits of an Int,
// Time, Float or Bool, or the bytes of a String, which alias the payload
// it was cut from.
type Atom struct {
	Kind Kind
	w    uint64
	b    []byte
}

// AtomAt validates an encoded data subtuple of a level with room atomic
// attributes, exactly as strictly as DecodeAtomsInto does, and returns
// its atom i in place without building a Value. An atom beyond the end
// of a payload written before its attribute was added (ALTER TABLE ADD)
// is null, as it decodes. The walk mirrors DecodeAtomsInto's;
// FuzzEncodedTest holds the two to the same verdicts and values.
func AtomAt(data []byte, room, i int) (Atom, error) {
	n, p, err := atomCount(data, room)
	if err != nil {
		return Atom{}, err
	}
	var at Atom
	for k := 0; k < n; k++ {
		if len(p) == 0 {
			return Atom{}, dberr.Corruptf("model: corrupt atom payload: truncated at value %d", k)
		}
		a := Atom{Kind: Kind(p[0])}
		p = p[1:]
		switch a.Kind {
		case KindInvalid:
		case KindInt, KindTime:
			x, m := binary.Varint(p)
			if m <= 0 {
				return Atom{}, dberr.Corruptf("model: corrupt atom payload: bad varint at value %d", k)
			}
			a.w, p = uint64(x), p[m:]
		case KindFloat:
			if len(p) < 8 {
				return Atom{}, dberr.Corruptf("model: corrupt atom payload: short float at value %d", k)
			}
			a.w, p = binary.LittleEndian.Uint64(p), p[8:]
		case KindString:
			l, m := binary.Uvarint(p)
			if m <= 0 || uint64(len(p)-m) < l {
				return Atom{}, dberr.Corruptf("model: corrupt atom payload: bad string at value %d", k)
			}
			a.b, p = p[m:uint64(m)+l], p[uint64(m)+l:]
		case KindBool:
			if len(p) < 1 {
				return Atom{}, dberr.Corruptf("model: corrupt atom payload: short bool at value %d", k)
			}
			a.w, p = uint64(p[0]), p[1:]
		default:
			return Atom{}, dberr.Corruptf("model: corrupt atom payload: unknown kind tag %d at value %d", a.Kind, k)
		}
		if k == i {
			at = a
		}
	}
	if len(p) != 0 {
		return Atom{}, dberr.Corruptf("model: corrupt atom payload: %d trailing bytes", len(p))
	}
	return at, nil
}

// IsNull reports whether the atom is null.
func (a Atom) IsNull() bool { return a.Kind == KindInvalid }

// Bytes returns a String atom's bytes in place.
func (a Atom) Bytes() []byte { return a.b }

func (a Atom) int() int64 { return int64(a.w) }

func (a Atom) float() float64 { return math.Float64frombits(a.w) }

// value decodes the atom into a heap-boxed Value that owns its bytes.
func (a Atom) value() Value {
	switch a.Kind {
	case KindInt:
		return Int(a.int())
	case KindTime:
		return Time(a.int())
	case KindFloat:
		return Float(a.float())
	case KindString:
		return Str(a.b)
	case KindBool:
		return Bool(a.w != 0)
	}
	return Null{}
}

// Compare is Compare(decoded atom, v) without decoding the atom: the
// same order, the same Int/Float promotion and the same errors.
func (a Atom) Compare(v Value) (int, error) {
	switch {
	case a.IsNull() && IsNull(v):
		return 0, nil
	case a.IsNull():
		return -1, nil
	case IsNull(v):
		return 1, nil
	}
	switch x := v.(type) {
	case Int:
		switch a.Kind {
		case KindInt:
			return cmpOrdered(a.int(), int64(x)), nil
		case KindFloat:
			return cmpOrdered(a.float(), float64(x)), nil
		}
	case Float:
		switch a.Kind {
		case KindInt:
			return cmpOrdered(float64(a.int()), float64(x)), nil
		case KindFloat:
			return cmpOrdered(a.float(), float64(x)), nil
		}
	case Str:
		// Written out so that the conversions do not copy the bytes.
		if a.Kind == KindString {
			switch s := string(x); {
			case string(a.b) < s:
				return -1, nil
			case string(a.b) > s:
				return 1, nil
			}
			return 0, nil
		}
	case Time:
		if a.Kind == KindTime {
			return cmpOrdered(a.int(), int64(x)), nil
		}
	case Bool:
		if a.Kind == KindBool {
			return Compare(Bool(a.w != 0), x)
		}
	}
	return Compare(a.value(), v)
}

// AppendKey appends the atom's index key to dst: the bytes
// EncodeKeyValue gives the decoded atom.
func (a Atom) AppendKey(dst []byte) []byte {
	switch a.Kind {
	case KindInt:
		return appendOrderedFloat(dst, float64(a.int()))
	case KindFloat:
		return appendOrderedFloat(dst, a.float())
	case KindTime:
		return appendTimeKey(dst, a.int())
	case KindBool:
		if a.w != 0 {
			return append(dst, 3, 1)
		}
		return append(dst, 3, 0)
	case KindString:
		return append(append(dst, 4), a.b...)
	}
	return append(dst, 0)
}

// EncodeKeyValue serializes a single atomic value into an
// order-preserving byte string suitable as a B-tree key: for every
// pair of values of the same kind, bytes.Compare of the encodings
// agrees with Compare. Nulls sort first; Int and Float share one
// numeric encoding so cross-kind numeric comparisons work.
func EncodeKeyValue(v Value) ([]byte, error) {
	if IsNull(v) {
		return []byte{0}, nil
	}
	switch x := v.(type) {
	case Int:
		return appendOrderedFloat(nil, float64(x)), nil
	case Float:
		return appendOrderedFloat(nil, float64(x)), nil
	case Time:
		return appendTimeKey(nil, int64(x)), nil
	case Bool:
		if x {
			return []byte{3, 1}, nil
		}
		return []byte{3, 0}, nil
	case Str:
		return append([]byte{4}, x...), nil
	}
	return nil, fmt.Errorf("model: cannot encode %s as key", v.Kind())
}

func appendTimeKey(b []byte, t int64) []byte {
	return binary.BigEndian.AppendUint64(append(b, 2), uint64(t)^(1<<63))
}

// appendOrderedFloat encodes a float64 so that lexicographic byte
// order matches numeric order (standard sign-flip trick).
func appendOrderedFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	b = append(b, 1)
	return binary.BigEndian.AppendUint64(b, bits)
}
