package model

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dberr"
)

// EncodeAtoms serializes a list of atomic values into the byte payload
// of a data subtuple. The format is self-describing: a uvarint count
// followed by, per value, one kind tag byte (0 for null) and a
// kind-dependent payload. Ints and Times use zigzag varints, Floats 8
// little-endian bytes, Strings a uvarint length prefix.
func EncodeAtoms(vals []Value) ([]byte, error) {
	buf := make([]byte, 0, 16+8*len(vals))
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for i, v := range vals {
		if IsNull(v) {
			buf = append(buf, 0)
			continue
		}
		switch x := v.(type) {
		case Int:
			buf = append(buf, byte(KindInt))
			buf = binary.AppendVarint(buf, int64(x))
		case Float:
			buf = append(buf, byte(KindFloat))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(x)))
		case Str:
			buf = append(buf, byte(KindString))
			buf = binary.AppendUvarint(buf, uint64(len(x)))
			buf = append(buf, x...)
		case Bool:
			buf = append(buf, byte(KindBool))
			if x {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case Time:
			buf = append(buf, byte(KindTime))
			buf = binary.AppendVarint(buf, int64(x))
		default:
			return nil, fmt.Errorf("model: cannot encode value %d of kind %s as atom", i, v.Kind())
		}
	}
	return buf, nil
}

// DecodeAtoms parses a data-subtuple payload produced by EncodeAtoms.
func DecodeAtoms(data []byte) ([]Value, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, dberr.Corruptf("model: corrupt atom payload: bad count")
	}
	if n > uint64(len(data)) {
		return nil, dberr.Corruptf("model: corrupt atom payload: count %d exceeds payload", n)
	}
	vals := make([]Value, n)
	if _, err := DecodeAtomsInto(data, vals, nil); err != nil {
		return nil, err
	}
	return vals, nil
}

// DecodeAtomsInto is DecodeAtoms writing straight into tuple slots:
// atom i is stored at dst[slots[i]] (nil slots: at dst[i]), so a data
// subtuple decodes into its place in a tuple without an intermediate
// slice. It returns the number of atoms the payload held; a payload
// with more atoms than there are slots is corrupt. data is only read:
// every decoded value owns its bytes.
func DecodeAtomsInto(data []byte, dst []Value, slots []int) (int, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return 0, dberr.Corruptf("model: corrupt atom payload: bad count")
	}
	room := len(dst)
	if slots != nil {
		room = len(slots)
	}
	if n > uint64(room) {
		return 0, dberr.Corruptf("model: data subtuple has %d atoms, schema wants %d", n, room)
	}
	p := data[off:]
	for i := 0; i < int(n); i++ {
		if len(p) == 0 {
			return 0, dberr.Corruptf("model: corrupt atom payload: truncated at value %d", i)
		}
		tag := Kind(p[0])
		p = p[1:]
		var v Value
		switch tag {
		case KindInvalid:
			v = Null{}
		case KindInt, KindTime:
			x, m := binary.Varint(p)
			if m <= 0 {
				return 0, dberr.Corruptf("model: corrupt atom payload: bad varint at value %d", i)
			}
			p = p[m:]
			if tag == KindInt {
				v = Int(x)
			} else {
				v = Time(x)
			}
		case KindFloat:
			if len(p) < 8 {
				return 0, dberr.Corruptf("model: corrupt atom payload: short float at value %d", i)
			}
			v = Float(math.Float64frombits(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		case KindString:
			l, m := binary.Uvarint(p)
			if m <= 0 || uint64(len(p)-m) < l {
				return 0, dberr.Corruptf("model: corrupt atom payload: bad string at value %d", i)
			}
			v = Str(p[m : uint64(m)+l])
			p = p[uint64(m)+l:]
		case KindBool:
			if len(p) < 1 {
				return 0, dberr.Corruptf("model: corrupt atom payload: short bool at value %d", i)
			}
			v = Bool(p[0] != 0)
			p = p[1:]
		default:
			return 0, dberr.Corruptf("model: corrupt atom payload: unknown kind tag %d at value %d", tag, i)
		}
		if slots != nil {
			dst[slots[i]] = v
		} else {
			dst[i] = v
		}
	}
	if len(p) != 0 {
		return 0, dberr.Corruptf("model: corrupt atom payload: %d trailing bytes", len(p))
	}
	return int(n), nil
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
		b := []byte{2}
		return binary.BigEndian.AppendUint64(b, uint64(int64(x))^(1<<63)), nil
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
