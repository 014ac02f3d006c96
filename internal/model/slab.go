package model

import (
	"math"
	"unsafe"
)

// This is the one file of the module that imports unsafe. The reason:
// Value is an interface, and Go stores every value that is not a
// pointer behind an interface as a heap box of its own — one allocation
// per Int, Float or Time and two per Str (its header and its bytes). A
// read that decodes an object of a few hundred atoms allocates a few
// hundred times for nothing but boxes. A Slab keeps the atoms of one
// read in a few arrays instead and points each Value's data word at its
// element, which Go cannot express without unsafe.
//
// What keeps it sound:
//   - An element is written once, before the Value pointing at it exists,
//     and never again. Values are immutable, as boxed ones are.
//   - A chunk is never reused, resized or moved. When one is full a new
//     one is allocated and the old one is left to the Values that point
//     into it; an interior pointer keeps a whole chunk alive for the
//     garbage collector.
//   - Nothing in a slab aliases the bytes it was decoded from: string
//     bytes are copied into the slab's own buffer, so a Value outlives
//     the page image it was read from.
//   - Only the data word of an interface is replaced, with a pointer to
//     memory laid out as the type its type word names: a Str for a Str;
//     for an Int, Float or Time a uint64 holding its bits — the same
//     size and alignment, and no pointers for the collector to miss.

// Slab is the backing store of the atoms one read decodes (see
// DecodeAtom and DecodeAtomsInto), and of the tuples a wire row stream
// decodes (see Tuple). Its chunks grow geometrically, a new one at
// least as large as what is left of the payload being decoded, so a
// read of n atoms costs O(log n) allocations. The zero value is ready
// to use; a nil *Slab boxes every value on the heap. A Slab is used by
// one goroutine; the Values and Tuples it hands out may be shared
// freely.
type Slab struct {
	words []uint64 // Int, Float and Time atoms
	strs  []Str
	bytes []byte  // the bytes of strs
	vals  []Value // the slots of the tuples Tuple hands out
}

// boxFree reports whether Go boxes an 8-byte scalar of this bit pattern
// without allocating (it keeps the values below 256 in a static table):
// those stay out of the slab.
func boxFree(w uint64) bool { return w < 256 }

// grow makes room for n more elements in *buf: when it has none, *buf
// becomes a new empty chunk twice as large as the old one, and at least
// hint. The old chunk is left as it is: Values point into it. *buf is
// written only then — a slice store is a pointer store, which costs a
// write barrier while the collector runs.
func grow[T any](buf *[]T, n, hint int) {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]T, 0, max(2*cap(*buf), hint, n))
	}
}

// iface is the memory layout of a non-empty interface value.
type iface struct {
	tab  unsafe.Pointer
	data unsafe.Pointer
}

// Prototypes whose type words the slab's Values copy.
var (
	intProto   Value = Int(0)
	floatProto Value = Float(0)
	timeProto  Value = Time(0)
	strProto   Value = Str("")
)

// boxAt returns proto's dynamic type with its data word pointing at p,
// which must hold a value of that type.
func boxAt(proto Value, p unsafe.Pointer) Value {
	v := proto
	(*iface)(unsafe.Pointer(&v)).data = p
	return v
}

// word returns the Int, Float or Time of kind k whose bits are w. rest
// is the number of atoms left in the payload, counting this one.
func (s *Slab) word(k Kind, w uint64, rest int) Value {
	proto := floatProto
	switch k {
	case KindInt:
		if s == nil || boxFree(w) {
			return Int(int64(w))
		}
		proto = intProto
	case KindTime:
		if s == nil || boxFree(w) {
			return Time(int64(w))
		}
		proto = timeProto
	default:
		if s == nil || boxFree(w) {
			return Float(math.Float64frombits(w))
		}
	}
	grow(&s.words, 1, rest)
	s.words = append(s.words, w)
	return boxAt(proto, unsafe.Pointer(&s.words[len(s.words)-1]))
}

// str returns a Str holding a copy of b. rest is the number of atoms
// left in the payload and left its bytes, counting this one.
func (s *Slab) str(b []byte, rest, left int) Value {
	if s == nil || len(b) == 0 {
		return Str(b)
	}
	grow(&s.strs, 1, rest)
	grow(&s.bytes, len(b), left)
	n := len(s.bytes)
	s.bytes = append(s.bytes, b...)
	s.strs = append(s.strs, Str(unsafe.String(&s.bytes[n], len(b))))
	return boxAt(strProto, unsafe.Pointer(&s.strs[len(s.strs)-1]))
}

// Tuple returns an empty tuple with room for n values, carved from the
// slab; a nil *Slab allocates it. Its capacity ends at n, so appending
// past n moves it and never writes into a neighbour's slots.
func (s *Slab) Tuple(n int) Tuple {
	if s == nil {
		return make(Tuple, 0, n)
	}
	grow(&s.vals, n, n)
	k := len(s.vals)
	s.vals = s.vals[:k+n]
	return s.vals[k : k : k+n]
}
