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
// read of n atoms costs O(log n) allocations; a run of similar reads
// renews the slab between them (Renew) and costs one chunk of each kind
// per read. The zero value is ready to use; a nil *Slab boxes every
// value on the heap. A Slab is used by one goroutine; the Values and
// Tuples it hands out may be shared freely.
type Slab struct {
	words chunks[uint64] // Int, Float and Time atoms
	strs  chunks[Str]
	bytes chunks[byte]  // the bytes of strs
	vals  chunks[Value] // the slots of the tuples Tuple hands out
}

// chunks is the storage of one kind of element: the chunk being
// filled, how many elements the chunks filled before it hold since the
// last Renew, and the capacity Renew asked of the next first chunk.
type chunks[T any] struct {
	buf   []T
	spent int
	first int
}

// Renew starts s over for the next read of a run. The chunks filled so
// far are left to the Values that point into them — the next read
// shares none of them — and the first chunk of each kind the next read
// makes is as large as what this read used of that kind, so a read like
// the last one fills one chunk per kind instead of growing through
// several. A read that used none of a kind leaves its size as it was.
func (s *Slab) Renew() {
	s.words.renew()
	s.strs.renew()
	s.bytes.renew()
	s.vals.renew()
}

func (c *chunks[T]) renew() {
	if used := c.spent + len(c.buf); used > 0 {
		c.first = used
	}
	c.buf, c.spent = nil, 0
}

// boxFree reports whether Go boxes an 8-byte scalar of this bit pattern
// without allocating (it keeps the values below 256 in a static table):
// those stay out of the slab.
func boxFree(w uint64) bool { return w < 256 }

// grow makes room for n more elements in c.buf: when it has none,
// c.buf becomes a new empty chunk twice as large as the old one, and at
// least hint and the size Renew asked for. The old chunk is left as it
// is: Values point into it. c.buf is written only then — a slice store
// is a pointer store, which costs a write barrier while the collector
// runs.
func (c *chunks[T]) grow(n, hint int) {
	if cap(c.buf)-len(c.buf) < n {
		c.spent += len(c.buf)
		c.buf = make([]T, 0, max(2*cap(c.buf), hint, n, c.first))
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
	s.words.grow(1, rest)
	s.words.buf = append(s.words.buf, w)
	return boxAt(proto, unsafe.Pointer(&s.words.buf[len(s.words.buf)-1]))
}

// str returns a Str holding a copy of b. rest is the number of atoms
// left in the payload and left its bytes, counting this one.
func (s *Slab) str(b []byte, rest, left int) Value {
	if s == nil || len(b) == 0 {
		return Str(b)
	}
	s.strs.grow(1, rest)
	s.bytes.grow(len(b), left)
	n := len(s.bytes.buf)
	s.bytes.buf = append(s.bytes.buf, b...)
	s.strs.buf = append(s.strs.buf, Str(unsafe.String(&s.bytes.buf[n], len(b))))
	return boxAt(strProto, unsafe.Pointer(&s.strs.buf[len(s.strs.buf)-1]))
}

// Tuple returns an empty tuple with room for n values, carved from the
// slab; a nil *Slab allocates it. Its capacity ends at n, so appending
// past n moves it and never writes into a neighbour's slots.
func (s *Slab) Tuple(n int) Tuple {
	if s == nil {
		return make(Tuple, 0, n)
	}
	s.vals.grow(n, n)
	k := len(s.vals.buf)
	s.vals.buf = s.vals.buf[:k+n]
	return s.vals.buf[k : k : k+n]
}
