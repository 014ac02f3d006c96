package model

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dberr"
)

// genAtom draws a value of every atomic kind, nulls, empty strings,
// NaN and values on both sides of the range Go boxes without
// allocating.
func genAtom(rng *rand.Rand) Value {
	switch rng.Intn(7) {
	case 0:
		return Null{}
	case 1:
		return Int([]int64{0, 1, 255, 256, -1, 7000, math.MinInt64, math.MaxInt64}[rng.Intn(8)])
	case 2:
		return Float([]float64{0, 1, 255, 256.5, -0.5, math.NaN(), math.Inf(-1), 7000}[rng.Intn(8)])
	case 3:
		return Str([]string{"", "a", "ab", "é", strings.Repeat("x", 40)}[rng.Intn(5)])
	case 4:
		return Bool(rng.Intn(2) == 0)
	case 5:
		return Time([]int64{0, 300, -5}[rng.Intn(3)])
	}
	return Int(rng.Intn(600) - 300)
}

// decodedAtom is the reference: decode the payload and take atom i
// (null past the atoms written).
func decodedAtom(data []byte, room, i int) (Value, error) {
	vals := make([]Value, room)
	n, err := DecodeAtomsInto(data, vals, nil, nil)
	if err != nil || i >= n {
		return Null{}, err
	}
	return vals[i], nil
}

// checkEncoded holds AtomAt + Atom.Compare and Atom.AppendKey to the
// reference on one payload: the same corruption verdict (a typed error),
// the same order, the same comparison errors and the same index key.
func checkEncoded(t *testing.T, data []byte, room, i int, lit Value) {
	t.Helper()
	a, err := AtomAt(data, room, i)
	v, wantErr := decodedAtom(data, room, i)
	wantC := 0
	if wantErr == nil {
		wantC, wantErr = Compare(v, lit)
	}
	if err != nil {
		if !dberr.IsCorrupt(err) {
			t.Fatalf("AtomAt(%x) = %v, not a corruption error", data, err)
		}
		if wantErr == nil || !dberr.IsCorrupt(wantErr) {
			t.Fatalf("AtomAt(%x) = %v, decoding = %v", data, err, wantErr)
		}
		return
	}
	if dberr.IsCorrupt(wantErr) {
		t.Fatalf("AtomAt(%x) accepted a payload decoding rejects: %v", data, wantErr)
	}
	c, err := a.Compare(lit)
	if (err == nil) != (wantErr == nil) || c != wantC {
		t.Fatalf("atom %d of %x against %v: encoded %d, %v; decoded %d, %v", i, data, lit, c, err, wantC, wantErr)
	}
	if key, err := EncodeKeyValue(v); err != nil || !bytes.Equal(a.AppendKey(nil), key) {
		t.Fatalf("atom %d of %x: key %x, decoded key %x (%v)", i, data, a.AppendKey(nil), key, err)
	}
}

// Property: comparing an atom in place equals decoding it and calling
// Compare, for every pair of atom and literal kinds (Int against Float
// included), nulls, empty strings, NaN, short payloads (an index past
// the atoms written) and every truncation of a payload.
func TestAtomCompareMatchesDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3000; trial++ {
		vals := make([]Value, rng.Intn(5))
		for i := range vals {
			vals[i] = genAtom(rng)
		}
		data, err := EncodeAtoms(vals)
		if err != nil {
			t.Fatal(err)
		}
		room := len(vals) + rng.Intn(2)
		lit := genAtom(rng)
		checkEncoded(t, data, room, rng.Intn(room+1), lit)
		checkEncoded(t, data[:rng.Intn(len(data)+1)], room, rng.Intn(room+1), lit)
	}
}

// FuzzEncodedTest runs in-place comparison on arbitrary payload bytes:
// it never panics, a corrupt payload is a typed corruption error exactly
// when decoding rejects it, and on a valid payload it answers as
// decode-then-Compare does.
func FuzzEncodedTest(f *testing.F) {
	for _, vals := range [][]Value{
		{Int(7000), Str("abc"), Null{}},
		{Float(1.5), Bool(true), Time(9)},
		{Str(""), Int(-1)},
	} {
		data, _ := EncodeAtoms(vals)
		f.Add(data, uint8(0), int64(7000), "abc", uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, i uint8, n int64, s string, kind uint8) {
		lit := []Value{Int(n), Float(math.Float64frombits(uint64(n))), Str(s), Bool(n&1 == 1), Time(n), Null{}}[kind%6]
		room := int(i%8) + 1
		checkEncoded(t, data, room, int(i/8)%room, lit)
	})
}

// A Slab decodes to the same values as heap boxes, of the same dynamic
// types and equal under ==, and in fewer allocations.
func TestSlabMatchesBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	slab := new(Slab)
	for trial := 0; trial < 500; trial++ {
		vals := make([]Value, 1+rng.Intn(6))
		for i := range vals {
			vals[i] = genAtom(rng)
		}
		data, _ := EncodeAtoms(vals)
		boxed, inSlab := make([]Value, len(vals)), make([]Value, len(vals))
		if _, err := DecodeAtomsInto(data, boxed, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeAtomsInto(data, inSlab, nil, slab); err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			nan := false
			if f, ok := boxed[i].(Float); ok && math.IsNaN(float64(f)) {
				nan = math.IsNaN(float64(inSlab[i].(Float)))
			}
			if !nan && boxed[i] != inSlab[i] {
				t.Fatalf("atom %d: slab %#v, boxed %#v", i, inSlab[i], boxed[i])
			}
		}
	}
	data, _ := EncodeAtoms([]Value{Int(7000), Int(-9), Str("abc"), Str("defg"), Float(2.5), Time(1 << 40)})
	dst := make([]Value, 6)
	boxes := testing.AllocsPerRun(100, func() { DecodeAtomsInto(data, dst, nil, nil) })
	slabbed := testing.AllocsPerRun(100, func() { DecodeAtomsInto(data, dst, nil, new(Slab)) })
	if slabbed >= boxes {
		t.Errorf("a slab read allocates %.0f times, heap boxes %.0f", slabbed, boxes)
	}
}

// Values decoded into a slab own their bytes and outlive the payload,
// the slab's later growth and garbage collections: the payload is
// overwritten, the slab keeps filling new chunks, the collector runs,
// and every value still reads as it was decoded.
func TestSlabValuesSurviveReuseAndGC(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	slab := new(Slab)
	var kept, want [][]Value
	buf := make([]byte, 0, 256)
	for trial := 0; trial < 2000; trial++ {
		vals := make([]Value, 1+rng.Intn(5))
		for i := range vals {
			if vals[i] = genAtom(rng); vals[i].Kind() == KindFloat {
				vals[i] = Float(float64(rng.Intn(1000)) + 0.5) // NaN != NaN
			}
		}
		enc, _ := EncodeAtoms(vals)
		buf = append(buf[:0], enc...)
		got := make([]Value, len(vals))
		if _, err := DecodeAtomsInto(buf, got, nil, slab); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		kept, want = append(kept, got), append(want, vals)
		if trial%500 == 0 {
			runtime.GC()
		}
	}
	runtime.GC()
	for i := range kept {
		for j := range kept[i] {
			if !ValueEqual(kept[i][j], want[i][j]) {
				t.Fatalf("value %d.%d = %v, want %v", i, j, kept[i][j], want[i][j])
			}
		}
	}
}

// A slab's chunks grow geometrically from the first payload: a read of
// many atoms costs a few allocations, not one per atom.
func TestSlabGrowsGeometrically(t *testing.T) {
	var vals []Value
	for i := 0; i < 8; i++ {
		vals = append(vals, Int(1000+i), Str("member"))
	}
	data, _ := EncodeAtoms(vals)
	dst := make([]Value, len(vals))
	allocs := testing.AllocsPerRun(20, func() {
		var slab Slab
		for i := 0; i < 512; i++ {
			DecodeAtomsInto(data, dst, nil, &slab)
		}
	})
	// 512 payloads of 8 words, 8 strings, 48 bytes: about ten doublings
	// of each of the three chunks.
	if allocs > 40 {
		t.Errorf("decoding 8192 atoms into one slab allocates %.0f times", allocs)
	}
}

// Tuples carved from a slab are independent: filling one, or appending
// past its room, never writes into another. A nil slab allocates them.
func TestSlabTuple(t *testing.T) {
	slab := new(Slab)
	var tuples []Tuple
	for i := 0; i < 100; i++ {
		tup := slab.Tuple(3)
		if len(tup) != 0 || cap(tup) != 3 {
			t.Fatalf("tuple %d: len %d cap %d", i, len(tup), cap(tup))
		}
		tuples = append(tuples, append(tup, Int(i), Int(i+1), Int(i+2)))
	}
	grown := append(tuples[0], Str("past its room"))
	for i, tup := range tuples {
		if len(tup) != 3 || tup[0] != Int(i) || tup[2] != Int(i+2) {
			t.Fatalf("tuple %d is %v", i, tup)
		}
	}
	if len(grown) != 4 || grown[0] != Int(0) {
		t.Fatalf("grown tuple is %v", grown)
	}
	var none *Slab
	if tup := none.Tuple(2); len(tup) != 0 || cap(tup) != 2 {
		t.Fatalf("nil slab: len %d cap %d", len(tup), cap(tup))
	}
}
