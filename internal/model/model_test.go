package model

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dberr"
)

func deptType() *TableType {
	return MustTableType(false,
		Attr{Name: "DNO", Type: AtomicType(KindInt)},
		Attr{Name: "PROJECTS", Type: TableOf(false,
			Attr{Name: "PNO", Type: AtomicType(KindInt)},
			Attr{Name: "MEMBERS", Type: TableOf(false,
				Attr{Name: "EMPNO", Type: AtomicType(KindInt)})},
		)},
		Attr{Name: "BUDGET", Type: AtomicType(KindInt)},
	)
}

func TestTableTypeBasics(t *testing.T) {
	tt := deptType()
	if tt.Flat() {
		t.Error("nested type reported flat")
	}
	if d := tt.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	if got := tt.AtomicIndexes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("AtomicIndexes = %v", got)
	}
	if got := tt.TableIndexes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("TableIndexes = %v", got)
	}
	if i := tt.AttrIndex("BUDGET"); i != 2 {
		t.Errorf("AttrIndex(BUDGET) = %d", i)
	}
	if i := tt.AttrIndex("NOPE"); i != -1 {
		t.Errorf("AttrIndex(NOPE) = %d", i)
	}
	if !tt.Equal(tt.Clone()) {
		t.Error("Clone not Equal")
	}
}

func TestTableTypeValidate(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attr
	}{
		{"duplicate", []Attr{{Name: "A", Type: AtomicType(KindInt)}, {Name: "A", Type: AtomicType(KindInt)}}},
		{"empty name", []Attr{{Name: "", Type: AtomicType(KindInt)}}},
		{"invalid type", []Attr{{Name: "A", Type: Type{}}}},
		{"nil subtable", []Attr{{Name: "A", Type: Type{Kind: KindTable}}}},
		{"nested dup", []Attr{{Name: "A", Type: TableOf(false,
			Attr{Name: "X", Type: AtomicType(KindInt)}, Attr{Name: "X", Type: AtomicType(KindInt)})}}},
	}
	for _, c := range cases {
		if _, err := NewTableType(false, c.attrs...); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestConform(t *testing.T) {
	tt := deptType()
	ok := Tuple{Int(1), NewRelation(Tuple{Int(2), NewRelation(Tuple{Int(3)})}), Int(4)}
	if err := Conform(tt, ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	bad := []Tuple{
		{Int(1)},                                     // arity
		{Int(1), NewRelation(), Str("x")},            // wrong atomic kind
		{Int(1), NewList(), Int(4)},                  // ordering mismatch
		{Int(1), Str("no table"), Int(4)},            // not a table
		{Int(1), NewRelation(Tuple{Int(2)}), Int(4)}, // inner arity
	}
	for i, tup := range bad {
		if err := Conform(tt, tup); err == nil {
			t.Errorf("bad tuple %d accepted", i)
		}
	}
	// Null is allowed for atomic attributes.
	withNull := Tuple{Null{}, NewRelation(), Int(4)}
	if err := Conform(tt, withNull); err != nil {
		t.Errorf("null rejected: %v", err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Str("b"), Str("a"), 1},
		{Float(1.5), Float(1.5), 0},
		{Int(2), Float(2.5), -1}, // numeric promotion
		{Float(3), Int(2), 1},
		{Bool(false), Bool(true), -1},
		{Null{}, Int(0), -1},
		{Int(0), Null{}, 1},
		{Null{}, Null{}, 0},
		{TimeOf(time.Unix(1, 0)), TimeOf(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(Str("x"), Int(1)); err == nil {
		t.Error("cross-kind compare succeeded")
	}
	if _, err := Compare(NewRelation(), NewRelation()); err == nil {
		t.Error("table compare succeeded")
	}
}

func TestTableEqualBagSemantics(t *testing.T) {
	a := NewRelation(Tuple{Int(1)}, Tuple{Int(2)})
	b := NewRelation(Tuple{Int(2)}, Tuple{Int(1)})
	if !TableEqual(a, b) {
		t.Error("unordered tables with same bag not equal")
	}
	al := NewList(Tuple{Int(1)}, Tuple{Int(2)})
	bl := NewList(Tuple{Int(2)}, Tuple{Int(1)})
	if TableEqual(al, bl) {
		t.Error("ordered tables with different order equal")
	}
	dup := NewRelation(Tuple{Int(1)}, Tuple{Int(1)})
	single := NewRelation(Tuple{Int(1)}, Tuple{Int(2)})
	if TableEqual(dup, single) {
		t.Error("different bags equal")
	}
}

func TestAtomsCodecRoundTrip(t *testing.T) {
	vals := []Value{Int(-42), Str("héllo"), Float(3.25), Bool(true), Null{}, TimeOf(time.Unix(123, 456))}
	enc, err := EncodeAtoms(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAtoms(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !AtomEqual(got[i], vals[i]) {
			t.Errorf("value %d: got %v want %v", i, got[i], vals[i])
		}
	}
}

func TestAtomsCodecCorrupt(t *testing.T) {
	vals := []Value{Int(1), Str("abc")}
	enc, _ := EncodeAtoms(vals)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeAtoms(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeAtoms(append(enc, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// DecodeAtomsInto places atom i in slot slots[i] of a tuple, leaves
// the other slots alone, reports how many atoms the payload held (an
// older, shorter data subtuple) and rejects a payload with more atoms
// than slots. The values own their bytes: the payload may be reused.
// All of it holds with heap boxes and with a slab.
func TestDecodeAtomsInto(t *testing.T) {
	for _, slab := range []*Slab{nil, new(Slab)} {
		enc, err := EncodeAtoms([]Value{Int(7000), Str("abc"), Null{}})
		if err != nil {
			t.Fatal(err)
		}
		sub := &Table{}
		tup := Tuple{nil, sub, nil, nil, nil}
		n, err := DecodeAtomsInto(enc, tup, []int{0, 2, 3, 4}, slab)
		if err != nil || n != 3 {
			t.Fatalf("DecodeAtomsInto = %d, %v", n, err)
		}
		for i := range enc {
			enc[i] = 0xEE
		}
		want := Tuple{Int(7000), sub, Str("abc"), Null{}, nil}
		for i := range want {
			if i == 1 || i == 4 {
				if tup[i] != want[i] {
					t.Errorf("slot %d touched: %v", i, tup[i])
				}
				continue
			}
			if !AtomEqual(tup[i], want[i]) {
				t.Errorf("slot %d = %v, want %v", i, tup[i], want[i])
			}
		}
		enc, _ = EncodeAtoms([]Value{Int(1), Int(2), Int(3)})
		if _, err := DecodeAtomsInto(enc, make(Tuple, 3), []int{0, 1}, slab); !dberr.IsCorrupt(err) {
			t.Errorf("three atoms into two slots = %v, want corruption", err)
		}
		flat := make(Tuple, 3)
		if n, err := DecodeAtomsInto(enc, flat, nil, slab); err != nil || n != 3 || !AtomEqual(flat[2], Int(3)) {
			t.Errorf("identity slots: %v, %d, %v", flat, n, err)
		}
	}
}

// Property: EncodeAtoms/DecodeAtoms round-trips arbitrary int/string
// mixes.
func TestAtomsCodecQuick(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		var vals []Value
		for _, i := range ints {
			vals = append(vals, Int(i))
		}
		for _, s := range strs {
			vals = append(vals, Str(s))
		}
		enc, err := EncodeAtoms(vals)
		if err != nil {
			return false
		}
		got, err := DecodeAtoms(enc)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if !AtomEqual(got[i], vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EncodeKeyValue preserves ordering for ints.
func TestKeyEncodingOrderQuick(t *testing.T) {
	f := func(a, b int64) bool {
		ka, _ := EncodeKeyValue(Int(a))
		kb, _ := EncodeKeyValue(Int(b))
		cmp, _ := Compare(Int(a), Int(b))
		return bytes.Compare(ka, kb) == cmp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingOrderFloatInt(t *testing.T) {
	pairs := []struct{ a, b Value }{
		{Int(1), Float(1.5)},
		{Float(-2.5), Int(-2)},
		{Int(0), Float(0)},
		{Float(math.Inf(-1)), Int(math.MinInt64)},
		{Null{}, Int(math.MinInt64)},
		{Str("a"), Str("ab")},
		{Bool(false), Bool(true)},
	}
	for _, p := range pairs {
		ka, err := EncodeKeyValue(p.a)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := EncodeKeyValue(p.b)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := Compare(p.a, p.b)
		if err != nil {
			// Cross-class comparisons (Null vs Int etc.) order by tag.
			cmp = bytes.Compare(ka[:1], kb[:1])
		}
		if bytes.Compare(ka, kb) != cmp {
			t.Errorf("key order of %v vs %v diverges from Compare", p.a, p.b)
		}
	}
}

func TestFormatTable(t *testing.T) {
	tt := deptType()
	tbl := NewRelation(
		Tuple{Int(314), NewRelation(
			Tuple{Int(17), NewRelation(Tuple{Int(39582)}, Tuple{Int(56019)})},
			Tuple{Int(23), NewRelation(Tuple{Int(58912)})},
		), Int(320000)},
	)
	out := FormatTable("DEPARTMENTS", tt, tbl)
	for _, want := range []string{"{ DEPARTMENTS }", "DNO", "{ PROJECTS }", "PNO", "{ MEMBERS }", "EMPNO", "314", "17", "39582", "56019", "23", "58912", "320000"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Members of project 17 must appear before project 23's.
	if strings.Index(out, "56019") > strings.Index(out, "58912") {
		t.Errorf("nested rows out of order:\n%s", out)
	}
}

func TestTupleCloneDeep(t *testing.T) {
	orig := Tuple{Int(1), NewRelation(Tuple{Int(2)})}
	cp := orig.Clone()
	cp[1].(*Table).Tuples[0][0] = Int(99)
	if orig[1].(*Table).Tuples[0][0].(Int) != 2 {
		t.Error("Clone shares nested state")
	}
}

func TestValueStrings(t *testing.T) {
	if NewList(Tuple{Str("a")}).String() != `<("a")>` {
		t.Errorf("list rendering = %s", NewList(Tuple{Str("a")}).String())
	}
	if NewRelation().String() != "{}" {
		t.Errorf("empty relation = %s", NewRelation().String())
	}
	if Bool(true).String() != "TRUE" || (Null{}).String() != "NULL" {
		t.Error("atomic rendering wrong")
	}
}

// The attribute positions are computed once per type and follow an
// appended attribute (ALTER TABLE ADD, schema builders).
func TestAttrPositionsFollowAppend(t *testing.T) {
	tt := deptType()
	first := tt.AtomicIndexes()
	if again := tt.AtomicIndexes(); &again[0] != &first[0] {
		t.Error("AtomicIndexes recomputed for an unchanged type")
	}
	n, atoms, tables := len(tt.Attrs), len(first), len(tt.TableIndexes())
	tt.Attrs = append(tt.Attrs, Attr{Name: "NOTE", Type: AtomicType(KindString)},
		Attr{Name: "EQUIP", Type: TableOf(false, Attr{Name: "QU", Type: AtomicType(KindInt)})})
	if got := tt.AtomicIndexes(); len(got) != atoms+1 || got[atoms] != n {
		t.Errorf("AtomicIndexes after append = %v", got)
	}
	if got := tt.TableIndexes(); len(got) != tables+1 || got[tables] != n+1 || tt.Flat() {
		t.Errorf("TableIndexes after append = %v, Flat = %v", got, tt.Flat())
	}
	if cp := tt.Clone(); len(cp.AtomicIndexes()) != atoms+1 || !cp.Equal(tt) {
		t.Errorf("clone positions = %v", cp.AtomicIndexes())
	}
}

// TestSlabRenew: a read after Renew gets chunks of its own — the values
// of the read before keep theirs — and its first chunk of each kind is
// as large as what the read before used, so a read like it makes one
// chunk per kind: a payload of 64 large Ints and 64 Strs decodes with
// three allocations (words, string headers, string bytes) instead of
// growing through several, and a renewal after a read that used nothing
// keeps the size.
func TestSlabRenew(t *testing.T) {
	vals := make([]Value, 0, 128)
	for i := range 64 {
		vals = append(vals, Int(1000+i), Str("member "+strconv.Itoa(i)))
	}
	enc, err := EncodeAtoms(vals)
	if err != nil {
		t.Fatal(err)
	}
	var slab Slab
	first := make(Tuple, len(vals))
	if _, err := DecodeAtomsInto(enc, first, nil, &slab); err != nil {
		t.Fatal(err)
	}
	dst := make(Tuple, len(vals))
	allocs := testing.AllocsPerRun(20, func() {
		slab.Renew()
		slab.Renew() // a read that used nothing in between
		if _, err := DecodeAtomsInto(enc, dst, nil, &slab); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("a read like the last allocates %.0f times after Renew, want 3", allocs)
	}
	for i := range vals {
		if !AtomEqual(first[i], vals[i]) || !AtomEqual(dst[i], vals[i]) {
			t.Fatalf("atom %d reads %v and %v, want %v", i, first[i], dst[i], vals[i])
		}
	}
}
