package page

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func newPage() *Page {
	p := View(make([]byte, Size))
	p.Init()
	return p
}

func TestInsertRead(t *testing.T) {
	p := newPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), {}, bytes.Repeat([]byte{7}, 100)}
	var slots []uint16
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Read(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("slot %d: got %q want %q", s, got, recs[i])
		}
	}
}

func TestDeleteReusesSlot(t *testing.T) {
	p := newPage()
	s0, _ := p.Insert([]byte("a"))
	s1, _ := p.Insert([]byte("b"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(s0); err == nil {
		t.Error("read of deleted slot succeeded")
	}
	if p.Live(s0) {
		t.Error("deleted slot reported live")
	}
	s2, _ := p.Insert([]byte("c"))
	if s2 != s0 {
		t.Errorf("dead slot not reused: got %d want %d", s2, s0)
	}
	got, _ := p.Read(s1)
	if string(got) != "b" {
		t.Errorf("neighbor slot disturbed: %q", got)
	}
	if err := p.Delete(s0 + 100); err == nil {
		t.Error("delete of bogus slot succeeded")
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	p := newPage()
	s, _ := p.Insert(bytes.Repeat([]byte("x"), 50))
	other, _ := p.Insert([]byte("other"))
	if err := p.Update(s, []byte("small")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Read(s)
	if string(got) != "small" {
		t.Errorf("after shrink: %q", got)
	}
	big := bytes.Repeat([]byte("y"), 500)
	if err := p.Update(s, big); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(s)
	if !bytes.Equal(got, big) {
		t.Error("after grow: mismatch")
	}
	o, _ := p.Read(other)
	if string(o) != "other" {
		t.Errorf("other slot disturbed: %q", o)
	}
}

func TestUpdateNoSpace(t *testing.T) {
	p := newPage()
	s, err := p.Insert(bytes.Repeat([]byte("a"), 2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(bytes.Repeat([]byte("b"), 1900)); err != nil {
		t.Fatal(err)
	}
	err = p.Update(s, bytes.Repeat([]byte("c"), 2500))
	if err != ErrNoSpace {
		t.Fatalf("Update = %v, want ErrNoSpace", err)
	}
	// Original record must be intact after the failed grow.
	got, err := p.Read(s)
	if err != nil || len(got) != 2000 || got[0] != 'a' {
		t.Errorf("record damaged after failed update: len=%d err=%v", len(got), err)
	}
}

func TestInsertUntilFullThenCompact(t *testing.T) {
	p := newPage()
	var slots []uint16
	for {
		s, err := p.Insert(bytes.Repeat([]byte("z"), 64))
		if err == ErrNoSpace {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if len(slots) < 50 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other record, then the freed space must be usable.
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	n := 0
	for {
		if _, err := p.Insert(bytes.Repeat([]byte("w"), 60)); err != nil {
			break
		}
		n++
	}
	if n < len(slots)/4 {
		t.Errorf("reclaimed space yielded only %d inserts", n)
	}
	// Survivors unharmed.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Read(slots[i])
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte("z"), 64)) {
			t.Fatalf("survivor %d damaged", slots[i])
		}
	}
}

func TestInsertAt(t *testing.T) {
	p := newPage()
	if err := p.InsertAt(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Errorf("NumSlots = %d, want 4", p.NumSlots())
	}
	got, err := p.Read(3)
	if err != nil || string(got) != "three" {
		t.Errorf("Read(3) = %q, %v", got, err)
	}
	for s := uint16(0); s < 3; s++ {
		if p.Live(s) {
			t.Errorf("slot %d unexpectedly live", s)
		}
	}
	if err := p.InsertAt(3, []byte("clash")); err == nil {
		t.Error("InsertAt occupied slot succeeded")
	}
	if err := p.InsertAt(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
}

func TestLSN(t *testing.T) {
	p := newPage()
	p.SetLSN(0xDEADBEEF01)
	if p.LSN() != 0xDEADBEEF01 {
		t.Error("LSN round trip failed")
	}
	s, _ := p.Insert([]byte("rec"))
	if p.LSN() != 0xDEADBEEF01 {
		t.Error("Insert clobbered LSN")
	}
	_ = s
}

func TestTIDEncoding(t *testing.T) {
	f := func(pg uint32, slot uint16) bool {
		b := AppendTID(nil, TID{Page: pg, Slot: slot})
		got, err := DecodeTID(b)
		return err == nil && got.Page == pg && got.Slot == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(pg, slot uint16) bool {
		b := AppendMiniTID(nil, MiniTID{Page: pg, Slot: slot})
		got, err := DecodeMiniTID(b)
		return err == nil && got.Page == pg && got.Slot == slot
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodeTID([]byte{1, 2}); err == nil {
		t.Error("short TID accepted")
	}
	if EncodedMiniTIDLen >= EncodedTIDLen {
		t.Error("Mini TIDs must be smaller than TIDs (§4.1)")
	}
}

// Property: a random mix of operations never corrupts live records.
func TestPageOpsQuick(t *testing.T) {
	type op struct {
		Kind byte
		Size uint16
	}
	f := func(ops []op) bool {
		p := newPage()
		shadow := map[uint16][]byte{}
		seq := 0
		for _, o := range ops {
			size := int(o.Size % 512)
			switch o.Kind % 3 {
			case 0: // insert
				rec := bytes.Repeat([]byte{byte(seq)}, size)
				seq++
				s, err := p.Insert(rec)
				if err == ErrNoSpace {
					continue
				}
				if err != nil {
					return false
				}
				shadow[s] = rec
			case 1: // delete one existing
				for s := range shadow {
					if p.Delete(s) != nil {
						return false
					}
					delete(shadow, s)
					break
				}
			case 2: // update one existing
				for s := range shadow {
					rec := bytes.Repeat([]byte{byte(seq)}, size)
					seq++
					err := p.Update(s, rec)
					if err == ErrNoSpace {
						break
					}
					if err != nil {
						return false
					}
					shadow[s] = rec
					break
				}
			}
		}
		for s, want := range shadow {
			got, err := p.Read(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestViewPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("View accepted short buffer")
		}
	}()
	View(make([]byte, 10))
}

func ExampleTID_String() {
	fmt.Println(TID{Page: 3, Slot: 7})
	// Output: TID(3.7)
}

// TestChecksumAllocatesNothing: sealing a page and verifying it — once
// per page write-back and once per verified page read — allocate
// nothing, and the checksum is the one a hash.Hash32 over the page's
// identity and its image with the checksum field zeroed gives, so
// images sealed before stay valid.
func TestChecksumAllocatesNothing(t *testing.T) {
	p := newPage()
	if _, err := p.Insert([]byte("a record to checksum")); err != nil {
		t.Fatal(err)
	}
	const seg, no = 3, 70001
	if n := testing.AllocsPerRun(100, func() { p.Seal(seg, no) }); n != 0 {
		t.Errorf("Seal allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !p.ChecksumOK(seg, no) {
			t.Fatal("a sealed page fails its checksum")
		}
	}); n != 0 {
		t.Errorf("ChecksumOK allocates %.0f times", n)
	}
	img := append([]byte(nil), p.b...)
	img[offChecksum], img[offChecksum+1] = 0, 0
	crc := crc32.NewIEEE()
	crc.Write([]byte{seg, 0, 0x71, 0x11, 0x01, 0})
	crc.Write(img)
	sum := crc.Sum32()
	want := uint16(sum) ^ uint16(sum>>16)
	if got := p.u16(offChecksum); got != want {
		t.Errorf("checksum %#x, want %#x", got, want)
	}
	if p.ChecksumOK(seg, no+1) {
		t.Error("the image verifies at another page's identity")
	}
}
