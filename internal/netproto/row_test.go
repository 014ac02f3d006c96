package netproto

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dberr"
	"repro/internal/model"
)

// roundTripRows are tuples of every value kind: NULL, big and small
// ints, floats, empty and long strings, nested ordered tables.
func roundTripRows() []model.Tuple {
	return []model.Tuple{
		{model.Null{}, model.Int(0), model.Int(-1), model.Int(255), model.Int(math.MaxInt64), model.Int(math.MinInt64)},
		{model.Float(0), model.Float(-2.5), model.Float(math.Inf(1)), model.Float(math.SmallestNonzeroFloat64)},
		{model.Str(""), model.Str("nf²"), model.Str(strings.Repeat("long string ", 200))},
		{model.Bool(true), model.Bool(false), model.Time(0), model.Time(1 << 60)},
		{model.Int(7), nestedTable(), &model.Table{Ordered: true}},
		{},
	}
}

// AppendRow writes the bytes WriteFrame writes for Row.Encode's
// payload, after whatever dst already held; AppendFrame does the same
// for any payload.
func TestAppendFramesMatchWriteFrame(t *testing.T) {
	for i, tup := range roundTripRows() {
		payload, err := (&Row{Tuple: tup}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := WriteFrame(&want, TypeRow, payload); err != nil {
			t.Fatal(err)
		}
		prefix := []byte("earlier frames")
		got, err := AppendRow(append([]byte(nil), prefix...), tup)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("row %d: AppendRow differs from WriteFrame", i)
		}
		got, err = AppendFrame(prefix, TypeRow, payload)
		if err != nil || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("row %d: AppendFrame differs from WriteFrame: %v", i, err)
		}
	}

	// A tuple that cannot be encoded leaves dst as it was.
	deep := model.Tuple{model.Int(1)}
	for i := 0; i <= maxDepth+1; i++ {
		tbl := &model.Table{}
		tbl.Append(deep)
		deep = model.Tuple{tbl}
	}
	dst := []byte{1, 2, 3}
	got, err := AppendRow(dst, deep)
	if err == nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("too deep a row: %v, dst %v", err, got)
	}
	if _, err := AppendFrame(nil, TypeRow, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// A FrameReader reads what ReadFrame reads, reusing one payload buffer
// for frames of up to BufSize bytes and keeping none larger.
func TestFrameReaderReusesBuffer(t *testing.T) {
	payloads := [][]byte{[]byte("first"), nil, []byte("second!"), bytes.Repeat([]byte{7}, BufSize+1), []byte("third")}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, TypeRow, p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bufio.NewReader(&buf))
	var first []byte
	for i, p := range payloads {
		typ, got, err := fr.Read()
		if err != nil || typ != TypeRow || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: type 0x%02x, %d bytes, %v", i, typ, len(got), err)
		}
		switch i {
		case 0:
			first = got
		case 2:
			if &got[0] == &first[0] {
				t.Fatal("a larger payload reused a smaller buffer")
			}
			first = got
		case 4:
			if &got[0] != &first[0] {
				t.Fatal("the payload buffer was not reused")
			}
		}
	}
	if cap(fr.buf) > BufSize {
		t.Fatalf("reader kept a %d-byte buffer", cap(fr.buf))
	}
}

// A bad atom in a wire payload is a protocol fault: its error neither
// wraps the storage layer's corruption sentinel nor classifies as
// corruption or quarantine.
func TestBadAtomIsNotCorruption(t *testing.T) {
	good, err := (&Row{Tuple: model.Tuple{model.Int(1000), model.Str("abc")}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		good[:len(good)-1],             // string cut short
		{1, byte(model.KindInt), 0x80}, // varint never ends
		{1, byte(model.KindFloat), 1},  // short float
		{1, 0x7F},                      // unknown kind tag
	}
	for i, p := range bad {
		_, err := DecodeRowSlab(p, new(model.Slab))
		if err == nil {
			t.Fatalf("payload %d decoded", i)
		}
		if code, _ := Classify(err); errors.Is(err, dberr.ErrCorrupt) || code != CodeOther {
			t.Fatalf("payload %d: %v classifies as %v", i, err, code)
		}
	}
}

// FuzzRowDecode feeds arbitrary Row payloads through the slab decoder.
// It must never panic, and a payload that decodes must give the same
// values after re-encoding with AppendRow and decoding again.
func FuzzRowDecode(f *testing.F) {
	for _, tup := range roundTripRows() {
		payload, err := (&Row{Tuple: tup}).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		slab := new(model.Slab)
		first, err := DecodeRowSlab(payload, slab)
		if err != nil {
			return
		}
		frame, err := AppendRow(nil, first)
		if err != nil {
			t.Fatalf("a decoded row does not encode: %v", err)
		}
		second, err := DecodeRowSlab(frame[5:], slab)
		if err != nil {
			t.Fatalf("a re-encoded row does not decode: %v", err)
		}
		// Compared through their encodings, which tell every value
		// apart (NaN and -0 included) and need no deep equality.
		again, err := AppendRow(nil, second)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("values changed across re-encoding: %v\n first %v\nsecond %v", err, first, second)
		}
	})
}
