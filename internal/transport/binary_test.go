package transport

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// matrixBody is a stand-in for the engine's matrix-bearing bodies: a round
// header plus a matrix in a kinded frame, with both codecs implemented the
// way the algorithm packages do it.
type matrixBody struct {
	Round int
	M     [][]float64
}

func (b matrixBody) MarshalBinary() ([]byte, error) {
	w := NewWriter(nil)
	w.U32(b.Round)
	return AppendMatrixKinded(w.b, b.M, nil), nil
}

func (b *matrixBody) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	round := r.U32()
	if r.err != nil {
		return r.err
	}
	m, _, err := ReadMatrixKinded(r.b, nil)
	if err != nil {
		return err
	}
	b.Round, b.M = round, m
	return nil
}

func testMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = float64(i*cols+j) * 0.137
		}
	}
	return m
}

func TestBinaryBodyRoundTrip(t *testing.T) {
	want := matrixBody{Round: 42, M: testMatrix(5, 3)}
	msg, err := NewMessage("replica.cdpsm.estimate.ack", "replica-1", want)
	if err != nil {
		t.Fatal(err)
	}
	if bin, _ := want.MarshalBinary(); !bytes.Equal(msg.Body, bin) {
		t.Fatalf("NewMessage on a BinaryMarshaler carried %d bytes, not its %d-byte binary form", len(msg.Body), len(bin))
	}
	if msg.BodyLen() != len(msg.Body) {
		t.Fatalf("BodyLen %d != len(Body) %d", msg.BodyLen(), len(msg.Body))
	}
	var got matrixBody
	if err := msg.DecodeBody(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	if r, err := BinaryRound(msg); err != nil || r != 42 {
		t.Fatalf("BinaryRound = %d, %v; want 42", r, err)
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	msg, err := NewMessage("replica.cdpsm.step", "replica-2", matrixBody{Round: 7, M: testMatrix(4, 6)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || got.From != msg.From || !bytes.Equal(got.Body, msg.Body) {
		t.Fatalf("frame round trip mismatch: got %+v want %+v", got, msg)
	}
}

// A body rides one envelope, byte for byte: length, version, type,
// sender, then the body as NewMessage marshaled it.
func TestBodyRidesTheOneEnvelope(t *testing.T) {
	msg, err := NewMessage("replica.info.ack", "r1", matrixBody{Round: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 36, BinaryVersion, 0, 16}
	want = append(want, "replica.info.ack"...)
	want = append(want, 0, 2, 'r', '1')
	want = append(want, 3, 0, 0, 0, MatrixFull, 0, 0, 0, 0, 0, 0, 0, 0)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame\n %q\nwant\n %q", buf.Bytes(), want)
	}
	got, err := ReadFrame(&buf)
	if err != nil || got.Type != msg.Type || got.From != msg.From || !bytes.Equal(got.Body, msg.Body) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}

// A body in JSON text, which a peer of an older version sends, is refused
// by the binary decoder, and the error names the message type.
func TestDecodeBodyRefusesJSONIntoBinaryBody(t *testing.T) {
	msg := Message{Type: "replica.cdpsm.step", From: "n", Body: []byte(`{"Round":1,"M":[[0.5]]}`)}
	var got matrixBody
	if err := msg.DecodeBody(&got); err == nil || !strings.Contains(err.Error(), "replica.cdpsm.step") {
		t.Fatalf("JSON body decoded into a binary body: %+v, %v", got, err)
	}
}

func TestBinaryPrimitivesRejectTruncation(t *testing.T) {
	sparse := testMatrix(3, 4)
	for i := range sparse {
		for j := range sparse[i] {
			if (i+j)%5 != 0 {
				sparse[i][j] = 0
			}
		}
	}
	base := testMatrix(3, 4)
	delta := testMatrix(3, 4)
	delta[1][2] += 1
	for _, tc := range []struct {
		name    string
		m, base [][]float64
		kind    byte
	}{
		{"full", testMatrix(3, 4), nil, MatrixFull},
		{"sparse", sparse, nil, MatrixSparse},
		{"delta", delta, base, MatrixDelta},
	} {
		w := NewWriter(nil)
		w.U32(9)
		w.F64(1.5)
		w.Floats([]float64{1, 2, 3})
		head := w.b
		full := AppendMatrixKinded(head, tc.m, tc.base)
		if full[len(head)] != tc.kind {
			t.Fatalf("%s: chooser picked kind %d", tc.name, full[len(head)])
		}
		for cut := 0; cut < len(full); cut++ {
			r := NewReader(full[:cut])
			v, f, floats := r.U32(), r.F64(), r.Floats()
			if r.err != nil {
				if cut >= len(head) {
					t.Fatalf("cut=%d: head refused: %v", cut, r.err)
				}
				continue
			}
			if v != 9 || f != 1.5 || len(floats) != 3 {
				t.Fatalf("cut=%d: read %d, %g, %v", cut, v, f, floats)
			}
			if _, _, err := ReadMatrixKinded(r.b, tc.base); err == nil {
				t.Fatalf("%s cut=%d: truncated matrix decoded without error", tc.name, cut)
			}
		}
	}
	// A corrupt header must not cause a giant allocation: oversized dims on
	// every kind, an entry count the payload cannot back, and a zero-column
	// claim (whose element product is 0 but which would still allocate one
	// row header per claimed row).
	for kind := byte(MatrixFull); kind <= MatrixDelta; kind++ {
		if _, _, err := ReadMatrixKinded(u32s([]byte{kind}, math.MaxUint32, math.MaxUint32), nil); err == nil {
			t.Fatalf("kind %d matrix with 2³²×2³² claimed dims decoded", kind)
		}
		if _, _, err := ReadMatrixKinded(u32s([]byte{kind}, math.MaxUint32, 0), nil); err == nil {
			t.Fatalf("kind %d matrix with 2³² rows of zero columns decoded", kind)
		}
	}
	if _, _, err := ReadMatrixKinded(u32s([]byte{MatrixSparse}, 2, 2, math.MaxUint32), nil); err == nil {
		t.Fatal("sparse matrix with 2³² claimed entries decoded")
	}
	r := NewReader(u32s(nil, math.MaxUint32))
	if r.Floats(); r.err == nil {
		t.Fatal("vector with 2³² claimed length decoded")
	}
}

// u32s appends each of v to b as a u32.
func u32s(b []byte, v ...int) []byte {
	w := NewWriter(b)
	for _, x := range v {
		w.U32(x)
	}
	return w.b
}

func TestBinaryStringPrimitives(t *testing.T) {
	want := []string{"", "replica-1", "ünïcode", strings.Repeat("x", math.MaxUint16)}
	w := NewWriter(nil)
	w.Strs(want)
	full, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(full)
	if got := r.Strs(); r.Done() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %d strings, err %v", len(got), r.err)
	}
	for cut := 0; cut < len(full); cut += 1 + cut/16 {
		r := NewReader(full[:cut])
		if r.Strs(); r.err == nil {
			t.Fatalf("cut=%d: truncated list decoded without error", cut)
		}
	}
	// A string the u16 header cannot describe is refused, not truncated.
	w = NewWriter(nil)
	if w.Str(strings.Repeat("x", math.MaxUint16+1)); w.err == nil {
		t.Fatal("64 KiB string appended")
	}
	w = NewWriter(nil)
	if w.Strs([]string{"ok", strings.Repeat("x", math.MaxUint16+1)}); w.err == nil {
		t.Fatal("list holding a 64 KiB string appended")
	}
	// A corrupt count must not cause a giant allocation.
	r = NewReader(u32s(nil, math.MaxUint32))
	if r.Strs(); r.err == nil {
		t.Fatal("list with 2³² claimed strings decoded")
	}
	r = NewReader([]byte{0xff, 0xff, 'a'})
	if r.Str(); r.err == nil {
		t.Fatal("string with 65 535 claimed bytes decoded from 1")
	}
}

type testPair struct {
	key string
	v   float64
}

// A pair list round-trips with the bytes behind it, keys strictly
// ascending both ways: the writer refuses a list out of order or with a key
// twice, and so does the reader, as it does a truncated one.
func TestBinaryPairPrimitives(t *testing.T) {
	want := []testPair{{"", 0}, {"r1", 1.5}, {"r10", -2}, {"r2", math.Inf(1)}}
	at := func(list []testPair) func(int) (string, float64) {
		return func(i int) (string, float64) { return list[i].key, list[i].v }
	}
	w := NewWriter(nil)
	w.Pairs(len(want), at(want))
	w.U32(7)
	full, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	read := func(b []byte) ([]testPair, Reader) {
		r := NewReader(b)
		return ReadPairs(&r, func(k string, v float64) testPair { return testPair{k, v} }), r
	}
	got, r := read(full)
	if r.err != nil || !reflect.DeepEqual(got, want) || r.U32() != 7 || r.Done() != nil {
		t.Fatalf("round trip: %v, %d bytes left, err %v", got, r.Len(), r.err)
	}
	for cut := 0; cut < len(full)-4; cut++ {
		if _, r := read(full[:cut]); r.err == nil {
			t.Fatalf("cut=%d: truncated pair list decoded without error", cut)
		}
	}
	if empty, r := read(u32s(nil, 0)); r.Done() != nil || empty != nil {
		t.Fatalf("empty list: %v, %d bytes left, err %v", empty, r.Len(), r.err)
	}
	for _, bad := range [][]testPair{{{"r2", 1}, {"r1", 1}}, {{"r1", 1}, {"r1", 2}}} {
		w := NewWriter(nil)
		if w.Pairs(len(bad), at(bad)); w.err == nil {
			t.Errorf("%v appended", bad)
		}
		w = NewWriter(nil)
		w.U32(len(bad))
		for _, p := range bad {
			w.Str(p.key)
			w.F64(p.v)
		}
		if _, r := read(w.b); r.err == nil {
			t.Errorf("%v decoded", bad)
		}
	}
	if _, r := read(u32s(nil, math.MaxUint32)); r.err == nil {
		t.Fatal("pair list with 2³² claimed pairs decoded")
	}
}

// A decoded list's strings share one allocation: a list read costs the
// slice and one backing string, however many names it holds.
func TestBinaryListsAllocateTheirNamesOnce(t *testing.T) {
	names := make([]string, 200)
	for i := range names {
		names[i] = "client-" + strings.Repeat("x", i%13) + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	slices.Sort(names)
	w := NewWriter(nil)
	w.Strs(names)
	list, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	w = NewWriter(nil)
	w.Pairs(len(names), func(i int) (string, float64) { return names[i], float64(i) })
	pairs, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { r := NewReader(list); r.Strs() }); n != 2 {
		t.Errorf("Reader.Strs of %d names: %v allocations, want 2", len(names), n)
	}
	pair := func(k string, v float64) testPair { return testPair{k, v} }
	if n := testing.AllocsPerRun(50, func() { r := NewReader(pairs); ReadPairs(&r, pair) }); n != 2 {
		t.Errorf("ReadPairs of %d names: %v allocations, want 2", len(names), n)
	}
}

// FuzzMatrixCodec fuzzes both layers: arbitrary bytes through the body
// primitives and the binary frame reader (must never panic), and
// structured inputs round-tripped exactly.
func FuzzMatrixCodec(f *testing.F) {
	seed := matrixBody{Round: 11, M: testMatrix(3, 5)}
	sb, _ := seed.MarshalBinary()
	f.Add(sb)
	f.Add([]byte{})
	f.Add(u32s(nil, math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b matrixBody
		if err := b.UnmarshalBinary(data); err == nil {
			// Whatever decoded must survive a re-encode/re-decode cycle
			// bit-for-bit. Compare encoded bytes, not values: the payload
			// may carry NaN, which reflect.DeepEqual never equates.
			re, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			var b2 matrixBody
			if err := b2.UnmarshalBinary(re); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			re2, err := b2.MarshalBinary()
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re, re2) {
				t.Fatalf("re-encode not stable: %x vs %x", re, re2)
			}
		}
		// Frame reader on arbitrary payloads: error or success, no panic.
		_, _ = decodeFrame(data)
	})
}
