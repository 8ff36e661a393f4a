package transport

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// matrixBody is a stand-in for the engine's matrix-bearing bodies: a round
// header plus a matrix in a kinded frame, with both codecs implemented the
// way the algorithm packages do it.
type matrixBody struct {
	Round int         `json:"round"`
	M     [][]float64 `json:"m"`
}

func (b matrixBody) MarshalBinary() ([]byte, error) {
	out := AppendUint32(nil, uint32(b.Round))
	return AppendMatrixKinded(out, b.M, nil), nil
}

func (b *matrixBody) UnmarshalBinary(data []byte) error {
	round, data, err := ReadUint32(data)
	if err != nil {
		return err
	}
	m, _, err := ReadMatrixKinded(data, nil)
	if err != nil {
		return err
	}
	b.Round, b.M = int(round), m
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
	if len(msg.Bin) == 0 || len(msg.Body) != 0 {
		t.Fatalf("NewMessage on a BinaryMarshaler: Bin=%d Body=%d bytes, want binary only",
			len(msg.Bin), len(msg.Body))
	}
	if msg.BodyLen() != len(msg.Bin) {
		t.Fatalf("BodyLen %d != len(Bin) %d", msg.BodyLen(), len(msg.Bin))
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
	if got.Type != msg.Type || got.From != msg.From || !bytes.Equal(got.Bin, msg.Bin) || len(got.Body) != 0 {
		t.Fatalf("frame round trip mismatch: got %+v want %+v", got, msg)
	}
}

func TestJSONFramesUnchangedByBinarySupport(t *testing.T) {
	// A JSON message must still produce the original wire bytes: a plain
	// length prefix (top bit clear) and a JSON object without a bin field.
	msg, err := NewMessage("client.request", "client-1", map[string]int{"mb": 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[0]&0x80 != 0 {
		t.Fatal("JSON frame has the binary flag set")
	}
	if bytes.Contains(raw, []byte(`"bin"`)) {
		t.Fatal("JSON frame leaked a bin field")
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || !bytes.Equal(got.Body, msg.Body) {
		t.Fatalf("JSON frame round trip mismatch: got %+v", got)
	}
}

func TestNewReplyMirrorsRequestCodec(t *testing.T) {
	body := matrixBody{Round: 3, M: testMatrix(2, 2)}

	jsonReq, err := NewJSONMessage("replica.cdpsm.estimate", "replica-1", map[string]int{"round": 3})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := NewReply(jsonReq, "replica.cdpsm.estimate.ack", "replica-2", body)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Bin) != 0 || len(reply.Body) == 0 {
		t.Fatalf("reply to a JSON request used binary (Bin=%d Body=%d)", len(reply.Bin), len(reply.Body))
	}
	var got matrixBody
	if err := reply.DecodeBody(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, body) {
		t.Fatalf("JSON reply decode mismatch: %+v", got)
	}

	binReq, err := NewMessage("replica.cdpsm.estimate", "replica-1", body)
	if err != nil {
		t.Fatal(err)
	}
	reply, err = NewReply(binReq, "replica.cdpsm.estimate.ack", "replica-2", body)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Bin) == 0 {
		t.Fatal("reply to a binary request fell back to JSON")
	}
}

func TestDecodeBodyRejectsBinaryIntoPlainStruct(t *testing.T) {
	msg, err := NewMessage("x", "n", matrixBody{Round: 1, M: testMatrix(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var plain struct{ Round int }
	if err := msg.DecodeBody(&plain); err == nil {
		t.Fatal("decoding a binary body into a JSON-only struct succeeded")
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
		head := AppendFloats(AppendFloat64(AppendUint32(nil, 9), 1.5), []float64{1, 2, 3})
		full := AppendMatrixKinded(head, tc.m, tc.base)
		if full[len(head)] != tc.kind {
			t.Fatalf("%s: chooser picked kind %d", tc.name, full[len(head)])
		}
		for cut := 0; cut < len(full); cut++ {
			b := full[:cut]
			v, b2, err := ReadUint32(b)
			if err != nil {
				continue
			}
			if v != 9 {
				t.Fatalf("cut=%d: u32 = %d", cut, v)
			}
			f, b2, err := ReadFloat64(b2)
			if err != nil {
				continue
			}
			if f != 1.5 {
				t.Fatalf("cut=%d: f64 = %g", cut, f)
			}
			if _, b2, err = ReadFloats(b2); err != nil {
				continue
			}
			if _, _, err = ReadMatrixKinded(b2, tc.base); err == nil {
				t.Fatalf("%s cut=%d: truncated matrix decoded without error", tc.name, cut)
			}
		}
	}
	// A corrupt header must not cause a giant allocation: oversized dims on
	// every kind, an entry count the payload cannot back, and a zero-column
	// claim (whose element product is 0 but which would still allocate one
	// row header per claimed row).
	for kind := byte(MatrixFull); kind <= MatrixDelta; kind++ {
		huge := AppendUint32(AppendUint32([]byte{kind}, math.MaxUint32), math.MaxUint32)
		if _, _, err := ReadMatrixKinded(huge, nil); err == nil {
			t.Fatalf("kind %d matrix with 2³²×2³² claimed dims decoded", kind)
		}
		zeroCols := AppendUint32(AppendUint32([]byte{kind}, math.MaxUint32), 0)
		if _, _, err := ReadMatrixKinded(zeroCols, nil); err == nil {
			t.Fatalf("kind %d matrix with 2³² rows of zero columns decoded", kind)
		}
	}
	entries := AppendUint32(AppendUint32(AppendUint32([]byte{MatrixSparse}, 2), 2), math.MaxUint32)
	if _, _, err := ReadMatrixKinded(entries, nil); err == nil {
		t.Fatal("sparse matrix with 2³² claimed entries decoded")
	}
	if _, _, err := ReadFloats(AppendUint32(nil, math.MaxUint32)); err == nil {
		t.Fatal("vector with 2³² claimed length decoded")
	}
}

func TestBinaryStringPrimitives(t *testing.T) {
	want := []string{"", "replica-1", "ünïcode", strings.Repeat("x", math.MaxUint16)}
	full, err := AppendStrings(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := ReadStrings(full)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %d strings, %d bytes left, err %v", len(got), len(rest), err)
	}
	for cut := 0; cut < len(full); cut += 1 + cut/16 {
		if _, _, err := ReadStrings(full[:cut]); err == nil {
			t.Fatalf("cut=%d: truncated list decoded without error", cut)
		}
	}
	// A string the u16 header cannot describe is refused, not truncated.
	if _, err := AppendString(nil, strings.Repeat("x", math.MaxUint16+1)); err == nil {
		t.Fatal("64 KiB string appended")
	}
	if _, err := AppendStrings(nil, []string{"ok", strings.Repeat("x", math.MaxUint16+1)}); err == nil {
		t.Fatal("list holding a 64 KiB string appended")
	}
	// A corrupt count must not cause a giant allocation.
	if _, _, err := ReadStrings(AppendUint32(nil, math.MaxUint32)); err == nil {
		t.Fatal("list with 2³² claimed strings decoded")
	}
	if _, _, err := ReadString([]byte{0xff, 0xff, 'a'}); err == nil {
		t.Fatal("string with 65 535 claimed bytes decoded from 1")
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
	f.Add(AppendUint32(nil, math.MaxUint32))
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
		_, _ = decodeBinaryFrame(data)
	})
}

func TestBinaryBytesBeatJSON(t *testing.T) {
	// The codec's reason to exist: a paper-scale estimate matrix must be
	// substantially smaller on the wire than its JSON encoding.
	body := matrixBody{Round: 1, M: testMatrix(100, 10)}
	jb, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := body.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) >= len(jb) {
		t.Fatalf("binary body (%d B) not smaller than JSON (%d B)", len(bb), len(jb))
	}
	t.Logf("100×10 matrix body: JSON %d B, binary %d B (%.2fx)", len(jb), len(bb), float64(len(jb))/float64(len(bb)))
}
