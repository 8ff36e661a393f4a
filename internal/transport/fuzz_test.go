package transport

import (
	"bytes"
	"encoding"
	"testing"
)

// FuzzReadFrame hardens the wire decoder against malformed input: it must
// either return a message or an error — never panic or over-read — and a
// frame has one byte representation, so an accepted frame re-encodes to
// exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	// Seed with valid frames and near-valid corruptions.
	for _, body := range []encoding.BinaryMarshaler{textBody("1, 2, 3"), matrixBody{Round: 2, M: testMatrix(2, 3)}} {
		var valid bytes.Buffer
		m, _ := NewMessage("replica.solution", "r1", body)
		_ = WriteFrame(&valid, m)
		f.Add(valid.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		msg, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("%d consumed bytes re-encode to %d different ones", len(consumed), buf.Len())
		}
	})
}
