package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestNewMessageAndDecodeRoundTrip(t *testing.T) {
	type payload struct {
		X int      `json:"x"`
		S []string `json:"s"`
	}
	in := payload{X: 7, S: []string{"a", "b"}}
	m, err := NewMessage("test.type", "node1", in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != "test.type" || m.From != "node1" {
		t.Fatalf("envelope = %+v", m)
	}
	var out payload
	if err := m.DecodeBody(&out); err != nil {
		t.Fatal(err)
	}
	if out.X != in.X || len(out.S) != 2 || out.S[1] != "b" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestNewMessageNilBody(t *testing.T) {
	m, err := NewMessage("ping", "n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 0 {
		t.Fatalf("nil body produced %q", m.Body)
	}
	var v int
	if err := m.DecodeBody(&v); err == nil {
		t.Fatal("DecodeBody on empty body succeeded")
	}
}

func TestNewMessageUnmarshalableBody(t *testing.T) {
	if _, err := NewMessage("bad", "n", func() {}); err == nil {
		t.Fatal("function body marshaled")
	}
}

func TestDecodeBodyTypeMismatch(t *testing.T) {
	m, _ := NewMessage("t", "n", "a string")
	var v struct{ X int }
	if err := m.DecodeBody(&v); err == nil {
		t.Fatal("string decoded into struct")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in, _ := NewMessage("replica.solution", "r3", map[string]float64{"load": 42.5})
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.From != in.From || string(out.Body) != string(in.Body) {
		t.Fatalf("frame round trip: in %+v out %+v", in, out)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		m, _ := NewMessage("seq", "n", i)
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var v int
		if err := m.DecodeBody(&v); err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("frame %d decoded as %d", i, v)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("trailing read err = %v, want EOF", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], 100)
	buf.Write(prefix[:])
	buf.WriteString("short")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// A length prefix is a claim, not a payload: a frame that announces the
// maximum and then stalls must cost what arrived, not what was announced.
func TestReadFrameAllocatesWithBytesReceived(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(io.MultiReader(bytes.NewReader(prefix[:]), strings.NewReader("a few bytes")))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameEagerBytes {
		t.Fatalf("a %d-byte claim with 11 bytes behind it allocated %d bytes", MaxFrameBytes, grew)
	}

	// And a frame longer than the eager bound still arrives whole.
	m := Message{Type: "bulk", Body: bytes.Repeat([]byte{0xAB, 0xCD, 0xEF}, frameEagerBytes)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(iotest.OneByteReader(&buf))
	if err != nil || !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("grown frame: err %v, %d of %d body bytes intact", err, len(got.Body), len(m.Body))
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrameBytes+1)
	buf.Write(prefix[:])
	if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame err = %v", err)
	}
}

// A payload that does not open with the envelope version — here, bare
// JSON text — is refused.
func TestReadFrameGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], 3)
	buf.Write(prefix[:])
	buf.WriteString("{{{")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

// Property: arbitrary string payloads survive the wire intact.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(msgType, from, body string) bool {
		in, err := NewMessage(msgType, from, body)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		var decoded string
		if err := out.DecodeBody(&decoded); err != nil {
			return false
		}
		return out.Type == msgType && out.From == from && decoded == body
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
