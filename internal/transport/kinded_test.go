package transport

import (
	"bytes"
	"math"
	"testing"
)

// deltaBody mirrors the CDPSM estimate reply: an iteration header plus a
// kinded matrix frame with an out-of-band delta base.
type deltaBody struct {
	Iter int
	M    [][]float64

	Base [][]float64
}

func (b deltaBody) MarshalBinary() ([]byte, error) {
	w := NewWriter(nil)
	w.U32(b.Iter)
	return AppendMatrixKinded(w.b, b.M, b.Base), nil
}

func (b *deltaBody) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	iter := r.U32()
	if r.err != nil {
		return r.err
	}
	m, _, err := ReadMatrixKinded(r.b, b.Base)
	if err != nil {
		return err
	}
	b.Iter, b.M = int(int32(iter)), m
	return nil
}

func matricesEqualBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestKindedMatrixRoundTripAllKinds(t *testing.T) {
	dense := testMatrix(6, 5)
	sparse := testMatrix(6, 5)
	for i := range sparse {
		for j := range sparse[i] {
			if (i+j)%4 != 0 {
				sparse[i][j] = 0
			}
		}
	}
	base := testMatrix(6, 5)
	delta := testMatrix(6, 5)
	delta[2][3] += 1 // one changed entry vs base
	cases := []struct {
		name string
		m    [][]float64
		base [][]float64
		kind byte
	}{
		{"full", dense, nil, MatrixFull},
		{"sparse", sparse, nil, MatrixSparse},
		{"delta", delta, base, MatrixDelta},
		{"unchanged-delta", base, base, MatrixDelta},
		{"empty", [][]float64{}, nil, MatrixSparse}, // 4+0 < 8·0? no: 0 < 4 — full wins
	}
	for _, tc := range cases {
		b := AppendMatrixKinded(nil, tc.m, tc.base)
		if tc.name != "empty" && b[0] != tc.kind {
			t.Fatalf("%s: chooser picked kind %d, want %d", tc.name, b[0], tc.kind)
		}
		got, rest, err := ReadMatrixKinded(b, tc.base)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", tc.name, len(rest))
		}
		if !matricesEqualBits(got, tc.m) {
			t.Fatalf("%s: round trip mismatch", tc.name)
		}
	}
}

func TestKindedMatrixBitwiseSpecials(t *testing.T) {
	// Change detection is bitwise: −0 and NaN must survive every kind.
	m := [][]float64{{math.Copysign(0, -1), math.NaN(), 0, 1}}
	base := [][]float64{{0, math.NaN(), 0, 1}}
	b := AppendMatrixKinded(nil, m, base)
	got, _, err := ReadMatrixKinded(b, base)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqualBits(got, m) {
		t.Fatalf("specials mismatch: got %v want %v", got, m)
	}
	if math.Signbit(got[0][0]) != true {
		t.Fatal("−0 lost its sign")
	}
}

func TestKindedMatrixDeltaNeedsBase(t *testing.T) {
	base := testMatrix(4, 4)
	m := testMatrix(4, 4)
	m[0][0] += 1
	b := AppendMatrixKinded(nil, m, base)
	if b[0] != MatrixDelta {
		t.Fatalf("chooser picked kind %d, want delta", b[0])
	}
	if _, _, err := ReadMatrixKinded(b, nil); err == nil {
		t.Fatal("delta frame decoded without a base")
	}
	short := testMatrix(3, 4)
	if _, _, err := ReadMatrixKinded(b, short); err == nil {
		t.Fatal("delta frame decoded against a mismatched base")
	}
	// The base is read-only during decode.
	snapshot := testMatrix(4, 4)
	got, _, err := ReadMatrixKinded(b, base)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqualBits(base, snapshot) {
		t.Fatal("decode mutated the base")
	}
	if !matricesEqualBits(got, m) {
		t.Fatal("delta round trip mismatch")
	}
}

func TestKindedMatrixSizes(t *testing.T) {
	// The chooser must deliver the advertised wins: ≤20% density → at
	// least 2x fewer bytes than the dense row-major layout; one-entry delta → far
	// smaller still.
	rows, cols := 100, 50
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := 0; j < cols/5; j++ { // exactly 20% density
			m[i][(i+5*j)%cols] = float64(i*cols+j) + 0.5
		}
	}
	dense := 1 + 8 + 8*rows*cols // kind byte, dims header, 8 B per element
	v2 := len(AppendMatrixKinded(nil, m, nil))
	if dense < 2*v2 {
		t.Fatalf("sparse frame %d B vs dense %d B: less than 2x win at 20%% density", v2, dense)
	}
	next := make([][]float64, rows)
	for i := range next {
		next[i] = append([]float64(nil), m[i]...)
	}
	next[7][3] = 123.25
	dv2 := len(AppendMatrixKinded(nil, next, m))
	if dv2 >= v2/10 {
		t.Fatalf("one-entry delta frame %d B vs sparse %d B", dv2, v2)
	}
}

func TestMatrixFrameStats(t *testing.T) {
	ResetMatrixFrameStats()
	dense := testMatrix(4, 4)
	sparseM := [][]float64{{1, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}
	AppendMatrixKinded(nil, dense, nil)
	AppendMatrixKinded(nil, sparseM, nil)
	AppendMatrixKinded(nil, dense, dense)
	full, sparse, delta := MatrixFrameStats()
	if full != 1 || sparse != 1 || delta != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 1)", full, sparse, delta)
	}
	ResetMatrixFrameStats()
	if f, s, d := MatrixFrameStats(); f+s+d != 0 {
		t.Fatal("reset did not zero the counters")
	}
}

// FuzzDeltaCodec mirrors FuzzMatrixCodec with a delta base in play:
// arbitrary bytes must never panic the reader (with or without a base), and
// anything that decodes must re-encode/re-decode stably bit-for-bit.
func FuzzDeltaCodec(f *testing.F) {
	base := testMatrix(3, 5)
	m := testMatrix(3, 5)
	m[1][2] += 2
	full, _ := deltaBody{Iter: 4, M: m}.MarshalBinary()
	f.Add(full, false)
	withBase, _ := deltaBody{Iter: 5, M: m, Base: base}.MarshalBinary()
	f.Add(withBase, true)
	f.Add([]byte{}, false)
	f.Add(u32s(nil, math.MaxUint32), true)
	f.Fuzz(func(t *testing.T, data []byte, useBase bool) {
		b := deltaBody{}
		if useBase {
			b.Base = base
		}
		if err := b.UnmarshalBinary(data); err == nil {
			// Re-encode against the same base and require a stable cycle.
			re, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			b2 := deltaBody{Base: b.Base}
			if err := b2.UnmarshalBinary(re); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !matricesEqualBits(b.M, b2.M) || b.Iter != b2.Iter {
				t.Fatal("re-decode changed the payload")
			}
			re2, err := b2.MarshalBinary()
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re, re2) {
				t.Fatalf("re-encode not stable: %x vs %x", re, re2)
			}
		}
	})
}
