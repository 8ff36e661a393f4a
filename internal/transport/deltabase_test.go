package transport

import (
	"math"
	"testing"
)

// TestFloatsKindedRoundTrip round-trips vectors through the kinded frame,
// including the empty vector, and refuses a delta frame, which a vector
// frame never carries.
func TestFloatsKindedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    []float64
		kind byte
	}{
		{"empty", []float64{}, MatrixFull},
		{"dense", []float64{1, -2, 3.5, 0}, MatrixFull},
		{"mostly zero", append(make([]float64, 100), 7), MatrixSparse},
		{"specials", []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1)}, MatrixFull},
	} {
		b := AppendFloatsKinded(nil, tc.v)
		if b[0] != tc.kind {
			t.Fatalf("%s: chooser picked kind %d, want %d", tc.name, b[0], tc.kind)
		}
		got, rest, err := ReadFloatsKinded(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", tc.name, len(rest))
		}
		if len(got) != len(tc.v) {
			t.Fatalf("%s: got %d entries, want %d", tc.name, len(got), len(tc.v))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(tc.v[i]) {
				t.Fatalf("%s: entry %d = %g, want %g", tc.name, i, got[i], tc.v[i])
			}
		}
	}

	base := []float64{1, 2, 3}
	delta := AppendMatrixKinded(nil, [][]float64{{1, 2, 4}}, [][]float64{base})
	if delta[0] != MatrixDelta {
		t.Fatalf("chooser picked kind %d, want delta", delta[0])
	}
	if _, _, err := ReadFloatsKinded(delta); err == nil {
		t.Fatal("delta vector frame decoded without a base")
	}
}
