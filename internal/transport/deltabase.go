package transport

import (
	"bytes"
	"fmt"
)

// Kinded vector frames: a packed vector (a CDPSM estimate, an ADMM target)
// rides the matrix chooser as a 1×len(v) frame, full or sparse, whichever
// is smaller. A vector frame is never a delta: no verb negotiates a base
// for one, so a vector has one byte representation.

// AppendFloatsKinded appends v as a kinded 1×len(v) matrix frame, sharing
// the matrix chooser (full or sparse, smallest wins) and the
// MatrixFrameStats counters. An empty vector is carried as a 0×0 frame.
func AppendFloatsKinded(b []byte, v []float64) []byte {
	return AppendMatrixKinded(b, asMatrix(v), nil)
}

// asMatrix views v as the 1×len(v) matrix its frame carries, or as no
// matrix when v is empty.
func asMatrix(v []float64) [][]float64 {
	if len(v) == 0 {
		return nil
	}
	return [][]float64{v}
}

// ReadFloatsKinded consumes a kinded vector frame and refuses any frame
// but the one AppendFloatsKinded writes for the vector it holds, so a
// vector has one byte representation (a delta frame, which has no base
// here, included). The result is freshly allocated.
func ReadFloatsKinded(b []byte) ([]float64, []byte, error) {
	m, rest, err := ReadMatrixKinded(b, nil)
	if err != nil {
		return nil, nil, err
	}
	v := []float64{}
	if len(m) > 0 {
		v = m[0]
	}
	frame := b[:len(b)-len(rest)]
	if want, _ := appendMatrixKinded(make([]byte, 0, len(frame)), asMatrix(v), nil); !bytes.Equal(want, frame) {
		return nil, nil, fmt.Errorf("transport: %d-byte vector frame is not the %d-byte one its %d values encode to", len(frame), len(want), len(v))
	}
	return v, rest, nil
}
