package transport

import (
	"bytes"
	"fmt"
	"sync"
)

// Delta-base negotiation for a pull verb (CDPSM estimates): the requester
// caches the last matrix it pulled from each peer (MatrixBaseCache) and
// declares its iteration id; the server diffs its reply against the
// matching snapshot it kept. Base matching is by iteration id, and the
// marshal-time chooser (AppendMatrixKinded) only emits a delta when it is
// strictly smallest — bases drifting apart degrade to full/sparse frames,
// never to corruption.

// MatrixBaseCache is the requester half of a pull verb's base
// negotiation: the last matrix pulled from each peer and the iteration
// id it was committed at. The zero value is ready to use; safe for
// concurrent use.
type MatrixBaseCache struct {
	mu    sync.Mutex
	bases map[string]matrixBase
}

type matrixBase struct {
	m    [][]float64
	iter int
}

// Get returns the cached matrix and iteration id for peer, or (nil, −1).
func (c *MatrixBaseCache) Get(peer string) ([][]float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.bases[peer]
	if !ok {
		return nil, -1
	}
	return b.m, b.iter
}

// Put records the matrix just decoded from peer at iteration iter. m
// must not be mutated afterwards.
func (c *MatrixBaseCache) Put(peer string, iter int, m [][]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bases == nil {
		c.bases = make(map[string]matrixBase)
	}
	c.bases[peer] = matrixBase{m: m, iter: iter}
}

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
