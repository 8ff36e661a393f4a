// Package opt is the convex-optimization toolkit underlying every solver in
// this module: dense matrix helpers, the Euclidean projection onto the
// transportation polytope of the EDR replica-selection problem (packed
// Dykstra sweeps over its row simplexes and column halfspaces), a max-flow
// feasibility oracle, a min-cost-flow linear oracle, and the
// projected-gradient and Frank-Wolfe reference methods.
//
// Matrices are [][]float64 in row-major client×replica layout, matching the
// paper's P = [p_{c,n}] with rows indexed by client c and columns by
// replica n. Problem sizes in the paper are small (8 replicas, tens of
// clients), so clarity is preferred over blocking/SIMD tricks; the hot
// loops are still allocation-free.
package opt

import (
	"fmt"
	"math"
)

// NewMatrix allocates a rows×cols zero matrix backed by one contiguous
// slice, so row data stays cache-adjacent.
func NewMatrix(rows, cols int) [][]float64 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("opt: NewMatrix(%d, %d) with negative dimension", rows, cols))
	}
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	return m
}

// Clone returns a deep copy of m.
func Clone(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	cols := 0
	if len(m) > 0 {
		cols = len(m[0])
	}
	out := NewMatrix(len(m), cols)
	for i := range m {
		copy(out[i], m[i])
	}
	return out
}

// Copy copies src into dst. Both must have identical shapes.
func Copy(dst, src [][]float64) {
	checkSameShape(dst, src, "Copy")
	for i := range src {
		copy(dst[i], src[i])
	}
}

// AXPY computes dst += s·a element-wise.
func AXPY(dst [][]float64, s float64, a [][]float64) {
	checkSameShape(dst, a, "AXPY")
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] += s * a[i][j]
		}
	}
}

// Scale multiplies every entry of m by s.
func Scale(m [][]float64, s float64) {
	for i := range m {
		for j := range m[i] {
			m[i][j] *= s
		}
	}
}

// Dist returns the Frobenius distance ‖a−b‖.
func Dist(a, b [][]float64) float64 {
	checkSameShape(a, b, "Dist")
	sum := 0.0
	for i := range a {
		for j := range a[i] {
			d := a[i][j] - b[i][j]
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// ColSums returns the per-column sums Σ_c m[c][n] — the per-replica loads.
func ColSums(m [][]float64) []float64 {
	if len(m) == 0 {
		return nil
	}
	sums := make([]float64, len(m[0]))
	for i := range m {
		for j, v := range m[i] {
			sums[j] += v
		}
	}
	return sums
}

// RowSums returns the per-row sums Σ_n m[c][n] — the per-client served load.
func RowSums(m [][]float64) []float64 {
	sums := make([]float64, len(m))
	for i, row := range m {
		for _, v := range row {
			sums[i] += v
		}
	}
	return sums
}

func checkSameShape(a, b [][]float64, op string) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("opt: %s shape mismatch: %d vs %d rows", op, len(a), len(b)))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			panic(fmt.Sprintf("opt: %s shape mismatch at row %d: %d vs %d cols", op, i, len(a[i]), len(b[i])))
		}
	}
}
