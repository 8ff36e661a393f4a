package opt

import "fmt"

// Sparsity is the immutable CSR+CSC index view of a problem's latency-
// feasibility mask. Packed vectors indexed by it hold one float64 per
// allowed (client, replica) pair in row-major (CSR) order, so per-client
// row operations — the projection hot path — run on contiguous subslices.
// The CSC half gives every per-replica column kernel (column sums, local
// solves, duals) its client list without scanning the mask.
//
// Problems cache their Sparsity alongside the Allowed() mask; see
// (*Problem).Sparsity.
type Sparsity struct {
	// C, N are the dense dimensions (clients × replicas).
	C, N int
	// RowStart[c]..RowStart[c+1] bound client c's slots in packed vectors
	// (len C+1).
	RowStart []int
	// ColIdx[k] is the replica of CSR slot k (ascending within each row).
	ColIdx []int
	// ColStart[n]..ColStart[n+1] bound replica n's entries in CSC order
	// (len N+1).
	ColStart []int
	// RowIdx[k] is the client of CSC slot k (ascending within each column).
	RowIdx []int
	// PosCSR[k] is the CSR slot of CSC slot k: column kernels reach into
	// CSR-packed vectors through it.
	PosCSR []int
	// PosCSC[k] is the CSC slot of CSR slot k (the inverse of PosCSR).
	PosCSC []int

	maxRow int
}

// NewSparsity builds the index view of a feasibility mask. Rows must be
// rectangular (as Problem.Allowed guarantees).
func NewSparsity(mask [][]bool) *Sparsity {
	c := len(mask)
	n := 0
	if c > 0 {
		n = len(mask[0])
	}
	sp := &Sparsity{C: c, N: n}
	sp.RowStart = make([]int, c+1)
	colCount := make([]int, n+1)
	nnz := 0
	maxRow := 0
	for i, row := range mask {
		if len(row) != n {
			panic(fmt.Sprintf("opt: NewSparsity row %d has %d cols, want %d", i, len(row), n))
		}
		rs := nnz
		for j, ok := range row {
			if ok {
				nnz++
				colCount[j+1]++
			}
		}
		sp.RowStart[i+1] = nnz
		if w := nnz - rs; w > maxRow {
			maxRow = w
		}
	}
	sp.maxRow = maxRow
	sp.ColIdx = make([]int, nnz)
	sp.RowIdx = make([]int, nnz)
	sp.PosCSR = make([]int, nnz)
	sp.PosCSC = make([]int, nnz)
	sp.ColStart = make([]int, n+1)
	for j := 1; j <= n; j++ {
		sp.ColStart[j] = sp.ColStart[j-1] + colCount[j]
	}
	// Fill CSR column indexes and, in the same pass, the CSC slots: walking
	// rows in order means each column's clients land in ascending order.
	next := make([]int, n)
	copy(next, sp.ColStart[:n])
	k := 0
	for i, row := range mask {
		for j, ok := range row {
			if !ok {
				continue
			}
			sp.ColIdx[k] = j
			slot := next[j]
			next[j]++
			sp.RowIdx[slot] = i
			sp.PosCSR[slot] = k
			sp.PosCSC[k] = slot
			k++
		}
	}
	return sp
}

// NNZ returns the number of allowed (client, replica) pairs.
func (sp *Sparsity) NNZ() int { return len(sp.ColIdx) }

// ColNNZ returns the number of feasible clients for replica n.
func (sp *Sparsity) ColNNZ(n int) int { return sp.ColStart[n+1] - sp.ColStart[n] }

// MaxRowNNZ returns the widest row's nnz — the scratch size row kernels need.
func (sp *Sparsity) MaxRowNNZ() int { return sp.maxRow }

// Gather packs the supported entries of dense m into a new vector (CSR
// order). Off-support entries of m are dropped — the projection onto the
// mask subspace.
func (sp *Sparsity) Gather(m [][]float64) []float64 {
	dst := make([]float64, sp.NNZ())
	for c := 0; c < sp.C; c++ {
		row := m[c]
		for k := sp.RowStart[c]; k < sp.RowStart[c+1]; k++ {
			dst[k] = row[sp.ColIdx[k]]
		}
	}
	return dst
}

// Scatter writes packed v back into dense m, zeroing off-support entries.
func (sp *Sparsity) Scatter(m [][]float64, v []float64) {
	if len(v) != sp.NNZ() {
		panic(fmt.Sprintf("opt: Scatter got %d-slot v for %d nnz", len(v), sp.NNZ()))
	}
	for c := 0; c < sp.C; c++ {
		row := m[c]
		for j := range row {
			row[j] = 0
		}
		for k := sp.RowStart[c]; k < sp.RowStart[c+1]; k++ {
			row[sp.ColIdx[k]] = v[k]
		}
	}
}

// ColSumsInto writes the per-replica column sums of packed v into dst
// (len N). Each column accumulates in fixed CSC order.
func (sp *Sparsity) ColSumsInto(dst []float64, v []float64) []float64 {
	if len(dst) != sp.N {
		panic(fmt.Sprintf("opt: ColSumsInto got %d-slot dst for %d replicas", len(dst), sp.N))
	}
	for n := 0; n < sp.N; n++ {
		s := 0.0
		for k := sp.ColStart[n]; k < sp.ColStart[n+1]; k++ {
			s += v[sp.PosCSR[k]]
		}
		dst[n] = s
	}
	return dst
}

// VecFill sets every entry of v to x.
func VecFill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}
