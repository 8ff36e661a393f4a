package opt

import (
	"math"
	"testing"

	"edr/internal/sim"
)

func maskOf(rows ...[]bool) [][]bool { return rows }

func TestSparsityIndexes(t *testing.T) {
	sp := NewSparsity(maskOf(
		[]bool{true, false, true},
		[]bool{false, false, true},
		[]bool{true, true, false},
	))
	if sp.C != 3 || sp.N != 3 || sp.NNZ() != 5 {
		t.Fatalf("C=%d N=%d nnz=%d", sp.C, sp.N, sp.NNZ())
	}
	wantRowStart := []int{0, 2, 3, 5}
	for i, w := range wantRowStart {
		if sp.RowStart[i] != w {
			t.Fatalf("RowStart = %v, want %v", sp.RowStart, wantRowStart)
		}
	}
	wantColIdx := []int{0, 2, 2, 0, 1}
	for i, w := range wantColIdx {
		if sp.ColIdx[i] != w {
			t.Fatalf("ColIdx = %v, want %v", sp.ColIdx, wantColIdx)
		}
	}
	wantColStart := []int{0, 2, 3, 5}
	for i, w := range wantColStart {
		if sp.ColStart[i] != w {
			t.Fatalf("ColStart = %v, want %v", sp.ColStart, wantColStart)
		}
	}
	// CSC slots: col0 -> clients {0,2}, col1 -> {2}, col2 -> {0,1}.
	wantRowIdx := []int{0, 2, 2, 0, 1}
	for i, w := range wantRowIdx {
		if sp.RowIdx[i] != w {
			t.Fatalf("RowIdx = %v, want %v", sp.RowIdx, wantRowIdx)
		}
	}
	// PosCSR/PosCSC must be inverse permutations linking the two layouts.
	for k := 0; k < sp.NNZ(); k++ {
		if sp.PosCSC[sp.PosCSR[k]] != k {
			t.Fatalf("PosCSR/PosCSC not inverse at CSC slot %d", k)
		}
	}
	if sp.NNZ() != 5 || sp.MaxRowNNZ() != 2 || sp.ColNNZ(1) != 1 {
		t.Fatalf("nnz wrong: total=%d max=%d col1=%d", sp.NNZ(), sp.MaxRowNNZ(), sp.ColNNZ(1))
	}
}

func TestGatherScatterColSums(t *testing.T) {
	r := sim.NewRand(7)
	for trial := 0; trial < 50; trial++ {
		c, n := r.IntBetween(1, 8), r.IntBetween(1, 6)
		mask := make([][]bool, c)
		for i := range mask {
			mask[i] = make([]bool, n)
			for j := range mask[i] {
				mask[i][j] = r.Float64() < 0.6
			}
		}
		sp := NewSparsity(mask)
		m := NewMatrix(c, n)
		for i := range m {
			for j := range m[i] {
				m[i][j] = r.Range(-5, 5)
			}
		}
		v := sp.Gather(nil, m)
		out := NewMatrix(c, n)
		sp.Scatter(out, v)
		for i := range m {
			for j := range m[i] {
				want := m[i][j]
				if !mask[i][j] {
					want = 0
				}
				if out[i][j] != want {
					t.Fatalf("scatter(gather)[%d][%d] = %g, want %g", i, j, out[i][j], want)
				}
			}
		}
		sums := sp.ColSumsInto(make([]float64, n), v)
		dense := ColSums(out)
		for j := range sums {
			if math.Abs(sums[j]-dense[j]) > 1e-12 {
				t.Fatalf("ColSumsInto[%d] = %g, dense %g", j, sums[j], dense[j])
			}
		}
	}
}

func TestSparsityFullMask(t *testing.T) {
	// A fully-feasible instance is a density-1 CSR: every slot present,
	// rows and columns all full width.
	sp := NewSparsity(maskOf([]bool{true, true}, []bool{true, true}))
	if sp.NNZ() != 4 || sp.MaxRowNNZ() != 2 || sp.ColNNZ(0) != 2 {
		t.Fatalf("full mask: nnz=%d maxRow=%d col0=%d", sp.NNZ(), sp.MaxRowNNZ(), sp.ColNNZ(0))
	}
}

// sparseTestInstance builds a random masked instance plus a random
// infeasible-ish starting matrix supported on the mask.
func sparseTestInstance(t *testing.T, r *sim.Rand, clients, replicas int) (*Problem, [][]float64) {
	t.Helper()
	p := randomProblem(t, r, clients, replicas)
	// Scale demands down so the instance is comfortably feasible even under
	// the random mask (randomProblem alone can oversubscribe capacity).
	total := 0.0
	for _, d := range p.Demands {
		total += d
	}
	budget := 0.0
	for _, rep := range p.System.Replicas {
		budget += rep.Bandwidth
	}
	if total > 0.4*budget {
		scale := 0.4 * budget / total
		for c := range p.Demands {
			p.Demands[c] *= scale
		}
	}
	if err := CheckFeasible(p); err != nil {
		t.Fatalf("test instance infeasible: %v", err)
	}
	x := NewMatrix(clients, replicas)
	mask := p.Allowed()
	for c := range x {
		for n := range x[c] {
			if mask[c][n] {
				x[c][n] = r.Range(0, 20)
			} else if r.Float64() < 0.3 {
				x[c][n] = r.Range(0, 5) // off-support garbage the projector must zero
			}
		}
	}
	return p, x
}

// denseProjectFeasible is the reference ProjectFeasible is checked
// against: generic Dykstra over the dense row/column sets of
// FeasibleSetProjections, then an exact final row pass.
func denseProjectFeasible(p *Problem, x [][]float64, tol float64) error {
	if _, err := Dykstra(x, FeasibleSetProjections(p), DykstraOptions{MaxSweeps: 5000, Tol: tol / 10}); err != nil {
		return err
	}
	mask, caps := p.Allowed(), p.Caps()
	for c := range x {
		if err := ProjectMaskedCappedSimplex(x[c], caps[c], mask[c], p.Demands[c]); err != nil {
			return err
		}
	}
	return nil
}

func TestProjectFeasibleMatchesDenseDykstra(t *testing.T) {
	r := sim.NewRand(2013)
	for trial := 0; trial < 30; trial++ {
		p, x := sparseTestInstance(t, r, r.IntBetween(3, 12), r.IntBetween(2, 5))
		if trial >= 20 {
			// Full masks: the density-1 case runs the same packed projector.
			for c := range p.Latency {
				for n := range p.Latency[c] {
					p.Latency[c][n] = p.MaxLatency / 2
				}
			}
			p.InvalidateMask()
			if p.Sparsity().NNZ() != p.C()*p.N() {
				t.Fatalf("trial %d: mask not full", trial)
			}
		}
		dense := Clone(x)
		packed := Clone(x)
		if err := denseProjectFeasible(p, dense, 1e-6); err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		if err := ProjectFeasible(p, packed, 1e-6); err != nil {
			t.Fatalf("trial %d packed: %v", trial, err)
		}
		if v := p.Violation(packed); v > 1e-6 {
			t.Fatalf("trial %d: packed projection violation %g", trial, v)
		}
		// Both are (approximate) Euclidean projections of the same point
		// onto the same convex set, so they must nearly coincide.
		if d := Dist(dense, packed); d > 1e-4 {
			t.Fatalf("trial %d: dense and packed projections differ by %g", trial, d)
		}
		if gap := math.Abs(p.Cost(dense) - p.Cost(packed)); gap > 1e-6*(1+p.Cost(dense)) {
			t.Fatalf("trial %d: objective gap %g", trial, gap)
		}
	}
}

func TestSparseProjectorSingleColumnBound(t *testing.T) {
	// CDPSM's local sets bound only one column; the others are +Inf and
	// must be skipped without arithmetic on their entries.
	r := sim.NewRand(5)
	p, x := sparseTestInstance(t, r, 10, 4)
	sp := p.Sparsity()
	agent := 2
	bounds := make([]float64, sp.N)
	for n := range bounds {
		bounds[n] = math.Inf(1)
	}
	bounds[agent] = p.System.Replicas[agent].Bandwidth
	pj := NewSparseProjector(sp, p.Demands, bounds)
	v := sp.Gather(nil, x)
	if _, err := pj.Project(v, DykstraOptions{MaxSweeps: 200, Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	out := NewMatrix(sp.C, sp.N)
	sp.Scatter(out, v)
	// Demands hold within tolerance, the agent's column respects its bound.
	for c, row := range out {
		sum := 0.0
		for _, vv := range row {
			sum += vv
		}
		if math.Abs(sum-p.Demands[c]) > 1e-6 {
			t.Fatalf("row %d sum %g, want %g", c, sum, p.Demands[c])
		}
	}
	colSum := 0.0
	for c := range out {
		colSum += out[c][agent]
	}
	if colSum > p.System.Replicas[agent].Bandwidth+1e-6 {
		t.Fatalf("agent column sum %g exceeds bound %g", colSum, p.System.Replicas[agent].Bandwidth)
	}
}

func TestSparsityCachedAndInvalidated(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{5, 5})
	s1 := p.Sparsity()
	if s1.NNZ() != p.C()*p.N() {
		t.Fatal("all-feasible instance reported sparse")
	}
	if s2 := p.Sparsity(); s2 != s1 {
		t.Fatal("Sparsity rebuilt on a second call")
	}
	p.Latency[0][1] = 10 * p.MaxLatency
	if s := p.Sparsity(); s != s1 {
		t.Fatal("sparsity rebuilt without InvalidateMask")
	}
	p.InvalidateMask()
	s3 := p.Sparsity()
	if s3 == s1 || s3.NNZ() != 3 {
		t.Fatalf("InvalidateMask did not refresh sparsity: nnz=%d", s3.NNZ())
	}
	// The mask and sparsity views must agree after invalidation.
	mask := p.Allowed()
	if mask[0][1] {
		t.Fatal("mask stale after InvalidateMask")
	}
}
