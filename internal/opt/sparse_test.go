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
		v := sp.Gather(m)
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

// projectionGap certifies y as the Euclidean projection of x onto p's
// feasible region by its optimality condition: y = P(x) exactly when y
// minimizes ⟨y − x, z⟩ over feasible z, so with w = y − x the gap
// ⟨w, y⟩ − min_z ⟨w, z⟩ is 0 at P(x), and because ½‖z − x‖² is 1-strongly
// convex it bounds ‖y − P(x)‖ ≤ √(2·gap) at any feasible y.
// MinCostAssignment solves that linear program exactly but needs w ≥ 0 on
// the mask, so each row of w is shifted by its least masked entry: every
// feasible row sums to R_c, so a row shift moves ⟨w, z⟩ by the same amount
// for every z and leaves the argmin alone. Off the mask y and z are 0.
func projectionGap(p *Problem, x, y [][]float64) (float64, error) {
	mask := p.Allowed()
	w := NewMatrix(p.C(), p.N())
	for c, row := range w {
		lo := math.Inf(1)
		for n, ok := range mask[c] {
			if ok {
				row[n] = y[c][n] - x[c][n]
				lo = math.Min(lo, row[n])
			}
		}
		for n, ok := range mask[c] {
			if ok {
				row[n] -= lo
			}
		}
	}
	z, err := MinCostAssignment(p, w)
	if err != nil {
		return 0, err
	}
	gap := 0.0
	for c, row := range w {
		for n, wv := range row {
			gap += wv * (y[c][n] - z[c][n])
		}
	}
	return gap, nil
}

// tightenCapacity scales every bandwidth of p by one factor, 1.2× the
// least that keeps p feasible, so the capacity halfspaces bind.
func tightenCapacity(t *testing.T, p *Problem) {
	t.Helper()
	reps := p.System.Replicas
	full := make([]float64, len(reps))
	for n := range reps {
		full[n] = reps[n].Bandwidth
	}
	scale := func(f float64) {
		for n := range reps {
			reps[n].Bandwidth = f * full[n]
		}
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if scale(mid); CheckFeasible(p) == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	scale(math.Min(1, 1.2*hi))
}

// projectConverged runs ProjectFeasible's sweeps on x to a membership
// tolerance of 1e-13 instead of 1e-7, then its exact row pass.
func projectConverged(t *testing.T, p *Problem, x [][]float64) [][]float64 {
	t.Helper()
	sp := p.Sparsity()
	bounds := make([]float64, sp.N)
	for n := range bounds {
		bounds[n] = p.System.Replicas[n].Bandwidth
	}
	pj := NewSparseProjector(sp, p.Demands, bounds)
	v := sp.Gather(x)
	if _, err := pj.Project(v, DykstraOptions{MaxSweeps: 100000, Tol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	if err := pj.FinishRows(v); err != nil {
		t.Fatal(err)
	}
	z := NewMatrix(sp.C, sp.N)
	sp.Scatter(z, v)
	return z
}

func TestProjectFeasibleCertifiedOptimal(t *testing.T) {
	r := sim.NewRand(2013)
	binding := 0
	for trial := 0; trial < 40; trial++ {
		p, x := sparseTestInstance(t, r, r.IntBetween(3, 12), r.IntBetween(2, 5))
		if trial >= 30 {
			// Tight capacity: the trials above leave every column slack.
			tightenCapacity(t, p)
		} else if trial >= 20 {
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
		y := Clone(x)
		if err := ProjectFeasible(p, y, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := p.Violation(y); v > 1e-6 {
			t.Fatalf("trial %d: projection violation %g", trial, v)
		}
		certified := y
		if trial >= 30 {
			// Where a capacity binds, y meets it only to the projector's
			// stopping tolerance, and the certificate assumes a feasible
			// point: certify the same sweeps run to convergence, and hold
			// y near them.
			certified = projectConverged(t, p, x)
			if d := Dist(y, certified); d > 1e-5 {
				t.Fatalf("trial %d: projection %g away from its converged sweeps", trial, d)
			}
		}
		gap, err := projectionGap(p, x, certified)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gap > 1e-10 {
			t.Fatalf("trial %d: projection gap %g > 1e-10: not the nearest feasible point", trial, gap)
		}
		for n, load := range ColSums(certified) {
			if load > p.System.Replicas[n].Bandwidth-1e-9 {
				binding++
			}
		}
	}
	if binding == 0 {
		t.Fatal("no trial's projection met a capacity bound")
	}
}

func TestProjectFeasibleSatisfiesAllConstraints(t *testing.T) {
	p := testProblem(t, []float64{1, 8, 3}, []float64{40, 70, 20})
	p.Latency[0][1] = 0.01 // client 0 may not use replica 1
	x, err := p.UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	// Perturb away from feasibility.
	x[1][0] += 55
	x[2][2] -= 10
	if err := ProjectFeasible(p, x, 1e-6); err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(x); v > 1e-5 {
		t.Fatalf("violation after projection = %g", v)
	}
	if x[0][1] != 0 {
		t.Fatalf("masked entry nonzero: %g", x[0][1])
	}
}

// Property: projection of an already-feasible point stays (almost) put.
func TestProjectFeasibleFixedPointProperty(t *testing.T) {
	r := sim.NewRand(321)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(t, r, 4, 3)
		x, err := FeasiblePoint(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before := Clone(x)
		if err := ProjectFeasible(p, x, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := Dist(before, x); d > 1e-4*(1+Dist(before, NewMatrix(p.C(), p.N()))) {
			t.Fatalf("trial %d: feasible point moved by %g", trial, d)
		}
	}
}

// Property: projection output is feasible for random infeasible inputs.
func TestProjectFeasibleAlwaysFeasibleProperty(t *testing.T) {
	r := sim.NewRand(654)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(t, r, 5, 4)
		x := NewMatrix(p.C(), p.N())
		for c := range x {
			for n := range x[c] {
				x[c][n] = r.Range(-10, 40)
			}
		}
		if err := ProjectFeasible(p, x, 1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := p.Violation(x); v > 1e-4 {
			t.Fatalf("trial %d: violation %g", trial, v)
		}
	}
}

func TestProjectFeasibleInfeasibleInstance(t *testing.T) {
	// Total demand 500 exceeds total capacity 200.
	p := testProblem(t, []float64{1, 2}, []float64{500})
	x, _ := p.UniformStart()
	if err := ProjectFeasible(p, x, 1e-6); err == nil {
		t.Fatal("infeasible instance projected without error")
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
	v := sp.Gather(x)
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
