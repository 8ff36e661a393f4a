package opt

import (
	"math"
	"testing"

	"edr/internal/sim"
)

func TestMinCostAssignmentPicksCheapestColumn(t *testing.T) {
	p := testProblem(t, []float64{1, 1}, []float64{50})
	w := [][]float64{{1, 10}}
	x, err := MinCostAssignment(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0][0]-50) > 1e-9 || x[0][1] != 0 {
		t.Fatalf("assignment = %v, want all on cheap column", x)
	}
}

func TestMinCostAssignmentSpillsAtCapacity(t *testing.T) {
	p := testProblem(t, []float64{1, 1}, []float64{150})
	w := [][]float64{{1, 10}}
	x, err := MinCostAssignment(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0][0]-100) > 1e-9 || math.Abs(x[0][1]-50) > 1e-9 {
		t.Fatalf("assignment = %v, want [100 50]", x)
	}
}

func TestMinCostAssignmentRespectsMask(t *testing.T) {
	p := testProblem(t, []float64{1, 1}, []float64{40})
	p.Latency[0][0] = 0.01 // cheap column infeasible
	w := [][]float64{{1, 10}}
	x, err := MinCostAssignment(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if x[0][0] != 0 || math.Abs(x[0][1]-40) > 1e-9 {
		t.Fatalf("assignment = %v, want all on feasible column", x)
	}
}

func TestMinCostAssignmentInfeasible(t *testing.T) {
	p := testProblem(t, []float64{1, 1}, []float64{500})
	w := [][]float64{{1, 1}}
	if _, err := MinCostAssignment(p, w); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

func TestMinCostAssignmentValidation(t *testing.T) {
	p := testProblem(t, []float64{1, 1}, []float64{10})
	if _, err := MinCostAssignment(p, [][]float64{{1}}); err == nil {
		t.Fatal("narrow cost matrix accepted")
	}
	if _, err := MinCostAssignment(p, [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("tall cost matrix accepted")
	}
	if _, err := MinCostAssignment(p, [][]float64{{-1, 2}}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

// Property: the min-cost assignment is feasible and no worse (in linear
// cost) than random feasible points or the max-flow point.
func TestMinCostAssignmentOptimalityProperty(t *testing.T) {
	r := sim.NewRand(2024)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(t, r, 5, 4)
		if CheckFeasible(p) != nil {
			continue
		}
		w := NewMatrix(p.C(), p.N())
		for c := range w {
			for n := range w[c] {
				w[c][n] = r.Range(0, 20)
			}
		}
		x, err := MinCostAssignment(p, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := p.Violation(x); v > 1e-6 {
			t.Fatalf("trial %d: violation %g", trial, v)
		}
		best := linearCost(w, x)
		// Compare against the max-flow feasible point and its Dykstra
		// perturbations.
		other, err := FeasiblePoint(p)
		if err != nil {
			t.Fatal(err)
		}
		if cost := linearCost(w, other); cost < best-1e-6*(1+math.Abs(best)) {
			t.Fatalf("trial %d: max-flow point cheaper: %g < %g", trial, cost, best)
		}
	}
}

func TestFrankWolfeMatchesProjectedGradient(t *testing.T) {
	r := sim.NewRand(31)
	for trial := 0; trial < 8; trial++ {
		p := randomProblem(t, r, 5, 4)
		if CheckFeasible(p) != nil {
			continue
		}
		fw, err := FrankWolfe(p, FWOptions{MaxIters: 800})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := p.Violation(fw.X); v > 1e-6 {
			t.Fatalf("trial %d: FW iterate violation %g (must be exactly feasible)", trial, v)
		}
		start, err := p.UniformStart()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ProjectedGradient(p, start, PGDOptions{MaxIters: 4000, Step: DiminishingStep(2)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fw.Objective > ref.Objective*1.02+1e-6 {
			t.Fatalf("trial %d: FW %.4f vs PGD %.4f (>2%% gap)", trial, fw.Objective, ref.Objective)
		}
	}
}

func TestFrankWolfeGapCertificate(t *testing.T) {
	p := testProblem(t, []float64{1, 8, 3}, []float64{40, 70, 20})
	fw, err := FrankWolfe(p, FWOptions{MaxIters: 2000, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Converged {
		t.Fatalf("FW did not converge; gap %g after %d iterations", fw.Gap, fw.Iterations)
	}
	if fw.Gap < 0 {
		t.Fatalf("negative duality gap %g", fw.Gap)
	}
	// The gap bounds suboptimality: f(x) − f* ≤ gap.
	start, _ := p.UniformStart()
	ref, err := ProjectedGradient(p, start, PGDOptions{MaxIters: 6000, Step: DiminishingStep(2)})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Objective > ref.Objective+fw.Gap+1e-3*(1+ref.Objective) {
		t.Fatalf("gap certificate violated: FW %g, ref %g, gap %g", fw.Objective, ref.Objective, fw.Gap)
	}
}

func TestFrankWolfeInfeasible(t *testing.T) {
	p := testProblem(t, []float64{1}, []float64{500})
	if _, err := FrankWolfe(p, FWOptions{}); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

func TestFrankWolfeGammaOneExactInOneStep(t *testing.T) {
	// With γ=1 the objective is linear, so the min-cost start is already
	// optimal and FW converges immediately.
	p := testProblem(t, []float64{2, 7}, []float64{60})
	for j := range p.System.Replicas {
		p.System.Replicas[j].Gamma = 1
	}
	fw, err := FrankWolfe(p, FWOptions{MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Converged || fw.Iterations > 2 {
		t.Fatalf("linear objective took %d iterations (converged=%v)", fw.Iterations, fw.Converged)
	}
	// Everything on the cheap replica.
	if math.Abs(fw.X[0][0]-60) > 1e-9 {
		t.Fatalf("γ=1 optimum = %v, want all on cheap replica", fw.X)
	}
}

// subInstance draws a random instance shaped like an incremental round's
// sub-problem: masked columns (randomProblem), a frozen base load under
// every column's energy curve, and only residual bandwidth above it.
func subInstance(t *testing.T, r *sim.Rand, clients, replicas int) *Problem {
	t.Helper()
	p := randomProblem(t, r, clients, replicas)
	for j := range p.System.Replicas {
		p.System.Replicas[j].Base = r.Range(0, 40)
		p.System.Replicas[j].Bandwidth = r.Range(35, 100)
	}
	return p
}

// The separable vertex costs exactly what the flow's vertex costs whenever
// it is taken, and it is refused — leaving the flow's answer, feasible and
// with a cap at its bound — whenever a bandwidth cap binds.
func TestSeparableLMOMatchesFlow(t *testing.T) {
	r := sim.NewRand(77)
	separable, capped := 0, 0
	for trial := 0; trial < 80; trial++ {
		p := subInstance(t, r, 6, 4)
		if CheckFeasible(p) != nil {
			continue
		}
		// Odd trials price like Frank-Wolfe's gradient does (one cost per
		// column), even ones entry by entry.
		w := NewMatrix(p.C(), p.N())
		for j := 0; j < p.N(); j++ {
			col := r.Range(0, 20)
			for i := range w {
				if w[i][j] = col; trial%2 == 0 {
					w[i][j] = r.Range(0, 20)
				}
			}
		}
		flow, flowLoads := NewMatrix(p.C(), p.N()), make([]float64, p.N())
		if err := assignByFlow(p, w, flow, flowLoads); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := MinCostAssignment(p, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := p.Violation(got); v > 1e-9 {
			t.Fatalf("trial %d: violation %g", trial, v)
		}
		want := linearCost(w, flow)
		if cost := linearCost(w, got); math.Abs(cost-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: oracle cost %g, flow cost %g", trial, cost, want)
		}
		greedy, loads := NewMatrix(p.C(), p.N()), make([]float64, p.N())
		if assignSeparable(p, w, greedy, loads) {
			separable++
			if cost := linearCost(w, greedy); math.Abs(cost-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d: separable cost %g, flow cost %g", trial, cost, want)
			}
			for j, load := range ColSums(greedy) {
				if math.Abs(load-loads[j]) > 1e-12 {
					t.Fatalf("trial %d: reported load[%d] = %g, column sums to %g", trial, j, loads[j], load)
				}
			}
			continue
		}
		capped++
		binding := false
		for j, load := range flowLoads {
			binding = binding || load >= p.System.Replicas[j].Bandwidth-1e-9
		}
		if !binding {
			t.Fatalf("trial %d: fast path refused though no cap binds: loads %v", trial, flowLoads)
		}
	}
	if separable < 10 || capped < 10 {
		t.Fatalf("seeds took the separable path %d times and the flow %d times; want both covered", separable, capped)
	}
}

// The load-space line search lands where a brute-force scan of prob.Cost
// along the segment does, endpoints included.
func TestLineSearchMatchesCostScan(t *testing.T) {
	r := sim.NewRand(5)
	const grid = 2000
	for trial := 0; trial < 30; trial++ {
		p := subInstance(t, r, 1, 4)
		reps := p.System.Replicas
		// One-row matrices carry arbitrary column loads into prob.Cost.
		x, v := NewMatrix(1, 4), NewMatrix(1, 4)
		for j := range x[0] {
			x[0][j] = r.Range(0, 60)
			switch trial % 3 {
			case 0: // more load everywhere: the minimum is at s = 0
				v[0][j] = x[0][j] + r.Range(1, 20)
			case 1: // less load everywhere: s = 1
				v[0][j] = x[0][j] * r.Range(0, 0.9)
			default:
				v[0][j] = r.Range(0, 60)
			}
		}
		cost := func(s float64) float64 {
			probe := Clone(x)
			Scale(probe, 1-s)
			AXPY(probe, s, v)
			return p.Cost(probe)
		}
		best, bestCost := 0.0, cost(0)
		for i := 1; i <= grid; i++ {
			if c := cost(float64(i) / grid); c < bestCost {
				best, bestCost = float64(i)/grid, c
			}
		}
		got := lineSearch(reps, x[0], v[0])
		switch trial % 3 {
		case 0:
			if got != 0 {
				t.Fatalf("trial %d: step %g, want the s=0 endpoint", trial, got)
			}
		case 1:
			if got != 1 {
				t.Fatalf("trial %d: step %g, want the s=1 endpoint", trial, got)
			}
		}
		if math.Abs(got-best) > 1.0/grid {
			t.Fatalf("trial %d: step %g, scan minimum at %g", trial, got, best)
		}
		if c := cost(got); c > bestCost+1e-9*(1+math.Abs(bestCost)) {
			t.Fatalf("trial %d: cost at step %.12g above the scan's %.12g", trial, c, bestCost)
		}
	}
}

// From a feasible warm start every step lowers the objective, the start is
// left untouched, and the run ends on its certificate.
func TestFrankWolfeFromWarmStart(t *testing.T) {
	r := sim.NewRand(19)
	for trial := 0; trial < 10; trial++ {
		p := subInstance(t, r, 8, 4)
		if CheckFeasible(p) != nil {
			continue
		}
		x0, err := FeasiblePoint(p)
		if err != nil {
			t.Fatal(err)
		}
		keep := Clone(x0)
		prev := p.Cost(x0)
		for k := 1; k <= 12; k++ {
			res, err := FrankWolfeFrom(p, x0, FWOptions{MaxIters: k})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if res.Objective > prev+1e-9*(1+prev) {
				t.Fatalf("trial %d: objective rose to %.12g after %d steps (was %.12g)", trial, res.Objective, k, prev)
			}
			prev = res.Objective
		}
		// The conditional-gradient tail is O(1/k): a 1e-3 certificate is
		// within reach of every seed, 1e-4 is not.
		opts := FWOptions{MaxIters: 5000, Tol: 1e-3}
		res, err := FrankWolfeFrom(p, x0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Gap > opts.Tol*(1+res.Objective) {
			t.Fatalf("trial %d: converged=%v gap %g objective %g after %d iterations",
				trial, res.Converged, res.Gap, res.Objective, res.Iterations)
		}
		if v := p.Violation(res.X); v > 1e-9 {
			t.Fatalf("trial %d: violation %g", trial, v)
		}
		if Dist(x0, keep) != 0 {
			t.Fatalf("trial %d: warm start was modified", trial)
		}
		// The certificate bounds the distance to any other solution's cost.
		cold, err := FrankWolfe(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective > cold.Objective+res.Gap+1e-9 {
			t.Fatalf("trial %d: warm %g exceeds cold %g by more than its gap %g", trial, res.Objective, cold.Objective, res.Gap)
		}
	}
}

// A start outside the feasible region is not iterated from: the run is the
// cold one.
func TestFrankWolfeFromInfeasibleStartFallsBack(t *testing.T) {
	p := testProblem(t, []float64{1, 8, 3}, []float64{40, 70, 20})
	p.Latency[0][0] = 0.01 // client 0 may not use replica 0
	cold, err := FrankWolfe(p, FWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, x0 := range map[string][][]float64{
		"masked entry": {{40, 0, 0}, {0, 70, 0}, {0, 0, 20}},
		"short row":    {{0, 20, 20}, {0, 60, 0}, {0, 0, 20}},
		"wrong shape":  {{0, 40}, {70, 0}, {20, 0}},
	} {
		res, err := FrankWolfeFrom(p, x0, FWOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Objective != cold.Objective || res.Iterations != cold.Iterations {
			t.Fatalf("%s: got %g in %d iterations, cold start gives %g in %d",
				name, res.Objective, res.Iterations, cold.Objective, cold.Iterations)
		}
	}
}

// BenchmarkIncrementalSubsolve times the kernel a drift round spends its
// solve stage in: a cohort-reduced dirty sub-instance (60 rows × 10
// replicas, each row reaching half of them, frozen base load under every
// column) re-solved from the previous optimum rescaled onto drifted demands.
func BenchmarkIncrementalSubsolve(b *testing.B) {
	const rows, cols = 60, 10
	prices, demands := make([]float64, cols), make([]float64, rows)
	for j := range prices {
		prices[j] = 1 + 2*float64(j)
	}
	for i := range demands {
		demands[i] = 0.1 + 0.01*float64(i)
	}
	p := testProblem(b, prices, demands)
	for j := range p.System.Replicas {
		p.System.Replicas[j].Base = 25
		p.System.Replicas[j].Bandwidth = 75
	}
	for i := range p.Latency {
		for k := cols / 2; k < cols; k++ {
			p.Latency[i][(i+k)%cols] = 0.005 // beyond T
		}
	}
	committed, err := FrankWolfe(p, FWOptions{})
	if err != nil {
		b.Fatal(err)
	}
	warm := committed.X
	for i := 0; i < rows; i += 7 {
		demands[i] *= 1.2
		Scale(warm[i:i+1], 1.2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *FWResult
	for i := 0; i < b.N; i++ {
		if res, err = FrankWolfeFrom(p, warm, FWOptions{}); err != nil || !res.Converged {
			b.Fatalf("sub-solve uncertified: %v, %+v", err, res)
		}
	}
	b.ReportMetric(float64(res.Iterations), "iterations/op")
}

// linearCost is the min-cost oracle's objective Σ w_{c,n}·x_{c,n}.
func linearCost(w, x [][]float64) float64 {
	sum := 0.0
	for c := range w {
		for n := range w[c] {
			sum += w[c][n] * x[c][n]
		}
	}
	return sum
}
