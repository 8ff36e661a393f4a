package opt

import (
	"math"
	"testing"

	"edr/internal/sim"
)

func TestDiminishingStep(t *testing.T) {
	s := DiminishingStep(2)
	if s(1) != 2 {
		t.Fatalf("s(1) = %g", s(1))
	}
	if math.Abs(s(4)-1) > 1e-12 {
		t.Fatalf("s(4) = %g, want 1", s(4))
	}
	if s(9) >= s(4) {
		t.Fatal("DiminishingStep not decreasing")
	}
}

// With one client and two replicas of very different prices and no binding
// capacity, the optimum routes essentially everything through the cheaper
// replica until its marginal cost rises to meet the expensive one's.
func TestPGDPrefersCheapReplica(t *testing.T) {
	p := testProblem(t, []float64{1, 10}, []float64{50})
	res, err := ProjectedGradient(p, mustUniform(t, p), PGDOptions{MaxIters: 5000, Step: DiminishingStep(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0][0] <= res.X[0][1] {
		t.Fatalf("cheap replica got %g, expensive got %g", res.X[0][0], res.X[0][1])
	}
	if p.Violation(res.X) > 1e-4 {
		t.Fatalf("PGD result infeasible: violation %g", p.Violation(res.X))
	}
}

// Two identical replicas: by symmetry and strict convexity the optimum
// splits the load evenly.
func TestPGDSymmetricSplit(t *testing.T) {
	p := testProblem(t, []float64{5, 5}, []float64{60})
	x0 := NewMatrix(1, 2)
	x0[0][0] = 60 // deliberately lopsided start
	res, err := ProjectedGradient(p, x0, PGDOptions{MaxIters: 8000, Step: DiminishingStep(1)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0][0]-30) > 0.5 || math.Abs(res.X[0][1]-30) > 0.5 {
		t.Fatalf("split = %v, want ~ (30, 30)", res.X[0])
	}
}

// KKT check: at the optimum, all replicas receiving load have equal
// marginal cost, and replicas receiving none have marginal cost >= that
// level (for a single client, no capacity binding).
func TestPGDSatisfiesKKT(t *testing.T) {
	p := testProblem(t, []float64{1, 3, 7}, []float64{80})
	res, err := ProjectedGradient(p, mustUniform(t, p), PGDOptions{MaxIters: 10000, Step: DiminishingStep(2)})
	if err != nil {
		t.Fatal(err)
	}
	loads := ColSums(res.X)
	var active []float64
	for n, load := range loads {
		mc := p.System.Replicas[n].MarginalCost(load)
		if load > 0.5 {
			active = append(active, mc)
		}
	}
	if len(active) < 2 {
		t.Skipf("only %d active replicas; KKT equalization trivial", len(active))
	}
	for i := 1; i < len(active); i++ {
		if math.Abs(active[i]-active[0]) > 0.15*active[0] {
			t.Fatalf("active marginal costs not equalized: %v", active)
		}
	}
}

// PGD must respect capacity: demand exceeding one replica's cap spills over.
func TestPGDCapacitySpill(t *testing.T) {
	p := testProblem(t, []float64{1, 20}, []float64{150})
	res, err := ProjectedGradient(p, mustUniform(t, p), PGDOptions{MaxIters: 6000, Step: DiminishingStep(2)})
	if err != nil {
		t.Fatal(err)
	}
	loads := ColSums(res.X)
	if loads[0] > 100+1e-3 {
		t.Fatalf("capacity exceeded: %v", loads)
	}
	if loads[1] < 50-1e-3 {
		t.Fatalf("spillover missing: %v", loads)
	}
}

// Brute-force cross-check on a 1-client, 2-replica instance: grid search
// over the single degree of freedom.
func TestPGDMatchesBruteForce(t *testing.T) {
	p := testProblem(t, []float64{2, 9}, []float64{70})
	res, err := ProjectedGradient(p, mustUniform(t, p), PGDOptions{MaxIters: 10000, Step: DiminishingStep(2)})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for a := 0.0; a <= 70.0001; a += 0.01 {
		x := [][]float64{{a, 70 - a}}
		if cost := p.Cost(x); cost < best {
			best = cost
		}
	}
	if res.Objective > best*1.01+1e-9 {
		t.Fatalf("PGD objective %g, brute force %g", res.Objective, best)
	}
}

// Property: PGD never increases the objective relative to its own start
// and always lands feasible on random instances.
func TestPGDImprovesProperty(t *testing.T) {
	r := sim.NewRand(2024)
	for trial := 0; trial < 15; trial++ {
		p := randomProblem(t, r, 4, 3)
		x0, err := FeasiblePoint(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		startCost := p.Cost(x0)
		res, err := ProjectedGradient(p, x0, PGDOptions{MaxIters: 1500, Step: DiminishingStep(1)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Objective > startCost*1.001+1e-6 {
			t.Fatalf("trial %d: PGD worsened objective %g → %g", trial, startCost, res.Objective)
		}
		if p.Violation(res.X) > 1e-3 {
			t.Fatalf("trial %d: infeasible result (violation %g)", trial, p.Violation(res.X))
		}
	}
}

func TestPGDOnIterationCallback(t *testing.T) {
	p := testProblem(t, []float64{1, 4}, []float64{30})
	var iters []int
	var objs []float64
	_, err := ProjectedGradient(p, mustUniform(t, p), PGDOptions{
		MaxIters: 50,
		Step:     func(int) float64 { return 0.05 },
		Tol:      1e-14, // force all 50 iterations
		OnIteration: func(k int, obj float64) {
			iters = append(iters, k)
			objs = append(objs, obj)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 50 || iters[0] != 1 || iters[49] != 50 {
		t.Fatalf("callback iterations = %v", iters)
	}
	for _, o := range objs {
		if math.IsNaN(o) || o < 0 {
			t.Fatalf("bad objective in history: %v", objs)
		}
	}
}

func TestPGDInvalidProblem(t *testing.T) {
	p := testProblem(t, []float64{1}, []float64{10})
	p.MaxLatency = -1
	if _, err := ProjectedGradient(p, NewMatrix(1, 1), PGDOptions{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func mustUniform(t *testing.T, p *Problem) [][]float64 {
	t.Helper()
	x, err := p.UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	return x
}
