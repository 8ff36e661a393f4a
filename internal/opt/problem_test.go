package opt

import (
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/sim"
)

// testProblem builds a small instance with the paper's default parameters:
// all latencies feasible unless the mask says otherwise.
func testProblem(t testing.TB, prices []float64, demands []float64) *Problem {
	t.Helper()
	rs := make([]model.Replica, len(prices))
	for i, u := range prices {
		rs[i] = model.NewReplica("r", u)
	}
	sys, err := model.NewSystem(rs)
	if err != nil {
		t.Fatal(err)
	}
	lat := NewMatrix(len(demands), len(prices))
	for c := range lat {
		for n := range lat[c] {
			lat[c][n] = 0.0005 // 0.5 ms, under the 1.8 ms default bound
		}
	}
	return &Problem{
		System:     sys,
		Demands:    demands,
		Latency:    lat,
		MaxLatency: 0.0018,
	}
}

// randomProblem builds a random feasible instance for property tests.
func randomProblem(t *testing.T, r *sim.Rand, clients, replicas int) *Problem {
	t.Helper()
	prices := make([]float64, replicas)
	for i := range prices {
		prices[i] = float64(r.IntBetween(1, 20))
	}
	demands := make([]float64, clients)
	for c := range demands {
		demands[c] = r.Range(1, 30)
	}
	p := testProblem(t, prices, demands)
	// Randomly raise some latencies above the bound, keeping at least two
	// feasible replicas per client so instances stay comfortably feasible.
	for c := 0; c < clients; c++ {
		feasible := replicas
		for n := 0; n < replicas && feasible > 2; n++ {
			if r.Float64() < 0.25 {
				p.Latency[c][n] = 0.005 // 5 ms > T
				feasible--
			}
		}
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{10, 5})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := testProblem(t, []float64{1, 2}, []float64{10, 5})
	bad.Demands[0] = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative demand accepted")
	}

	bad = testProblem(t, []float64{1, 2}, []float64{10, 5})
	bad.MaxLatency = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero max latency accepted")
	}

	bad = testProblem(t, []float64{1, 2}, []float64{10, 5})
	bad.Latency = bad.Latency[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("short latency matrix accepted")
	}

	bad = testProblem(t, []float64{1, 2}, []float64{10, 5})
	bad.Latency[0][1] = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN latency accepted")
	}

	empty := &Problem{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty problem accepted")
	}
}

func TestAllowedMask(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{10})
	p.Latency[0][1] = 0.01 // above T
	mask := p.Allowed()
	if !mask[0][0] || mask[0][1] {
		t.Fatalf("mask = %v, want [true false]", mask[0])
	}
}

func TestViolationFeasiblePoint(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{10, 6})
	x := [][]float64{
		{4, 6},
		{3, 3},
	}
	if v := p.Violation(x); v > 1e-12 {
		t.Fatalf("feasible point has violation %g", v)
	}
}

func TestViolationDetectsEachConstraint(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{10})
	// Demand shortfall.
	if v := p.Violation([][]float64{{4, 4}}); math.Abs(v-2) > 1e-12 {
		t.Fatalf("demand violation = %g, want 2", v)
	}
	// Negativity.
	if v := p.Violation([][]float64{{12, -2}}); v < 2 {
		t.Fatalf("negativity violation = %g, want >= 2", v)
	}
	// Capacity: demand 300 split as 150+150 over B=100 caps.
	p2 := testProblem(t, []float64{1, 2}, []float64{300})
	if v := p2.Violation([][]float64{{150, 150}}); math.Abs(v-50) > 1e-12 {
		t.Fatalf("capacity violation = %g, want 50", v)
	}
	// Latency mask.
	p3 := testProblem(t, []float64{1, 2}, []float64{10})
	p3.Latency[0][1] = 0.01
	if v := p3.Violation([][]float64{{5, 5}}); v < 5 {
		t.Fatalf("mask violation = %g, want >= 5", v)
	}
}

func TestUniformStart(t *testing.T) {
	p := testProblem(t, []float64{1, 2, 3}, []float64{9, 6})
	p.Latency[1][0] = 0.01 // client 1 cannot use replica 0
	x, err := p.UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	if x[0][0] != 3 || x[0][1] != 3 || x[0][2] != 3 {
		t.Fatalf("row 0 = %v, want thirds of 9", x[0])
	}
	if x[1][0] != 0 || x[1][1] != 3 || x[1][2] != 3 {
		t.Fatalf("row 1 = %v, want (0,3,3)", x[1])
	}
}

func TestUniformStartNoFeasibleReplica(t *testing.T) {
	p := testProblem(t, []float64{1}, []float64{5})
	p.Latency[0][0] = 1 // way above T
	if _, err := p.UniformStart(); err == nil {
		t.Fatal("client with no feasible replica accepted")
	}
}

func TestCostGradientDelegation(t *testing.T) {
	p := testProblem(t, []float64{2, 4}, []float64{10})
	x := [][]float64{{6, 4}}
	wantCost, err := p.System.TotalCost(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(x); got != wantCost {
		t.Fatalf("Cost = %g, want %g", got, wantCost)
	}
	g := p.Gradient(x)
	if len(g) != 1 || len(g[0]) != 2 {
		t.Fatalf("Gradient shape %dx%d", len(g), len(g[0]))
	}
	e := p.Energy(x)
	if e <= 0 {
		t.Fatalf("Energy = %g", e)
	}
}

func TestAllowedCachedAndInvalidated(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{5, 5})
	m1 := p.Allowed()
	if !m1[0][0] || !m1[1][1] {
		t.Fatalf("all-feasible instance masked: %v", m1)
	}
	if m2 := p.Allowed(); &m2[0][0] != &m1[0][0] {
		t.Fatal("Allowed rebuilt the mask on a second call")
	}
	// Mutating the latencies without invalidation keeps serving the stale
	// (documented-read-only) mask; InvalidateMask rebuilds it.
	p.Latency[0][1] = 10 * p.MaxLatency
	if m := p.Allowed(); !m[0][1] {
		t.Fatal("mask rebuilt without InvalidateMask")
	}
	p.InvalidateMask()
	m3 := p.Allowed()
	if m3[0][1] {
		t.Fatal("InvalidateMask did not refresh the mask")
	}
	if !m3[0][0] || !m3[1][0] || !m3[1][1] {
		t.Fatalf("unrelated entries flipped: %v", m3)
	}
}

func TestAllowedConcurrent(t *testing.T) {
	p := testProblem(t, []float64{1, 2, 3}, []float64{5, 5, 5, 5})
	done := make(chan [][]bool, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- p.Allowed() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if m := <-done; &m[0][0] != &first[0][0] {
			t.Fatal("concurrent Allowed calls produced distinct masks")
		}
	}
}
