package opt

import (
	"errors"
	"math"
	"testing"

	"edr/internal/sim"
)

func TestDykstraNoSets(t *testing.T) {
	x := [][]float64{{1, 2}}
	sweeps, err := Dykstra(x, nil, DykstraOptions{})
	if err != nil || sweeps != 0 {
		t.Fatalf("Dykstra(no sets) = (%d, %v)", sweeps, err)
	}
}

func TestDykstraSingleSetIsPlainProjection(t *testing.T) {
	x := [][]float64{{3, 3}}
	set := func(m [][]float64) error {
		projectSimplex(m[0], 2)
		return nil
	}
	if _, err := Dykstra(x, []SetProjection{set}, DykstraOptions{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0][0]-1) > 1e-9 || math.Abs(x[0][1]-1) > 1e-9 {
		t.Fatalf("got %v, want (1,1)", x)
	}
}

// Intersecting two halfplanes in R²: x ≥ 1 (as a box clip) and x + y ≤ 1.
// Projection of (3, 3) onto the intersection is (1+t?, ...) — compute:
// feasible set {x≥1, x+y≤1}. Nearest point to (3,3): minimize (x−3)²+(y−3)²
// s.t. x≥1, x+y≤1. Lagrange: on boundary x+y=1: (x−3)=(y−3) ⇒ x=y=0.5 but
// x≥1 binds ⇒ x=1, y=0. Distance check: gradient conditions hold.
func TestDykstraTwoHalfplanes(t *testing.T) {
	x := [][]float64{{3, 3}}
	setA := func(m [][]float64) error { // x ≥ 1
		if m[0][0] < 1 {
			m[0][0] = 1
		}
		return nil
	}
	setB := func(m [][]float64) error { // x + y ≤ 1
		ProjectHalfspaceSumLE(m[0], 1)
		return nil
	}
	if _, err := Dykstra(x, []SetProjection{setA, setB}, DykstraOptions{MaxSweeps: 2000, Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0][0]-1) > 1e-6 || math.Abs(x[0][1]-0) > 1e-6 {
		t.Fatalf("projection = %v, want (1, 0)", x)
	}
}

func TestDykstraPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	x := [][]float64{{1}}
	set := func([][]float64) error { return boom }
	if _, err := Dykstra(x, []SetProjection{set}, DykstraOptions{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
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
