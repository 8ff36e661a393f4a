package solver

import (
	"math"
	"strings"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
)

func testProblem(t *testing.T) *opt.Problem {
	t.Helper()
	sys, err := model.NewSystem([]model.Replica{
		model.NewReplica("a", 1),
		model.NewReplica("b", 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &opt.Problem{
		System:     sys,
		Demands:    []float64{10, 20},
		Latency:    [][]float64{{0.001, 0.001}, {0.001, 0.001}},
		MaxLatency: 0.0018,
	}
}

func TestVerifyAcceptsFeasible(t *testing.T) {
	prob := testProblem(t)
	res := &Result{Assignment: [][]float64{{5, 5}, {10, 10}}}
	if err := Verify(prob, res, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsNil(t *testing.T) {
	prob := testProblem(t)
	if err := Verify(prob, nil, 1e-9); err == nil {
		t.Fatal("nil result accepted")
	}
	if err := Verify(prob, &Result{}, 1e-9); err == nil {
		t.Fatal("nil assignment accepted")
	}
}

func TestVerifyRejectsWrongShape(t *testing.T) {
	prob := testProblem(t)
	res := &Result{Assignment: [][]float64{{5, 5}}}
	if err := Verify(prob, res, 1e-9); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("short assignment: %v", err)
	}
	res = &Result{Assignment: [][]float64{{5}, {10}}}
	if err := Verify(prob, res, 1e-9); err == nil || !strings.Contains(err.Error(), "cols") {
		t.Fatalf("narrow assignment: %v", err)
	}
}

func TestVerifyRejectsInfeasible(t *testing.T) {
	prob := testProblem(t)
	// Demand violated: client 0 served 8 of 10.
	res := &Result{Assignment: [][]float64{{4, 4}, {10, 10}}}
	if err := Verify(prob, res, 1e-6); err == nil {
		t.Fatal("infeasible assignment accepted")
	}
	// But a loose tolerance accepts it.
	if err := Verify(prob, res, 3); err != nil {
		t.Fatal(err)
	}
}

// A NaN or infinite entry spreads through the projection to every client
// of its column, and the violation measured on the result is NaN, which
// compares false against any tolerance. Both projection entry points must
// refuse it, and Verify must refuse an assignment holding a NaN.
func TestNonFiniteIsNeverFeasible(t *testing.T) {
	prob := testProblem(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		x := [][]float64{{bad, 1}, {3, 17}}
		if err := opt.ProjectFeasible(prob, x, 1e-6); err == nil {
			t.Errorf("ProjectFeasible accepted a %v entry, projecting to %v", bad, x)
		}
		v := []float64{bad, 1, 3, 17}
		if err := opt.ProjectFeasiblePacked(prob, v, 1e-6); err == nil {
			t.Errorf("ProjectFeasiblePacked accepted a %v entry, projecting to %v", bad, v)
		}
	}
	res := &Result{Assignment: [][]float64{{math.NaN(), 10}, {math.NaN(), 10}}}
	if err := Verify(prob, res, 1e-6); err == nil {
		t.Error("Verify accepted a NaN assignment")
	}
}
