package central

import (
	"testing"

	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

func TestCentralName(t *testing.T) {
	if New().Name() != "Central" {
		t.Fatalf("Name = %q", New().Name())
	}
}

func TestCentralSolvesFeasibly(t *testing.T) {
	r := sim.NewRand(1)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 5, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(prob, res, 1e-4); err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history %d entries for %d iterations", len(res.History), res.Iterations)
	}
}

func TestCentralBeatsUniformSplit(t *testing.T) {
	r := sim.NewRand(5)
	prob, err := probgen.MustFeasible(r, probgen.Spec{
		Clients: 6, Replicas: 4, Prices: []float64{1, 18, 2, 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := prob.UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective >= prob.Cost(uniform) {
		t.Fatalf("optimum %g not below uniform %g with skewed prices", res.Objective, prob.Cost(uniform))
	}
}

func TestCentralCommIsPerRoundSmall(t *testing.T) {
	r := sim.NewRand(9)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 4, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages != 2*prob.C() {
		t.Fatalf("Messages = %d, want %d", res.Comm.Messages, 2*prob.C())
	}
}

func TestCentralInvalidProblem(t *testing.T) {
	r := sim.NewRand(11)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	prob.MaxLatency = -1
	if _, err := New().Solve(prob); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestCentralConvergesWithConstantStep(t *testing.T) {
	r := sim.NewRand(13)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Step = func(int) float64 { return 0.01 }
	s.MaxIters = 500
	res, err := s.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(prob, res, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestFrankWolfeSolverAgreesWithPGD(t *testing.T) {
	r := sim.NewRand(17)
	for trial := 0; trial < 6; trial++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 6, Replicas: 4, Geo: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		fw, err := NewFrankWolfe().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := solver.Verify(prob, fw, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pg, err := New().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rel := (fw.Objective - pg.Objective) / pg.Objective
		if rel > 0.02 || rel < -0.02 {
			t.Fatalf("trial %d: references disagree: FW %.4f vs PGD %.4f", trial, fw.Objective, pg.Objective)
		}
	}
}

func TestFrankWolfeSolverName(t *testing.T) {
	if NewFrankWolfe().Name() != "Frank-Wolfe" {
		t.Fatal("name mismatch")
	}
}
