package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/lddm"
	"edr/internal/solver"
)

// A live round and the in-process solver are one loop: the same round
// algorithm, run over the fleet's transport and codecs or over an
// engine.Loopback. On the same instance and settings they take the same
// number of iterations and recover the same assignment bit for bit: the
// rebuilt problem carries the values the round spec shipped, the codecs are
// exact, and no step depends on the order replies land in.
func TestEngineRoundsMatchInProcessSolvers(t *testing.T) {
	// Seeded instance: deterministic demands shared by every subtest.
	rng := rand.New(rand.NewPCG(7, 2026))
	prices := []float64{1, 8, 4}
	demands := make([]float64, 4)
	for i := range demands {
		demands[i] = 15 + 25*rng.Float64()
	}

	cases := []struct {
		alg      Algorithm
		maxIters int
		tol      float64
		solver   solver.Solver
	}{
		{alg: LDDM, maxIters: 800, tol: 0.005, solver: &lddm.Solver{MaxIters: 800, Tol: 0.005}},
		{alg: ADMM, maxIters: 300, tol: 1e-4, solver: &admm.Solver{MaxIters: 300, Tol: 1e-4}},
		{alg: CDPSM, maxIters: 400, tol: 1e-4, solver: &cdpsm.Solver{MaxIters: 400, Tol: 1e-4}},
	}
	for _, tc := range cases {
		t.Run(string(tc.alg), func(t *testing.T) {
			f := newFleet(t, prices, len(demands), tc.alg)
			for _, rs := range f.replicas {
				rs.cfg.MaxIters = tc.maxIters
				rs.cfg.Tol = tc.tol
			}
			ctx := context.Background()
			demandOf := map[string]float64{}
			for i, cl := range f.clients {
				demandOf[cl.Addr()] = demands[i]
				if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], f.uniformLatencies()); err != nil {
					t.Fatal(err)
				}
			}
			report, err := f.replicas[0].RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			prob := rebuildProblem(t, prices, report, demandOf)
			if v := prob.Violation(report.Assignment); v > 1e-4 {
				t.Fatalf("live assignment infeasible by %g", v)
			}
			ref, err := tc.solver.Solve(prob)
			if err != nil {
				t.Fatal(err)
			}
			if report.Iterations != ref.Iterations {
				t.Fatalf("live round ran %d iterations, in-process %d", report.Iterations, ref.Iterations)
			}
			for i, row := range report.Assignment {
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(ref.Assignment[i][j]) {
						t.Fatalf("assignment[%d][%d]: live %v, in-process %v", i, j, v, ref.Assignment[i][j])
					}
				}
			}
		})
	}
}
