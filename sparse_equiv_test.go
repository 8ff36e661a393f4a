package edr_test

import (
	"math"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/central"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

// FuzzSparseDenseEquiv checks the one packed solver core against exact
// references on random instances, masked (odd seeds: wide-area draws with
// structural zeros) and fully feasible (even seeds: cluster draws, the
// density-1 CSR) alike:
//
//   - kernel level: the packed projector behind opt.ProjectFeasible must
//     pass the projection certificate (see projectionGap) with a gap of at
//     most 1e-10, and opt.ProjectFeasiblePacked, the entry point the
//     engines call, must agree with ProjectFeasible bit for bit on the
//     support, refusing exactly when it refuses (the water-filling and
//     proximal-column kernels are checked, full masks included, in the
//     lddm and admm package tests);
//   - engine level: every engine's result passes solver.Verify and puts
//     nothing on a latency-infeasible link, and LDDM and ADMM land within
//     5% of the centralized optimum (CDPSM's constant-step consensus does
//     not get that close in a bounded run, so it is held to feasibility).
func FuzzSparseDenseEquiv(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3))
	f.Add(uint64(42), uint8(10), uint8(4))
	f.Add(uint64(7), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, clients, replicas uint8) {
		c := 2 + int(clients)%12
		n := 2 + int(replicas)%5
		r := sim.NewRand(seed)
		prob, err := probgen.MustFeasible(r, probgen.Spec{
			Clients: c, Replicas: n, Geo: seed%2 == 1, DemandLo: 1, DemandHi: 6,
		})
		if err != nil {
			t.Skip("no feasible draw for this seed")
		}
		mask := prob.Allowed()

		x := opt.NewMatrix(c, n)
		for i := range x {
			for j := range x[i] {
				x[i][j] = r.Range(-5, 20) // off-support entries included: both sides must zero them
			}
		}
		packed, v := opt.Clone(x), prob.Sparsity().Gather(nil, x)
		err, errPacked := opt.ProjectFeasible(prob, packed, 1e-6), opt.ProjectFeasiblePacked(prob, v, 1e-6)
		if (err == nil) != (errPacked == nil) {
			t.Fatalf("ProjectFeasible says %v, ProjectFeasiblePacked %v", err, errPacked)
		}
		if err != nil {
			t.Fatalf("packed projection: %v", err)
		}
		for k, want := range prob.Sparsity().Gather(nil, packed) {
			if math.Float64bits(v[k]) != math.Float64bits(want) {
				t.Fatalf("slot %d: ProjectFeasiblePacked %v, ProjectFeasible %v", k, v[k], want)
			}
		}
		if viol := prob.Violation(packed); viol > 1e-6 {
			t.Fatalf("packed projection violation %g", viol)
		}
		if gap, err := projectionGap(prob, x, packed); err != nil || gap > 1e-10 {
			t.Fatalf("packed projection gap %g (%v): not the nearest feasible point", gap, err)
		}

		ref, err := central.New().Solve(prob)
		if err != nil {
			t.Fatalf("central: %v", err)
		}
		engines := []struct {
			s          solver.Solver
			nearCenter bool
		}{
			{&cdpsm.Solver{MaxIters: 60}, false},
			{&lddm.Solver{MaxIters: 3000, Tol: 0.01}, true},
			{&admm.Solver{MaxIters: 500, Tol: 1e-4}, true},
		}
		for _, e := range engines {
			res, err := e.s.Solve(prob)
			if err != nil {
				t.Fatalf("%s: %v", e.s.Name(), err)
			}
			if err := solver.Verify(prob, res, 1e-4); err != nil {
				t.Fatalf("%s: %v", e.s.Name(), err)
			}
			for i, row := range res.Assignment {
				for j, v := range row {
					if !mask[i][j] && v != 0 {
						t.Fatalf("%s put %g on latency-infeasible link [%d][%d]", e.s.Name(), v, i, j)
					}
				}
			}
			if e.nearCenter && res.Objective > ref.Objective*1.05+1e-6 {
				t.Fatalf("%s objective %v vs central %v (>5%% gap)", e.s.Name(), res.Objective, ref.Objective)
			}
		}
	})
}

// projectionGap certifies y as the Euclidean projection of x onto prob's
// feasible region by its optimality condition: y = P(x) exactly when y
// minimizes ⟨y − x, z⟩ over feasible z, so with w = y − x the gap
// ⟨w, y⟩ − min_z ⟨w, z⟩ is 0 at P(x) and bounds ‖y − P(x)‖ ≤ √(2·gap) at
// any feasible y. opt.MinCostAssignment solves the linear program exactly
// once each row of w is shifted to be non-negative on the mask; feasible
// rows sum to R_c, so the shift leaves the argmin alone.
func projectionGap(prob *opt.Problem, x, y [][]float64) (float64, error) {
	mask := prob.Allowed()
	w := opt.NewMatrix(prob.C(), prob.N())
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
	z, err := opt.MinCostAssignment(prob, w)
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
