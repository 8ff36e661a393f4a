package admm

import (
	"context"
	"math"
	"testing"

	"edr/internal/central"
	"edr/internal/engine"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

func TestADMMName(t *testing.T) {
	if New().Name() != "ADMM" {
		t.Fatalf("Name = %q", New().Name())
	}
}

func TestADMMSimpleInstance(t *testing.T) {
	r := sim.NewRand(1)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 4, Replicas: 3, Prices: []float64{1, 10, 5}})
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
	loads := opt.ColSums(res.Assignment)
	if loads[0] <= loads[1] {
		t.Fatalf("cheap replica not preferred: loads = %v", loads)
	}
}

func TestADMMMatchesReferences(t *testing.T) {
	r := sim.NewRand(7)
	for trial := 0; trial < 8; trial++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 5, Replicas: 4, Geo: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		ad, err := New().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := solver.Verify(prob, ad, 1e-4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := central.NewFrankWolfe().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ad.Objective > ref.Objective*1.05+1e-6 {
			t.Fatalf("trial %d: ADMM %.4f vs reference %.4f (>5%% gap)", trial, ad.Objective, ref.Objective)
		}
	}
}

func TestADMMConvergesFasterThanLDDM(t *testing.T) {
	// The proximal damping should beat constant-step dual ascent in
	// iteration count on typical instances.
	r := sim.NewRand(11)
	faster := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 6, Replicas: 5})
		if err != nil {
			t.Fatal(err)
		}
		ad, err := New().Solve(prob)
		if err != nil {
			t.Fatal(err)
		}
		ld := lddm.New()
		ldRes, err := ld.Solve(prob)
		if err != nil {
			t.Fatal(err)
		}
		if ad.Converged && ad.Iterations < ldRes.Iterations {
			faster++
		}
	}
	if faster < trials/2+1 {
		t.Fatalf("ADMM faster on only %d/%d instances", faster, trials)
	}
}

func TestADMMCommLinearInCN(t *testing.T) {
	r := sim.NewRand(13)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 6, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if perIter := res.Comm.Scalars / res.Iterations; perIter != 2*6*3 {
		t.Fatalf("scalars/iteration = %d, want %d (O(C·N))", perIter, 2*6*3)
	}
}

func TestADMMMaskRespected(t *testing.T) {
	r := sim.NewRand(17)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 8, Replicas: 5, Geo: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	mask := prob.Allowed()
	for c := range res.Assignment {
		for n, v := range res.Assignment[c] {
			if !mask[c][n] && v > 1e-9 {
				t.Fatalf("masked entry [%d][%d] = %g", c, n, v)
			}
		}
	}
}

func TestADMMInfeasibleRejected(t *testing.T) {
	r := sim.NewRand(19)
	prob, err := probgen.New(r, probgen.Spec{Clients: 1, Replicas: 2, Demands: []float64{1000}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Solve(prob); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

// The primal residual the round's stop rule tests decays over a round: the
// driver hands it to OnIterate every iteration. Solve's History records the
// objective of the same iterates.
func TestADMMHistoryResidualsDecay(t *testing.T) {
	r := sim.NewRand(23)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 4, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := engine.NewLoopback(prob, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var residuals, costs []float64
	d := &engine.Driver{Transport: lb, Observe: true, OnIterate: func(_ int, residual, cost float64) {
		residuals = append(residuals, residual)
		costs = append(costs, cost)
	}}
	if _, _, err := d.Run(context.Background(), &roundAlg{}, lb.Round()); err != nil {
		t.Fatal(err)
	}
	if len(residuals) < 2 {
		t.Skip("converged immediately")
	}
	if first, last := residuals[0], residuals[len(residuals)-1]; last >= first {
		t.Fatalf("primal residual did not decay: %g → %g", first, last)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != len(costs) {
		t.Fatalf("history has %d entries for %d iterations", len(res.History), len(costs))
	}
	for k, h := range res.History {
		if math.Float64bits(h) != math.Float64bits(costs[k]) {
			t.Fatalf("history[%d] = %v, objective of the iterate %v", k, h, costs[k])
		}
	}
}

func maskedInstance(t testing.TB, r *sim.Rand, clients, replicas int) *opt.Problem {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: clients, Replicas: replicas, Geo: true})
		if err != nil {
			t.Fatal(err)
		}
		if prob.Sparsity().NNZ() < prob.C()*prob.N() {
			return prob
		}
	}
	t.Fatal("no masked instance in 50 draws")
	return nil
}

func TestADMMSparseCommCountsNNZ(t *testing.T) {
	r := sim.NewRand(89)
	prob := maskedInstance(t, r, 8, 4)
	nnz := prob.Sparsity().NNZ()
	res, err := (&Solver{MaxIters: 60}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Comm.Scalars/res.Iterations, 2*nnz; got != want {
		t.Fatalf("scalars/iteration = %d, want %d (2·nnz)", got, want)
	}
}
