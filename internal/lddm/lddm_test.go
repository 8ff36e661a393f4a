package lddm

import (
	"math"
	"testing"

	"edr/internal/central"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

func TestLDDMName(t *testing.T) {
	if New().Name() != "LDDM" {
		t.Fatalf("Name = %q", New().Name())
	}
}

func TestLDDMSimpleInstance(t *testing.T) {
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
	// The cheap replica (price 1) must carry the most load.
	loads := opt.ColSums(res.Assignment)
	if loads[0] <= loads[1] || loads[0] <= loads[2] {
		t.Fatalf("cheap replica not preferred: loads = %v", loads)
	}
}

func TestLDDMMatchesCentralizedOptimum(t *testing.T) {
	r := sim.NewRand(7)
	for trial := 0; trial < 8; trial++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 5, Replicas: 4})
		if err != nil {
			t.Fatal(err)
		}
		ld, err := New().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := central.New().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := solver.Verify(prob, ld, 1e-4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// LDDM should land within a few percent of the central optimum.
		if ld.Objective > ref.Objective*1.05+1e-6 {
			t.Fatalf("trial %d: LDDM %.4f vs central %.4f (>5%% gap)", trial, ld.Objective, ref.Objective)
		}
	}
}

func TestLDDMGeoInstanceRespectsMask(t *testing.T) {
	r := sim.NewRand(13)
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
				t.Fatalf("latency-infeasible entry [%d][%d] = %g", c, n, v)
			}
		}
	}
}

func TestLDDMCommunicationLinearInCN(t *testing.T) {
	r := sim.NewRand(17)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 6, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Comm.Scalars / res.Iterations
	if want := 2 * 6 * 3; perIter != want {
		t.Fatalf("scalars/iteration = %d, want %d (O(C·N))", perIter, want)
	}
}

func TestLDDMInfeasibleInstanceRejected(t *testing.T) {
	r := sim.NewRand(19)
	prob, err := probgen.New(r, probgen.Spec{Clients: 2, Replicas: 2, Demands: []float64{500, 500}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Solve(prob); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

func TestLDDMHistoryRecorded(t *testing.T) {
	r := sim.NewRand(23)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history has %d entries for %d iterations", len(res.History), res.Iterations)
	}
	for i, h := range res.History {
		if math.IsNaN(h) || h < 0 {
			t.Fatalf("history[%d] = %g", i, h)
		}
	}
}

func TestLDDMConvergesOnPaperScale(t *testing.T) {
	// 8 replicas with the paper's price vector, a dozen clients.
	r := sim.NewRand(29)
	prob, err := probgen.MustFeasible(r, probgen.Spec{
		Clients:  12,
		Replicas: 8,
		Prices:   []float64{1, 8, 1, 6, 1, 5, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Solver{MaxIters: 3000}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if err := solver.Verify(prob, res, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func maskedInstance(t *testing.T, r *sim.Rand, clients, replicas int) *opt.Problem {
	return maskedInstanceSpec(t, r, probgen.Spec{Clients: clients, Replicas: replicas, Geo: true})
}

func maskedInstanceSpec(t *testing.T, r *sim.Rand, spec probgen.Spec) *opt.Problem {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		prob, err := probgen.MustFeasible(r, spec)
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

func TestLDDMSparseMatchesCentral(t *testing.T) {
	r := sim.NewRand(61)
	prob := maskedInstance(t, r, 8, 4)
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(prob, res, 1e-4); err != nil {
		t.Fatal(err)
	}
	ref, err := central.New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > ref.Objective*1.05+1e-6 {
		t.Fatalf("LDDM %.4f vs central %.4f (>5%% gap)", res.Objective, ref.Objective)
	}
}

func TestLDDMSparseCommCountsNNZ(t *testing.T) {
	r := sim.NewRand(71)
	prob := maskedInstance(t, r, 8, 4)
	nnz := prob.Sparsity().NNZ()
	res, err := (&Solver{MaxIters: 100}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Comm.Scalars/res.Iterations, 2*nnz; got != want {
		t.Fatalf("scalars/iteration = %d, want %d (2·nnz)", got, want)
	}
}

// Scale beyond the paper's 8 replicas: the solver must stay correct (and
// near-reference) on a 16-replica, 64-client instance.
func TestLDDMScalesBeyondPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	r := sim.NewRand(71)
	prob, err := probgen.MustFeasible(r, probgen.Spec{
		Clients:  64,
		Replicas: 16,
		Geo:      true,
		DemandLo: 2,
		DemandHi: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(prob, res, 1e-3); err != nil {
		t.Fatal(err)
	}
	ref, err := opt.FrankWolfe(prob, opt.FWOptions{MaxIters: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > ref.Objective*1.05+1e-6 {
		t.Fatalf("scale instance: LDDM %.1f vs reference %.1f (>5%% gap)", res.Objective, ref.Objective)
	}
}
