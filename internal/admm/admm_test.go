package admm

import (
	"context"
	"math"
	"testing"

	"edr/internal/central"
	"edr/internal/engine"
	"edr/internal/lddm"
	"edr/internal/model"
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
	lb, err := engine.NewLoopback(prob, 0, 0, nil)
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
		if prob.Sparsity().Density() < 1 {
			return prob
		}
	}
	t.Fatal("no masked instance in 50 draws")
	return nil
}

// proximalColumnDense is the dense reference ProximalColumn is checked
// against: a full-length column over all |C| clients with the latency mask
// handled inside the slice projection. The penalty sums over the support
// only — masked entries contribute a constant (0 − target_i)², irrelevant
// to the argmin but large enough to drown the h1/h2 comparison in rounding
// noise once the ternary interval is small.
func proximalColumnDense(rep model.Replica, allowed []bool, caps, target []float64, rho float64, iters int) ([]float64, error) {
	c := len(target)
	capSum := 0.0
	for i := 0; i < c; i++ {
		if allowed[i] {
			capSum += caps[i]
		}
	}
	z := make([]float64, c)
	maxS := math.Min(rep.Bandwidth, capSum)
	if maxS <= 0 {
		return z, nil
	}
	probe := make([]float64, c)
	eval := func(S float64) (float64, error) {
		copy(probe, target)
		if err := opt.ProjectMaskedCappedSimplex(probe, caps, allowed, S); err != nil {
			return 0, err
		}
		d := 0.0
		for i := 0; i < c; i++ {
			if allowed[i] {
				diff := probe[i] - target[i]
				d += diff * diff
			}
		}
		return rep.Cost(S) + rho/2*d, nil
	}
	lo, hi := 0.0, maxS
	for it := 0; it < iters && hi-lo > 1e-9*(1+maxS); it++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		h1, err := eval(m1)
		if err != nil {
			return nil, err
		}
		h2, err := eval(m2)
		if err != nil {
			return nil, err
		}
		if h1 <= h2 {
			hi = m2
		} else {
			lo = m1
		}
	}
	copy(z, target)
	if err := opt.ProjectMaskedCappedSimplex(z, caps, allowed, (lo+hi)/2); err != nil {
		return nil, err
	}
	return z, nil
}

func TestProximalColumnMatchesDenseOracle(t *testing.T) {
	// The dense oracle minimizes the same function by a ternary search over
	// the column sum, accurate only to its 1-D tolerance (≈ 1e-6 entry-wise),
	// so the exact packed kernel must reach an objective no worse than it.
	r := sim.NewRand(73)
	for trial := 0; trial < 40; trial++ {
		c := r.IntBetween(1, 10)
		rep := model.NewReplica("r", r.Range(1, 20))
		rep.Bandwidth = r.Range(20, 120)
		allowed := make([]bool, c)
		caps := make([]float64, c)
		target := make([]float64, c)
		packedCaps := []float64{}
		packedTarget := []float64{}
		idx := []int{}
		for i := 0; i < c; i++ {
			// The last ten trials run the full (density-1) column.
			allowed[i] = trial >= 30 || r.Float64() < 0.7
			caps[i] = r.Range(0, 30)
			target[i] = r.Range(-10, 30)
			if allowed[i] {
				packedCaps = append(packedCaps, caps[i])
				packedTarget = append(packedTarget, target[i])
				idx = append(idx, i)
			}
		}
		rho := r.Range(0.01, 2)
		dense, err := proximalColumnDense(rep, allowed, caps, target, rho, 60)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := ProximalColumn(rep, packedCaps, packedTarget, rho)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make([]float64, len(idx))
		for p, i := range idx {
			oracle[p] = dense[i]
		}
		got := proxObjective(rep, packed, packedTarget, rho)
		want := proxObjective(rep, oracle, packedTarget, rho)
		if got > want+1e-12*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v above the ternary oracle's %v", trial, got, want)
		}
		for i, v := range dense {
			if !allowed[i] && v != 0 {
				t.Fatalf("trial %d: dense wrote masked client %d", trial, i)
			}
		}
	}
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
