package cdpsm

import (
	"math"
	"slices"
	"testing"

	"edr/internal/central"
	"edr/internal/engine"
	"edr/internal/engine/wiretest"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

func TestCDPSMName(t *testing.T) {
	if New().Name() != "CDPSM" {
		t.Fatalf("Name = %q", New().Name())
	}
}

func TestCDPSMSimpleInstance(t *testing.T) {
	r := sim.NewRand(3)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 3, Replicas: 3, Prices: []float64{1, 10, 5}})
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

func TestCDPSMMatchesCentralizedOptimum(t *testing.T) {
	r := sim.NewRand(11)
	for trial := 0; trial < 5; trial++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 4, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		cd, err := New().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := central.New().Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := solver.Verify(prob, cd, 1e-4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cd.Objective > ref.Objective*1.06+1e-6 {
			t.Fatalf("trial %d: CDPSM %.4f vs central %.4f (>6%% gap)", trial, cd.Objective, ref.Objective)
		}
	}
}

func TestCDPSMCommCubicInN(t *testing.T) {
	r := sim.NewRand(13)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 4, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Comm.Scalars / res.Iterations
	// |N|·(|N|−1)·|C|·|N| = 3·2·4·3 = 72 scalars per iteration.
	if perIter != 72 {
		t.Fatalf("scalars/iteration = %d, want 72 (O(C·N³))", perIter)
	}
}

func TestCDPSMSlowerThanLDDMInMessages(t *testing.T) {
	// The complexity claim of §III-D: per iteration CDPSM moves
	// |N|² more data than LDDM per client-replica pair.
	r := sim.NewRand(17)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 5, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	cdpsmPerIter := res.Comm.Scalars / res.Iterations
	lddmPerIter := 2 * prob.C() * prob.N()
	if cdpsmPerIter <= lddmPerIter {
		t.Fatalf("CDPSM %d scalars/iter vs LDDM %d: complexity ordering violated", cdpsmPerIter, lddmPerIter)
	}
}

func TestCDPSMInfeasibleRejected(t *testing.T) {
	r := sim.NewRand(29)
	prob, err := probgen.New(r, probgen.Spec{Clients: 1, Replicas: 2, Demands: []float64{1000}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Solve(prob); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

func TestCDPSMHistoryMonotoneTail(t *testing.T) {
	// The consensus objective should trend downward (allowing early noise
	// while agents disagree): the last history value must be below the
	// early maximum.
	r := sim.NewRand(31)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 4, Replicas: 3, Prices: []float64{2, 9, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Skip("converged immediately")
	}
	early := res.History[0]
	for _, h := range res.History[:len(res.History)/2] {
		if h > early {
			early = h
		}
	}
	last := res.History[len(res.History)-1]
	if last > early+1e-9 {
		t.Fatalf("objective did not descend: early max %g, final %g", early, last)
	}
	for _, h := range res.History {
		if math.IsNaN(h) {
			t.Fatal("NaN in history")
		}
	}
}

func TestCDPSMMaskRespected(t *testing.T) {
	r := sim.NewRand(37)
	prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: 6, Replicas: 4, Geo: true})
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

// The packed gradient step moves only the agent's own supported entries,
// each by −step times the analytic marginal at the column's load.
func TestLocalGradientOnlyOwnColumn(t *testing.T) {
	prob := maskedInstance(t, sim.NewRand(41), 6, 3)
	sp := prob.Sparsity()
	start, err := prob.UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	const agent, step = 1, 0.05
	before := sp.Gather(nil, start)
	v := slices.Clone(before)
	gradientStep(prob, agent, v, step)
	load := 0.0
	for c := range start {
		load += start[c][agent]
	}
	marginal := prob.System.Replicas[agent].MarginalCost(load)
	if marginal <= 0 {
		t.Fatalf("own-column marginal %g not positive", marginal)
	}
	moved := 0
	for k := range v {
		want := before[k]
		if sp.ColIdx[k] == agent {
			want -= step * marginal
			moved++
		}
		if math.Abs(v[k]-want) > 1e-12 {
			t.Fatalf("slot %d (replica %d) = %g, want %g", k, sp.ColIdx[k], v[k], want)
		}
	}
	if moved != sp.ColNNZ(agent) || moved == len(v) {
		t.Fatalf("%d of %d slots moved, column %d has %d", moved, len(v), agent, sp.ColNNZ(agent))
	}
}

// maskedInstance draws a feasible wide-area instance whose latency mask has
// structural zeros (retrying until it does).
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

func TestCDPSMSparseCommCountsNNZ(t *testing.T) {
	r := sim.NewRand(47)
	prob := maskedInstance(t, r, 8, 4)
	sp := prob.Sparsity()
	res, err := (&Solver{MaxIters: 50}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Comm.Scalars / res.Iterations
	want := prob.N() * (prob.N() - 1) * sp.NNZ()
	if perIter != want {
		t.Fatalf("scalars/iteration = %d, want %d (N·(N−1)·nnz)", perIter, want)
	}
	if perIter >= prob.N()*(prob.N()-1)*prob.C()*prob.N() {
		t.Fatal("comm accounting on a masked instance no cheaper than a full one")
	}
}

// Solve gives the same answer bit for bit with bodies handed over and
// through the real codecs (the packed means and estimates of every step
// included).
func TestSolveLoopbackMatchesCodec(t *testing.T) {
	r := sim.NewRand(59)
	full, err := probgen.MustFeasible(r, probgen.Spec{Clients: 8, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, prob := range map[string]*opt.Problem{"full": full, "masked": maskedInstance(t, r, 8, 4)} {
		t.Run(name, func(t *testing.T) {
			s := &Solver{MaxIters: 40, Step: 0.0005, Tol: 1e-9}
			wiretest.SameOverCodec(t, func(carry engine.Carrier) (*solver.Result, error) {
				return s.solve(prob, carry)
			})
		})
	}
}
