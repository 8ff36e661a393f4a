package cohort

import (
	"math"
	"slices"
	"testing"

	"edr/internal/central"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
)

// regional builds a feasible region-structured instance sized for cohort
// tests: per-client demands shrink with scale so total demand stays well
// under the fleet's aggregate bandwidth.
func regional(t *testing.T, seed uint64, clients, replicas, regions int) *opt.Problem {
	t.Helper()
	prob, err := probgen.MustFeasible(sim.NewRand(seed), probgen.Spec{
		Clients:  clients,
		Replicas: replicas,
		Regions:  regions,
		DemandLo: 0.005,
		DemandHi: 0.05,
	})
	if err != nil {
		t.Fatalf("regional instance: %v", err)
	}
	return prob
}

// TestCohortsAreMaskClasses pins the key: two clients share a cohort iff
// their feasibility masks are equal. Besides a regional fleet it runs one
// mask group whose feasible latencies straddle T/4 — same-host clients
// measured over loopback — which must come out as a single cohort.
func TestCohortsAreMaskClasses(t *testing.T) {
	base := regional(t, 2, 60, 6, 3)
	lat := opt.NewMatrix(base.C(), base.N())
	for c := range lat {
		for j := range lat[c] {
			lat[c][j] = base.MaxLatency * (0.2 + 0.1*float64((c+j)%2)) // either side of T/4
		}
		lat[c][base.N()-1] = 10 * base.MaxLatency
	}
	straddle := &opt.Problem{System: base.System, Demands: base.Demands, Latency: lat, MaxLatency: base.MaxLatency}
	for _, tc := range []struct {
		name string
		prob *opt.Problem
	}{
		{"regional", regional(t, 1, 400, 8, 12)},
		{"straddle", straddle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob := tc.prob
			g, err := Group(prob, Options{})
			if err != nil {
				t.Fatalf("Group: %v", err)
			}
			if g.C() != prob.C() {
				t.Fatalf("C() = %d, want %d", g.C(), prob.C())
			}
			// Partition: every client in exactly one cohort, members
			// consistent with CohortOf.
			seen := make([]bool, prob.C())
			for k := 0; k < g.K(); k++ {
				for _, c := range g.Members(k) {
					if seen[c] {
						t.Fatalf("client %d appears in two cohorts", c)
					}
					seen[c] = true
					if g.CohortOf(c) != k {
						t.Fatalf("CohortOf(%d) = %d, want %d", c, g.CohortOf(c), k)
					}
				}
			}
			for c, ok := range seen {
				if !ok {
					t.Fatalf("client %d in no cohort", c)
				}
			}
			mask := prob.Allowed()
			for a := 0; a < prob.C(); a++ {
				for b := a + 1; b < prob.C(); b++ {
					same, equal := g.CohortOf(a) == g.CohortOf(b), slices.Equal(mask[a], mask[b])
					if same != equal {
						t.Fatalf("clients %d, %d: same cohort %v, equal masks %v", a, b, same, equal)
					}
				}
			}
		})
	}
}

func TestReducedProblemInvariants(t *testing.T) {
	prob := regional(t, 2, 600, 10, 15)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	red := g.Reduced()
	if err := red.Validate(); err != nil {
		t.Fatalf("reduced problem invalid: %v", err)
	}
	if red.C() != g.K() {
		t.Fatalf("reduced has %d rows for %d cohorts", red.C(), g.K())
	}
	// Total demand conserved.
	var full, agg float64
	for _, d := range prob.Demands {
		full += d
	}
	for _, d := range red.Demands {
		agg += d
	}
	if math.Abs(full-agg) > 1e-9*full {
		t.Fatalf("demand not conserved: %g vs %g", agg, full)
	}
	// Reduced mask equals the shared member mask.
	mask, rmask := prob.Allowed(), red.Allowed()
	for k := 0; k < g.K(); k++ {
		lead := g.Members(k)[0]
		for j := 0; j < prob.N(); j++ {
			if rmask[k][j] != mask[lead][j] {
				t.Fatalf("reduced mask[%d][%d] = %v, members have %v", k, j, rmask[k][j], mask[lead][j])
			}
		}
	}
	// Reduced feasibility implies the cohorted round can run at all.
	if err := opt.CheckFeasible(red); err != nil {
		t.Fatalf("reduced instance infeasible: %v", err)
	}
}

func TestDisaggregateConservesAndRespectsMask(t *testing.T) {
	prob := regional(t, 4, 800, 10, 16)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	xk, err := g.Reduced().UniformStart()
	if err != nil {
		t.Fatalf("UniformStart: %v", err)
	}
	x, err := g.Disaggregate(xk)
	if err != nil {
		t.Fatalf("Disaggregate: %v", err)
	}
	if err := g.Check(x, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Exact conservation, not approximate: residual fixup makes row sums
	// bit-equal targets up to one final addition.
	for c, row := range x {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-prob.Demands[c]) > 1e-12*(1+prob.Demands[c]) {
			t.Fatalf("client %d row sum %g vs demand %g", c, sum, prob.Demands[c])
		}
	}
	// Column sums survive the split: the disaggregated cost equals the
	// cohort-level cost when the solver met cohort demands.
	if d := math.Abs(prob.Cost(x) - g.Reduced().Cost(xk)); d > 1e-6*(1+g.Reduced().Cost(xk)) {
		t.Fatalf("cost drifted through disaggregation by %g", d)
	}
}

func TestDisaggregateZeroRowFallback(t *testing.T) {
	prob := regional(t, 5, 120, 6, 6)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	// A solver that returned nothing at all: the fallback must still
	// conserve demand over each cohort's feasible links.
	xk := opt.NewMatrix(g.K(), prob.N())
	x, err := g.Disaggregate(xk)
	if err != nil {
		t.Fatalf("Disaggregate: %v", err)
	}
	if err := g.Check(x, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestDisaggregateRejectsBadInput(t *testing.T) {
	prob := regional(t, 6, 60, 5, 4)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	if _, err := g.Disaggregate(opt.NewMatrix(g.K()+1, prob.N())); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	bad := opt.NewMatrix(g.K(), prob.N())
	bad[0][0] = math.NaN()
	if _, err := g.Disaggregate(bad); err == nil {
		t.Fatal("NaN load accepted")
	}
}

func TestAggregateRowsAndDuals(t *testing.T) {
	prob := regional(t, 7, 200, 8, 8)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	full, err := prob.UniformStart()
	if err != nil {
		t.Fatalf("UniformStart: %v", err)
	}
	agg := memberRowSums(g, full)
	for k := range agg {
		sum := 0.0
		for _, v := range agg[k] {
			sum += v
		}
		if math.Abs(sum-g.Reduced().Demands[k]) > 1e-9*(1+g.Reduced().Demands[k]) {
			t.Fatalf("aggregated cohort %d carries %g of demand %g", k, sum, g.Reduced().Demands[k])
		}
	}
	mu := make([]float64, prob.C())
	for c := range mu {
		mu[c] = 2.5
	}
	for k, v := range g.AggregateDuals(mu) {
		if math.Abs(v-2.5) > 1e-12 {
			t.Fatalf("constant duals not preserved: cohort %d got %g", k, v)
		}
	}
}

func TestGroupRejectsEmptyProblem(t *testing.T) {
	if _, err := Group(&opt.Problem{}, Options{}); err == nil {
		t.Fatal("empty problem accepted")
	}
}

// TestCohortGapVsCentralUngrouped is the headline acceptance check at a
// directly-comparable scale: group a 1k-client regional instance, solve
// the reduced problem with a distributed kernel (LDDM), disaggregate, and
// compare the resulting objective against the Frank-Wolfe centralized
// reference run on the UNGROUPED instance. The measured gap must be
// within 5%.
func TestCohortGapVsCentralUngrouped(t *testing.T) {
	prob := regional(t, 8, 1000, 10, 40)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	t.Logf("grouped %d clients into %d cohorts (%.1fx)", g.C(), g.K(), g.Ratio())

	s := lddm.New()
	s.MaxIters = 400
	res, err := s.Solve(g.Reduced())
	if err != nil {
		t.Fatalf("LDDM on reduced: %v", err)
	}
	x, err := g.Disaggregate(res.Assignment)
	if err != nil {
		t.Fatalf("Disaggregate: %v", err)
	}
	if err := g.Check(x, 1e-6); err != nil {
		t.Fatal(err)
	}

	// A loose duality-gap tolerance keeps the 1000-row reference solve
	// cheap; the acceptance bound is 5%, so a 0.5%-accurate reference
	// resolves it with margin.
	fw := &central.FrankWolfe{Tol: 5e-3}
	ref, err := fw.Solve(prob)
	if err != nil {
		t.Fatalf("Frank-Wolfe on ungrouped: %v", err)
	}
	gap := g.Gap(x, ref.Objective)
	t.Logf("cohort objective %.4f vs central ungrouped %.4f: gap %.3f%%",
		prob.Cost(x), ref.Objective, 100*gap)
	if gap > 0.05 {
		t.Fatalf("optimality gap %.2f%% exceeds 5%%", 100*gap)
	}
}

// TestCohortScale10k runs the 10k-client acceptance scenario end to end at
// cohort granularity. The centralized reference runs on the REDUCED
// instance: the objective depends on an assignment only through per-replica
// column sums, so homogeneous-mask cohorts achieve exactly the ungrouped
// optimum and the reduced reference IS the ungrouped reference (see the
// package comment; running Frank-Wolfe over 10k raw rows would measure the
// same number a hundred times slower).
func TestCohortScale10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-client scenario skipped in -short mode")
	}
	prob := regional(t, 9, 10000, 10, 50)
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	if g.Ratio() < 10 {
		t.Fatalf("compression ratio %.1fx < 10x at 10k clients / 50 regions (K=%d)", g.Ratio(), g.K())
	}
	t.Logf("grouped %d clients into %d cohorts (%.0fx)", g.C(), g.K(), g.Ratio())

	s := lddm.New()
	s.MaxIters = 400
	res, err := s.Solve(g.Reduced())
	if err != nil {
		t.Fatalf("LDDM on reduced: %v", err)
	}
	x, err := g.Disaggregate(res.Assignment)
	if err != nil {
		t.Fatalf("Disaggregate: %v", err)
	}
	if err := g.Check(x, 1e-6); err != nil {
		t.Fatal(err)
	}
	ref, err := central.NewFrankWolfe().Solve(g.Reduced())
	if err != nil {
		t.Fatalf("Frank-Wolfe on reduced: %v", err)
	}
	gap := g.Gap(x, ref.Objective)
	t.Logf("10k-client cohort objective %.4f vs reference %.4f: gap %.3f%%",
		prob.Cost(x), ref.Objective, 100*gap)
	if gap > 0.05 {
		t.Fatalf("optimality gap %.2f%% exceeds 5%%", 100*gap)
	}
}
