package main

import (
	"fmt"
	"time"

	"edr/internal/central"
	"edr/internal/cohort"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
)

// runCohortScale is the client-scale demo: generate a region-structured
// instance with the requested raw client count, push it through the
// cohort layer (group → reduced distributed-kernel solve → disaggregate),
// verify the per-client invariants, and report compression, timings, and
// the optimality gap against the centralized reference on the reduced
// instance. cohorts is "auto" (group by feasibility mask) or "off" (solve
// ungrouped — slow at scale, for comparison).
func runCohortScale(clients int, cohorts string, seed uint64) error {
	if clients <= 0 {
		return fmt.Errorf("cohort-scale: -clients must be positive, got %d", clients)
	}
	ungrouped := false
	switch cohorts {
	case "auto", "":
	case "off":
		ungrouped = true
	default:
		return fmt.Errorf("cohort-scale: -cohorts wants 'auto' or 'off', got %q", cohorts)
	}

	const replicas = 10
	regions := clients / 200
	if regions < 10 {
		regions = 10
	} else if regions > 500 {
		regions = 500
	}
	// Size demands so aggregate load sits near 30% of fleet bandwidth
	// regardless of scale — the client count grows, the cloud does not.
	mean := 0.3 * replicas * 100 / float64(clients)

	// Feasibility is checked on the REDUCED instance: for homogeneous-mask
	// cohorts the achievable column sums coincide with the ungrouped
	// instance's, so the max-flow oracle answers the same question at |K|
	// rows instead of |C| — at a million clients that is the difference
	// between microseconds and minutes.
	t0 := time.Now()
	r := sim.NewRand(seed)
	var prob *opt.Problem
	var g *cohort.Grouping
	for attempt := 0; ; attempt++ {
		p, err := probgen.New(r, probgen.Spec{
			Clients:  clients,
			Replicas: replicas,
			Regions:  regions,
			DemandLo: 0.5 * mean,
			DemandHi: 1.5 * mean,
		})
		if err != nil {
			return err
		}
		gg, err := cohort.Group(p, cohort.Options{})
		if err != nil {
			return err
		}
		if err := opt.CheckFeasible(gg.Reduced()); err == nil {
			prob, g = p, gg
			break
		} else if attempt >= 10 {
			return fmt.Errorf("cohort-scale: no feasible instance in %d draws: %w", attempt+1, err)
		}
	}
	fmt.Printf("cohort-scale: %d clients x %d replicas (%d regions) generated in %v\n",
		clients, replicas, regions, time.Since(t0).Round(time.Millisecond))

	mkSolver := func() *lddm.Solver { return &lddm.Solver{MaxIters: 400} }

	if ungrouped {
		t0 = time.Now()
		res, err := mkSolver().Solve(prob)
		if err != nil {
			return err
		}
		fmt.Printf("cohort-scale: ungrouped solve %v, objective %.4f (%d iterations, converged=%v)\n",
			time.Since(t0).Round(time.Millisecond), res.Objective, res.Iterations, res.Converged)
		return nil
	}

	fmt.Printf("cohort-scale: grouped to %d cohorts (%.0fx compression)\n", g.K(), g.Ratio())

	t0 = time.Now()
	res, err := mkSolver().Solve(g.Reduced())
	if err != nil {
		return err
	}
	solveTime := time.Since(t0)
	// Disaggregate through the packed path: gather the reduced solution
	// onto its sparsity support, expand cohort loads to members slot by
	// slot, and scatter to a dense matrix only for the final cost/invariant
	// reporting — no dense |K|x|N| or |C|x|N| intermediates in between.
	t0 = time.Now()
	fullSp, redSp := g.Sparse()
	packed, err := g.DisaggregatePacked(redSp.Gather(nil, res.Assignment), nil)
	if err != nil {
		return err
	}
	x := opt.NewMatrix(g.C(), prob.N())
	fullSp.Scatter(x, packed)
	disaggTime := time.Since(t0)
	if err := g.Check(x, 1e-6); err != nil {
		return fmt.Errorf("cohort-scale: invariants violated: %w", err)
	}

	// By the same column-sums argument, the reduced reference equals the
	// ungrouped optimum, so the gap below is a true end-to-end optimality
	// gap at a cost independent of raw client count.
	ref, err := central.NewFrankWolfe().Solve(g.Reduced())
	if err != nil {
		return err
	}
	gap := g.Gap(x, ref.Objective)
	fmt.Printf("cohort-scale: reduced solve %v + disaggregate %v; objective %.4f vs reference %.4f (gap %.3f%%)\n",
		solveTime.Round(time.Microsecond), disaggTime.Round(time.Microsecond),
		prob.Cost(x), ref.Objective, 100*gap)
	fmt.Printf("cohort-scale: per-client demand conserved exactly, zero load on latency-infeasible links\n")
	return nil
}
