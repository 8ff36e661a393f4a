package experiments

import (
	"fmt"

	"edr/internal/baseline"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/pricing"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
	"edr/internal/trace"
)

// Ablations goes beyond the paper's figures and sweeps the design-space
// knobs DESIGN.md calls out, reporting how much energy-aware scheduling
// actually buys as each varies:
//
//   - γ (network-energy degree): at γ=1 the objective is linear and
//     concentration is free; growing γ penalizes concentration and
//     shrinks the gap an optimizer can exploit.
//   - price spread: with uniform prices there is nothing to arbitrage;
//     savings grow with regional price dispersion.
//   - latency bound T: a tighter bound shrinks each client's feasible
//     set until the optimizer has no choices left.
//
// Each row reports the mean LDDM saving vs Round-Robin on the model
// objective over several random instances.
func Ablations(seed uint64) (*Result, error) {
	r := sim.NewRand(seed)
	const trials = 6

	gammaTab := trace.NewTable("ablation-gamma", "gamma", "lddm_saving_vs_rr_pct")
	for _, gamma := range []float64{1, 2, 3, 4} {
		saving, err := meanSaving(r.Split(), trials, probgen.Spec{
			Clients: 8, Replicas: 6, Gamma: gamma,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation γ=%g: %w", gamma, err)
		}
		if err := gammaTab.AddRow(gamma, saving); err != nil {
			return nil, err
		}
	}

	spreadTab := trace.NewTable("ablation-price-spread", "max_price", "lddm_saving_vs_rr_pct")
	spreads := []int{1, 2, 5, 10, 20}
	var spreadSavings []float64
	for _, maxP := range spreads {
		rs := r.Split()
		saving, err := meanSavingWith(rs, trials, func(rr *sim.Rand) probgen.Spec {
			prices := make([]float64, 6)
			for i := range prices {
				prices[i] = float64(rr.IntBetween(pricing.MinPrice, maxP))
			}
			return probgen.Spec{Clients: 8, Replicas: 6, Prices: prices}
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation spread %d: %w", maxP, err)
		}
		spreadSavings = append(spreadSavings, saving)
		if err := spreadTab.AddRow(maxP, saving); err != nil {
			return nil, err
		}
	}

	latencyTab := trace.NewTable("ablation-latency-bound", "bound_multiplier", "lddm_saving_vs_rr_pct", "feasible_fraction")
	for _, mult := range []float64{1.0, 2.0, 5.0} {
		rs := r.Split()
		savingSum, fracSum := 0.0, 0.0
		count := 0
		for trial := 0; trial < trials; trial++ {
			prob, err := probgen.MustFeasible(rs, probgen.Spec{Clients: 8, Replicas: 6, Geo: true})
			if err != nil {
				return nil, err
			}
			prob.MaxLatency *= mult
			if opt.CheckFeasible(prob) != nil {
				continue
			}
			saving, err := lddmSaving(prob)
			if err != nil {
				return nil, err
			}
			mask := prob.Allowed()
			feasible, totalLinks := 0, 0
			for c := range mask {
				for _, ok := range mask[c] {
					totalLinks++
					if ok {
						feasible++
					}
				}
			}
			savingSum += saving
			fracSum += float64(feasible) / float64(totalLinks)
			count++
		}
		if count == 0 {
			continue
		}
		if err := latencyTab.AddRow(mult, savingSum/float64(count), fracSum/float64(count)); err != nil {
			return nil, err
		}
	}

	res := &Result{
		ID:     "ablations",
		Tables: []*trace.Table{gammaTab, spreadTab, latencyTab},
		Notes: []string{
			"Savings are on the model objective (Eq. 1), mean over random instances per row.",
			"Price spread is the dominant lever: uniform prices leave nothing for an energy-aware scheduler to exploit.",
			"Loosening the latency bound grows each client's feasible set and with it the optimizer's advantage.",
		},
	}
	res.addSummary("spread_1_saving_pct", spreadSavings[0])
	res.addSummary("spread_20_saving_pct", spreadSavings[len(spreadSavings)-1])
	return res, nil
}

// lddmSaving returns the % model-cost saving of LDDM vs Round-Robin on
// one instance.
func lddmSaving(prob *opt.Problem) (float64, error) {
	ld, err := (&lddm.Solver{MaxIters: 3000, Tol: 0.01}).Solve(prob)
	if err != nil {
		return 0, err
	}
	rr, err := (baseline.RoundRobin{}).Solve(prob)
	if err != nil {
		return 0, err
	}
	if err := solver.Verify(prob, ld, 1e-3); err != nil {
		return 0, err
	}
	if rr.Objective <= 0 {
		return 0, nil
	}
	return 100 * (rr.Objective - ld.Objective) / rr.Objective, nil
}

// meanSaving averages lddmSaving over trials random instances of spec.
func meanSaving(r *sim.Rand, trials int, spec probgen.Spec) (float64, error) {
	return meanSavingWith(r, trials, func(*sim.Rand) probgen.Spec { return spec })
}

// meanSavingWith is meanSaving with a per-trial spec generator.
func meanSavingWith(r *sim.Rand, trials int, mkSpec func(*sim.Rand) probgen.Spec) (float64, error) {
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		prob, err := probgen.MustFeasible(r, mkSpec(r))
		if err != nil {
			return 0, err
		}
		saving, err := lddmSaving(prob)
		if err != nil {
			return 0, err
		}
		sum += saving
	}
	return sum / float64(trials), nil
}
