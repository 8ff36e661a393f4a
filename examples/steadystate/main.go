// Steady state: a day of continuous EDR operation on the virtual-time
// simulator. A YouTube-patterned request stream arrives on the virtual
// clock; every scheduling window the pending batch is optimized with LDDM
// and played onto the simulated SystemG cluster; the Dominion-PX-style
// meters integrate each replica's energy, and the day's bill is compared
// against Round-Robin — the paper's Fig 3→8 pipeline, end to end, on one
// virtual timeline.
//
//	go run ./examples/steadystate
package main

import (
	"fmt"
	"log"
	"time"

	"edr/internal/baseline"
	"edr/internal/cluster"
	"edr/internal/experiments"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/power"
	"edr/internal/pricing"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
	"edr/internal/workload"
)

func main() {
	r := sim.NewRand(2013)
	prices := pricing.PaperFigure6Prices()

	// One day of DFS traffic, scheduled every 10 minutes.
	trace, err := workload.Generate(r, workload.Config{
		App:             workload.DFS,
		Clients:         12,
		MeanRatePerHour: 240,
		Duration:        24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	const window = 10 * time.Minute
	windows := workload.Window(trace, sim.Epoch, window, int(24*time.Hour/window))
	fmt.Printf("day of traffic: %d requests, %.0f MB; %d scheduling windows\n\n",
		len(trace), workload.TotalMB(trace), len(windows))

	for _, algo := range []struct {
		name  string
		solve solver.Solver
	}{
		{"LDDM", lddm.New()},
		{"Round-Robin", baseline.RoundRobin{}},
	} {
		var probs []*opt.Problem
		var results []*solver.Result
		skipped := 0
		gen := sim.NewRand(99) // identical topologies for both schedulers
		for _, batch := range windows {
			if len(batch) == 0 {
				continue
			}
			prob, err := probgen.FromBatch(gen, batch, len(prices), prices, true)
			if err != nil {
				log.Fatal(err)
			}
			if opt.CheckFeasible(prob) != nil {
				skipped++
				continue
			}
			res, err := algo.solve.Solve(prob)
			if err != nil {
				log.Fatal(err)
			}
			probs = append(probs, prob)
			results = append(results, res)
		}
		cl := cluster.NewSystemG(len(prices))
		start, end, joules, err := experiments.PlaySchedule(cl, experiments.DefaultTiming(), probs, results, algo.name)
		if err != nil {
			log.Fatal(err)
		}
		totalJ, totalCost := 0.0, 0.0
		for j, e := range joules {
			totalJ += e
			totalCost += power.CostCents(e, prices[j])
		}
		fmt.Printf("%-12s %3d rounds (%d windows infeasible), %v metered: %8.0f J, %.4f ¢\n",
			algo.name, len(probs), skipped, end.Sub(start).Round(time.Second), totalJ, totalCost)
	}
	fmt.Println("\nThe energy-aware day costs less even though both schedulers move the")
	fmt.Println("same bytes: the savings come entirely from *where* the bytes are served.")
}
