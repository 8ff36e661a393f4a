package experiments

import (
	"fmt"
	"time"

	"edr/internal/baseline"
	"edr/internal/cdpsm"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
	"edr/internal/workload"
)

// paperRounds generates a sequence of scheduling-round problem instances
// from a YouTube-patterned trace of the given application: the trace is
// cut into fixed windows, each window's requests aggregate into per-client
// demands, and each non-empty window becomes one instance over the same
// 8-replica (or given-price) fleet.
func paperRounds(r *sim.Rand, app workload.Application, prices []float64, rounds, clients int) ([]*opt.Problem, error) {
	// Rate chosen so a typical window's total demand (~200 MB) leaves the
	// optimizers free to abandon expensive replicas entirely — the paper's
	// "replica 3 and 5 have never been selected" regime — while capacity
	// still binds on popular cheap replicas.
	perHour := 120.0
	if app == workload.DFS {
		perHour = 1200
	}
	window := time.Minute
	trace, err := workload.Generate(r, workload.Config{
		App:             app,
		Clients:         clients,
		MeanRatePerHour: perHour,
		Duration:        time.Duration(rounds*4) * window,
	})
	if err != nil {
		return nil, err
	}
	windows := workload.Window(trace, sim.Epoch, window, rounds*4)
	var probs []*opt.Problem
	for _, batch := range windows {
		if len(batch) == 0 {
			continue
		}
		// Geo topology: each client is near one region and beyond the
		// latency bound for some replicas — the paper's runs likewise mix
		// the price signal with bandwidth caps and network latency ("but
		// also related to the bandwidth cap and network latency").
		prob, err := probgen.FromBatch(r, batch, len(prices), prices, true)
		if err != nil {
			return nil, err
		}
		if opt.CheckFeasible(prob) != nil {
			continue // rare oversized window: skip rather than distort
		}
		probs = append(probs, prob)
		if len(probs) == rounds {
			break
		}
	}
	if len(probs) == 0 {
		return nil, fmt.Errorf("experiments: workload produced no feasible rounds")
	}
	return probs, nil
}

// newSolver builds the named scheduler with a shared iteration budget and
// the per-algorithm constant steps used throughout the evaluation — the
// paper's fairness condition (constant steps for both methods, same
// iteration bound). The step values are the ones the Fig 5 convergence
// study is run with, so every experiment sees the same algorithms.
func newSolver(algo string, budget int) (solver.Solver, error) {
	switch algo {
	case "LDDM":
		return &lddm.Solver{MaxIters: budget, StepRamp: 10, Tol: 0.01}, nil
	case "CDPSM":
		return &cdpsm.Solver{MaxIters: budget, Step: 0.0005, Tol: 1e-6}, nil
	case "Round-Robin":
		return baseline.RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheduler %q", algo)
	}
}

// solveAll runs one scheduler over every round instance.
func solveAll(probs []*opt.Problem, algo string, budget int) ([]*solver.Result, error) {
	s, err := newSolver(algo, budget)
	if err != nil {
		return nil, err
	}
	results := make([]*solver.Result, len(probs))
	for i, prob := range probs {
		res, err := s.Solve(prob)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on round %d: %w", algo, i, err)
		}
		if err := solver.Verify(prob, res, 1e-3); err != nil {
			return nil, fmt.Errorf("experiments: %s round %d: %w", algo, i, err)
		}
		results[i] = res
	}
	return results, nil
}

// schedulers is the paper's Fig 6-8 lineup.
var schedulers = []string{"LDDM", "CDPSM", "Round-Robin"}
