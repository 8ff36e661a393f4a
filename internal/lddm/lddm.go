package lddm

import (
	"fmt"
	"slices"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver runs LDDM on one problem instance: the engine's round
// (round.go) driven over an in-process engine.Loopback, so it executes the
// loop a live fleet runs, with the settings below preset.
type Solver struct {
	// Step is the constant dual step d; 0 auto-scales it to the instance
	// (AutoStepValue) — the paper uses constant steps for both
	// algorithms "to guarantee the fairness of the comparison".
	Step float64
	// StepRamp tunes the auto-scaled step when Step is 0: the dual
	// multipliers reach working magnitude in roughly StepRamp iterations.
	// Smaller values converge faster but oscillate more. 0 means the
	// fleet's conservative 50; the Fig 5 convergence study uses 10.
	StepRamp float64
	// MaxIters bounds dual iterations; 0 means engine.DefaultMaxIters.
	MaxIters int
	// FeasibleHistory, when true, records History[k] as the cost of the
	// feasibility-repaired suffix average at iteration k — the objective a
	// deployment would obtain if it stopped there. This is the curve shown
	// in Fig 5; it costs one extra projection per iteration, so it is off
	// by default (the default history costs the suffix average itself, a
	// diagnostic only: it can violate capacity and dip below the feasible
	// optimum).
	FeasibleHistory bool
	// Tol declares convergence when the suffix-averaged primal iterate's
	// worst relative demand residual falls below Tol; 0 means the round's
	// 0.02 (see roundAlg.Converged).
	Tol float64
}

// New returns an LDDM solver with the defaults above.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "LDDM" }

// AutoStepValue returns a constant dual step scaled to the instance: the
// multipliers must travel to ≈ −marginalCost(typical load) while moving
// step·residual per iteration, so the step covers that distance in roughly
// rampIters iterations at typical residual magnitudes (≤ 0: the round's
// conservative 50).
func AutoStepValue(prob *opt.Problem, rampIters float64) float64 {
	totalDemand := 0.0
	for _, r := range prob.Demands {
		totalDemand += r
	}
	n := prob.N()
	typLoad := totalDemand / float64(n)
	meanMarginal := 0.0
	for _, rep := range prob.System.Replicas {
		meanMarginal += rep.MarginalCost(typLoad)
	}
	meanMarginal /= float64(n)
	meanDemand := totalDemand / float64(prob.C())
	if meanDemand <= 0 || meanMarginal <= 0 {
		return 0.01
	}
	if rampIters <= 0 {
		rampIters = 50
	}
	return meanMarginal / (rampIters * meanDemand)
}

// Solve implements solver.Solver.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) {
	lb, err := engine.NewLoopback(prob, s.MaxIters, s.Tol)
	if err != nil {
		return nil, err
	}
	alg := &roundAlg{step: s.Step}
	if alg.step <= 0 {
		alg.step = AutoStepValue(prob, s.StepRamp)
	}
	history := func(_ int, _, cost float64) float64 { return cost }
	var repairErr error
	if s.FeasibleHistory {
		history = func(k int, _, _ float64) float64 {
			repaired := slices.Clone(alg.Primal())
			if err := opt.ProjectFeasiblePacked(prob, repaired, 1e-4); err != nil && repairErr == nil {
				repairErr = fmt.Errorf("lddm: history repair at iteration %d: %w", k, err)
			}
			return prob.PackedCost(repaired)
		}
	}
	// Each iteration every replica receives the multipliers of the clients
	// it may serve and answers with their column entries: 2·nnz scalars,
	// O(|C|·|N|) (paper §III-D.2).
	nnz := prob.Sparsity().NNZ()
	res, err := lb.Solve(alg, solver.CommStats{Messages: 2 * nnz, Scalars: 2 * nnz}, history)
	if repairErr != nil {
		return nil, repairErr
	}
	return res, err
}
