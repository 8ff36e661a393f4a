package opt

import (
	"fmt"
	"math"
)

// Projected gradient descent on the full problem. This is the centralized
// reference method: every distributed algorithm in the module is validated
// against its output (and, at small sizes, against brute-force grids in
// tests).

// StepRule selects the step size for iteration k (1-based).
type StepRule func(k int) float64

// DiminishingStep returns d/√k, the classic divergent-series rule with
// guaranteed subgradient-method convergence.
func DiminishingStep(d float64) StepRule {
	if d <= 0 {
		panic(fmt.Sprintf("opt: non-positive diminishing step %g", d))
	}
	return func(k int) float64 { return d / math.Sqrt(float64(k)) }
}

// PGDOptions configures ProjectedGradient.
type PGDOptions struct {
	// MaxIters bounds gradient iterations. Default 2000.
	MaxIters int
	// Step selects step sizes. Default DiminishingStep(1), which is
	// unscaled: a 1 MB first step regardless of the instance's demands and
	// curvature, so it zig-zags to MaxIters on instances far from unit
	// scale. Callers should pass a rule scaled to their instance, as
	// central.autoStep does.
	Step StepRule
	// Tol declares convergence when the iterate moves less than Tol
	// (Frobenius) in one step. Default 1e-8.
	Tol float64
	// ProjectTol is the feasibility tolerance passed to ProjectFeasible.
	// Default 1e-6.
	ProjectTol float64
	// OnIteration, when non-nil, observes (k, objective) after each
	// iteration — used to record convergence curves (Fig 5).
	OnIteration func(k int, objective float64)
}

func (o *PGDOptions) defaults() {
	if o.MaxIters <= 0 {
		o.MaxIters = 2000
	}
	if o.Step == nil {
		o.Step = DiminishingStep(1)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.ProjectTol <= 0 {
		o.ProjectTol = 1e-6
	}
}

// PGDResult reports the outcome of a ProjectedGradient run.
type PGDResult struct {
	// X is the final assignment matrix.
	X [][]float64
	// Objective is the final cost E_g(X).
	Objective float64
	// Iterations is the number of gradient steps taken.
	Iterations int
	// Converged reports whether the movement tolerance was reached before
	// the iteration bound.
	Converged bool
}

// ProjectedGradient minimizes prob's objective over its feasible region
// starting from x0 (which may be infeasible; it is projected first).
// x0 is not modified.
func ProjectedGradient(prob *Problem, x0 [][]float64, opts PGDOptions) (*PGDResult, error) {
	opts.defaults()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	x := Clone(x0)
	if err := ProjectFeasible(prob, x, opts.ProjectTol); err != nil {
		return nil, fmt.Errorf("opt: pgd initial projection: %w", err)
	}
	prev := NewMatrix(len(x), len(x[0]))
	res := &PGDResult{}
	for k := 1; k <= opts.MaxIters; k++ {
		Copy(prev, x)
		g := prob.Gradient(x)
		AXPY(x, -opts.Step(k), g)
		if err := ProjectFeasible(prob, x, opts.ProjectTol); err != nil {
			return nil, fmt.Errorf("opt: pgd projection at iteration %d: %w", k, err)
		}
		res.Iterations = k
		if opts.OnIteration != nil {
			opts.OnIteration(k, prob.Cost(x))
		}
		if Dist(prev, x) <= opts.Tol {
			res.Converged = true
			break
		}
	}
	res.X = x
	res.Objective = prob.Cost(x)
	return res, nil
}
