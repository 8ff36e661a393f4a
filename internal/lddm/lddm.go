package lddm

import (
	"fmt"
	"math"

	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver runs LDDM to convergence on one problem instance, simulating the
// replica/client message exchange in-process. (The live message-passing
// deployment is in internal/core; this solver is the shared engine.)
type Solver struct {
	// Step is the dual step size d; nil means a constant step auto-scaled
	// to the instance (see AutoStep) — the paper uses constant steps for
	// both algorithms "to guarantee the fairness of the comparison".
	Step opt.StepRule
	// StepRamp tunes the auto-scaled step when Step is nil: the dual
	// multipliers reach working magnitude in roughly StepRamp iterations
	// (see AutoStepScaled). 0 means the conservative default, 50.
	StepRamp float64
	// MaxIters bounds dual iterations; 0 means 3000.
	MaxIters int
	// FeasibleHistory, when true, records History[k] as the cost of the
	// feasibility-repaired suffix average at iteration k — the objective a
	// deployment would obtain if it stopped there. This is the curve shown
	// in Fig 5; it costs one extra projection per iteration, so it is off
	// by default (the default history records the cheap demand-normalized
	// iterate, a diagnostic only: that iterate can violate capacity and
	// dip below the feasible optimum).
	FeasibleHistory bool
	// Tol declares convergence when the suffix-averaged primal iterate's
	// worst relative demand residual falls below Tol; 0 means 0.01. The
	// raw dual iterates oscillate under a constant step (the water-filling
	// response to μ is discontinuous), so an average — not the raw
	// iterate — is the right thing to test, and it is also what the final
	// assignment is recovered from. Plain from-the-start averaging decays
	// only like burn-in/k, so the average restarts at powers of two
	// ("doubling suffix averaging"), discarding burn-in bias.
	Tol float64
	// Parallelism fans the per-replica local solves (disjoint primal
	// columns) and the recovery projections across cores: > 0 pins the
	// worker count, 0 sizes from GOMAXPROCS, < 0 forces serial. Parallel
	// and serial runs are bit-identical.
	Parallelism int
}

// New returns an LDDM solver with the defaults above.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "LDDM" }

// AutoStep returns a constant dual step scaled to the instance: the
// multipliers must travel to ≈ −marginalCost(typical load) while moving
// step·residual per iteration, so the step is chosen to cover that
// distance in roughly 50 iterations at typical residual magnitudes.
func AutoStep(prob *opt.Problem) opt.StepRule {
	return AutoStepScaled(prob, 50)
}

// AutoStepScaled is AutoStep with an explicit ramp length: the dual
// multipliers reach working magnitude in roughly rampIters iterations.
// Smaller values converge faster but oscillate more; the engine default
// of 50 is conservative, while the Fig 5 convergence experiment uses a
// more aggressive ramp.
func AutoStepScaled(prob *opt.Problem, rampIters float64) opt.StepRule {
	return opt.ConstantStep(autoStepValue(prob, rampIters))
}

// AutoStepValue is AutoStep's constant as a scalar, for the distributed
// round, which applies one constant step rather than evaluating a
// StepRule.
func AutoStepValue(prob *opt.Problem) float64 {
	return autoStepValue(prob, 50)
}

func autoStepValue(prob *opt.Problem, rampIters float64) float64 {
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

// DemandResidual returns the worst relative demand violation of x's row
// sums: max_c |Σ_n x[c][n] − R_c| / max(R_c, 1). rows is optional scratch
// of length len(x) (allocated when nil). The in-process solver and the
// distributed round's convergence test share this one definition, so the
// traced trajectory and the stopping rule can never drift apart.
func DemandResidual(x [][]float64, demands, rows []float64) float64 {
	if rows == nil {
		rows = make([]float64, len(x))
	}
	opt.RowSumsInto(rows, x)
	return maxRelResidual(rows, demands)
}

func maxRelResidual(rows, demands []float64) float64 {
	maxRel := 0.0
	for i, r := range rows {
		denom := demands[i]
		if denom < 1 {
			denom = 1
		}
		if rel := math.Abs(r-demands[i]) / denom; rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// Solve implements solver.Solver. The primal lives as a CSR vector over
// the latency-feasibility support (a fully-feasible instance is simply the
// density-1 case): each replica water-fills only its own client list, and
// the suffix averaging, μ updates and history cost O(nnz) per iteration.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, err
	}
	sp := prob.Sparsity()
	step := s.Step
	if step == nil {
		step = AutoStepScaled(prob, s.StepRamp)
	}
	maxIters := s.MaxIters
	if maxIters <= 0 {
		maxIters = 3000
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 0.01
	}

	c, n := prob.C(), prob.N()
	nnz := sp.NNZ()
	par := opt.NewParallel(s.Parallelism).Gate(nnz)

	mu := make([]float64, c)
	locals := make([]*LocalProblem, n)
	for j := 0; j < n; j++ {
		locals[j] = &LocalProblem{
			Replica: prob.System.Replicas[j],
			Mu:      mu, // shared slice: replicas read the latest multipliers
			Demands: prob.Demands,
			Clients: sp.RowIdx[sp.ColStart[j]:sp.ColStart[j+1]:sp.ColStart[j+1]],
		}
	}

	res := &solver.Result{}
	primal := make([]float64, nnz) // CSR layout
	avg := make([]float64, nnz)
	rows := make([]float64, c)
	loads := make([]float64, n)
	windowStart := 1

	for k := 1; k <= maxIters; k++ {
		// Each replica solves its local problem given the current μ
		// (Algorithm 2 line 4) and sends its column to the clients (line
		// 5): it reads the shared μ snapshot and writes only its own CSC
		// column slots, scattered into the CSR primal via PosCSR — disjoint
		// per replica, so the fan-out stays bit-identical.
		if err := par.ForBalancedErr(n, sp.ColStart, func(_, lo, hi int) error {
			for j := lo; j < hi; j++ {
				col, err := SolveLocal(locals[j])
				if err != nil {
					return fmt.Errorf("lddm: replica %d local solve: %w", j, err)
				}
				base := sp.ColStart[j]
				for idx, v := range col {
					primal[sp.PosCSR[base+idx]] = v
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// Each client updates its multiplier from its served total
		// (line 6): μ_c += d·(Σ_n p_{c,n} − R_c).
		d := step(k)
		packedRowSums(sp, primal, rows)
		for i := 0; i < c; i++ {
			mu[i] += d * (rows[i] - prob.Demands[i])
		}
		// Doubling suffix average: restart the window at powers of two,
		// then avg ← avg + (primal − avg)/w over the current window. Dual
		// gradient methods with constant steps oscillate around the
		// optimum; the window average converges, and restarting sheds
		// burn-in bias.
		if k == windowStart*2 {
			windowStart = k
			opt.VecFill(avg, 0)
		}
		w := k - windowStart + 1
		opt.VecScale(avg, float64(w-1)/float64(w))
		opt.VecAXPY(avg, 1/float64(w), primal)

		// Convergence test on the averaged iterate's demand residuals —
		// only once the window is wide enough to have smoothed the
		// oscillation.
		maxRel := math.Inf(1)
		if w >= 64 {
			packedRowSums(sp, avg, rows)
			maxRel = maxRelResidual(rows, prob.Demands)
		}

		// Communication accounting (paper §III-D.2): each iteration every
		// replica exchanges its column entries with the clients it may
		// serve and receives their multipliers → 2·nnz scalars, which is
		// O(|C|·|N|).
		res.Comm.Messages += 2 * nnz
		res.Comm.Scalars += 2 * nnz
		res.Iterations = k

		if s.FeasibleHistory {
			repaired := opt.NewMatrix(c, n)
			sp.Scatter(repaired, avg)
			if err := opt.ProjectFeasiblePar(prob, repaired, 1e-4, par); err != nil {
				return nil, fmt.Errorf("lddm: history repair at iteration %d: %w", k, err)
			}
			res.History = append(res.History, prob.Cost(repaired))
		} else {
			res.History = append(res.History, packedNormalizedCost(prob, sp, primal, rows, loads))
		}

		if maxRel <= tol {
			res.Converged = true
			break
		}
	}

	// Primal recovery: start from the ergodic average and repair
	// feasibility exactly (constant-step dual iterates are near- but not
	// exactly feasible).
	final := opt.NewMatrix(c, n)
	sp.Scatter(final, avg)
	if err := opt.ProjectFeasiblePar(prob, final, 1e-6, par); err != nil {
		return nil, fmt.Errorf("lddm: primal recovery: %w", err)
	}
	res.Assignment = final
	res.Objective = prob.Cost(final)
	return res, nil
}

// packedRowSums writes each client's served total Σ_n v_{c,n} of a
// CSR-packed vector into rows, accumulating in ascending replica order.
func packedRowSums(sp *opt.Sparsity, v, rows []float64) {
	for c := 0; c < sp.C; c++ {
		s := 0.0
		for k := sp.RowStart[c]; k < sp.RowStart[c+1]; k++ {
			s += v[k]
		}
		rows[c] = s
	}
}

// packedNormalizedCost costs the iterate with each client's row rescaled
// toward its demand, so intermediate dual iterates are costed on a
// comparable footing (rows currently at zero are left alone — their cost
// contribution is zero anyway). Per-replica loads accumulate in row-major
// order, the order prob.Cost walks a dense matrix.
func packedNormalizedCost(prob *opt.Problem, sp *opt.Sparsity, v, rows, loads []float64) float64 {
	packedRowSums(sp, v, rows)
	for n := range loads {
		loads[n] = 0
	}
	for c := 0; c < sp.C; c++ {
		scale := 1.0
		if rows[c] > 1e-12 {
			scale = prob.Demands[c] / rows[c]
		}
		for k := sp.RowStart[c]; k < sp.RowStart[c+1]; k++ {
			loads[sp.ColIdx[k]] += v[k] * scale
		}
	}
	return prob.System.CostOfLoads(loads)
}
