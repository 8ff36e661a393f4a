// Package admm implements a third distributed optimizer for the EDR
// replica-selection problem, beyond the paper's two: the alternating
// direction method of multipliers in its "sharing" form (Boyd et al.,
// Foundations & Trends in ML 2011, §7.3).
//
// Each replica n owns its column z_n ∈ R^{|C|} with the purely local
// constraint set X_n = {0 ≤ z ≤ R, Σ_c z ≤ B_n, latency mask}; the demand
// constraints couple the columns through Σ_n z_n = R. ADMM splits the
// problem so that per iteration every replica solves a small proximal
// subproblem
//
//	z_n ← argmin_{z ∈ X_n}  E_n(Σ_c z_c) + (ρ/2)·‖z − t_n‖²
//
// against a target t_n assembled from the current row residuals and the
// scaled dual u (held, like LDDM's μ, by the clients), followed by the
// dual update u ← u + (mean row sum − R/|N|). Communication per iteration
// is O(|C|·|N|) — the same as LDDM — but the quadratic proximal term
// damps the oscillation that constant-step dual ascent suffers from, so
// ADMM typically converges in far fewer iterations. The paper's future
// work invites "more restrictions"; ADMM is also the standard route to
// adding non-smooth ones (e.g. switching penalties) later.
package admm

import (
	"fmt"
	"math"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver runs sharing-ADMM on one problem instance.
type Solver struct {
	// Rho is the augmented-Lagrangian penalty; 0 means auto-scaled to
	// meanMarginal/meanDemand (the units that make the proximal and
	// energy terms comparable).
	Rho float64
	// MaxIters bounds ADMM iterations; 0 means 500.
	MaxIters int
	// Tol declares convergence when both the primal residual
	// ‖Σ_n z_n − R‖/(1+‖R‖) and the dual residual ρ·‖avg − prevAvg‖ scaled
	// the same way fall below Tol; 0 means 1e-4.
	Tol float64
	// LocalIters bounds the 1-D ternary-search steps of each proximal
	// subproblem (each step costs two slice projections); 0 means 40.
	LocalIters int
	// Parallelism fans the per-replica proximal solves (disjoint z rows)
	// across cores: > 0 pins the worker count, 0 sizes from GOMAXPROCS,
	// < 0 forces serial. Parallel and serial runs are bit-identical.
	Parallelism int
}

// New returns an ADMM solver with defaults.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "ADMM" }

// Solve implements solver.Solver. Each replica's column z_n lives as a CSC
// slice over its feasible client list (every client on a fully-feasible
// instance), so the proximal subproblems — the hot path: two
// O(len log len) slice projections per ternary-search step — cost the
// column's nnz, and the per-client row sums walk CSR through PosCSC.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, err
	}
	sp := prob.Sparsity()
	c, n := prob.C(), prob.N()
	nnz := sp.NNZ()
	rho := s.Rho
	if rho <= 0 {
		rho = autoRho(prob)
	}
	maxIters := s.MaxIters
	if maxIters <= 0 {
		maxIters = 500
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	localIters := s.LocalIters
	if localIters <= 0 {
		localIters = 40
	}

	par := opt.NewParallel(s.Parallelism).Gate(nnz)
	zp := make([]float64, nnz)       // CSC layout
	capsPk := make([]float64, nnz)   // packed caps: client demand per slot
	targetPk := make([]float64, nnz) // packed proximal targets, same layout
	for k, i := range sp.RowIdx {
		capsPk[k] = prob.Demands[i]
	}
	u := make([]float64, c)
	share := make([]float64, c)
	for i := 0; i < c; i++ {
		share[i] = prob.Demands[i] / float64(n)
	}
	rowAvg := make([]float64, c)
	prevAvg := make([]float64, c)
	rows := make([]float64, c)

	demandNorm := 0.0
	for _, d := range prob.Demands {
		demandNorm += d * d
	}
	demandNorm = math.Sqrt(demandNorm)

	// rowSums accumulates each client's Σ_n z_{c,n} in ascending replica
	// order by walking the CSR index through PosCSC.
	rowSums := func(dst []float64) {
		for i := 0; i < sp.C; i++ {
			sum := 0.0
			for k := sp.RowStart[i]; k < sp.RowStart[i+1]; k++ {
				sum += zp[sp.PosCSC[k]]
			}
			dst[i] = sum
		}
	}

	res := &solver.Result{}
	for k := 1; k <= maxIters; k++ {
		res.Iterations = k
		copy(prevAvg, rowAvg)
		rowSums(rowAvg)
		for i := 0; i < c; i++ {
			rowAvg[i] /= float64(n)
		}
		// Each replica's proximal solve against its target; columns are
		// disjoint CSC ranges, so the fan-out is bit-identical to the serial
		// sweep. The target build writes the shared packed vector but only
		// this column's slots.
		if err := par.ForBalancedErr(n, sp.ColStart, func(_, lo, hi int) error {
			for j := lo; j < hi; j++ {
				cs, ce := sp.ColStart[j], sp.ColStart[j+1]
				for k := cs; k < ce; k++ {
					i := sp.RowIdx[k]
					targetPk[k] = zp[k] - rowAvg[i] + share[i] - u[i]
				}
				out, err := ProximalColumn(prob.System.Replicas[j], capsPk[cs:ce], targetPk[cs:ce], rho, localIters)
				if err != nil {
					return fmt.Errorf("admm: replica %d proximal: %w", j, err)
				}
				copy(zp[cs:ce], out)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// Dual update from the fresh row sums (rowAvg keeps the
		// pre-proximal averages for the dual residual).
		maxPrimal := 0.0
		rowSums(rows)
		for i := 0; i < c; i++ {
			avg := rows[i] / float64(n)
			u[i] += avg - share[i]
			if r := math.Abs(rows[i] - prob.Demands[i]); r > maxPrimal {
				maxPrimal = r
			}
		}
		// Communication accounting: like LDDM, each replica exchanges its
		// per-client contributions with the feasible clients holding the
		// dual: 2·nnz scalars per iteration, which is O(|C|·|N|).
		res.Comm.Messages += 2 * nnz
		res.Comm.Scalars += 2 * nnz

		// Residual-based stopping (Boyd §3.3): primal ‖Σz − R‖, dual
		// ρ·‖avg − prevAvg‖, both relative to the demand scale.
		dual := 0.0
		for i := 0; i < c; i++ {
			d := rowAvg[i] - prevAvg[i]
			dual += d * d
		}
		dual = rho * math.Sqrt(dual) * float64(n)
		res.History = append(res.History, maxPrimal)
		if maxPrimal <= tol*(1+demandNorm) && dual <= tol*(1+demandNorm) {
			res.Converged = true
			break
		}
	}

	// Scatter the packed columns into client×replica form and polish
	// exactly feasible.
	x := opt.NewMatrix(c, n)
	for j := 0; j < n; j++ {
		for k := sp.ColStart[j]; k < sp.ColStart[j+1]; k++ {
			x[sp.RowIdx[k]][j] = zp[k]
		}
	}
	if err := opt.ProjectFeasiblePar(prob, x, 1e-6, par); err != nil {
		return nil, fmt.Errorf("admm: final polish: %w", err)
	}
	res.Assignment = x
	res.Objective = prob.Cost(x)
	return res, nil
}

// ProximalColumn solves one replica's ADMM subproblem
//
//	min_{z ∈ X}  E(Σ z) + (ρ/2)‖z − target‖²
//	X = {0 ≤ z ≤ caps, Σz ≤ B}
//
// over the replica's feasible clients only: target, caps and the returned
// column hold one entry per client within its latency bound, so the mask
// never appears. It is exact up to a 1-D tolerance by exploiting the
// problem's structure: for a fixed column sum S, the optimal z is the
// Euclidean projection of the target onto the slice {0 ≤ z ≤ caps, Σz = S},
// so the whole subproblem reduces to minimizing the convex value function
//
//	h(S) = E(S) + (ρ/2)·dist²(target, slice_S)
//
// over S ∈ [0, min(B, Σcaps)] by ternary search with `iters` steps. It is
// exported because the live runtime's ADMM rounds invoke it on each
// replica server (see round.go).
func ProximalColumn(rep model.Replica, caps, target []float64, rho float64, iters int) ([]float64, error) {
	m := len(target)
	if len(caps) != m {
		return nil, fmt.Errorf("admm: proximal shape mismatch: %d targets, %d caps", m, len(caps))
	}
	if rho <= 0 {
		return nil, fmt.Errorf("admm: non-positive rho %g", rho)
	}
	if iters <= 0 {
		iters = 40
	}
	capSum := 0.0
	for _, u := range caps {
		capSum += u
	}
	z := make([]float64, m)
	maxS := math.Min(rep.Bandwidth, capSum)
	if maxS <= 0 {
		return z, nil
	}
	probe := make([]float64, m)
	eval := func(S float64) (float64, error) {
		copy(probe, target)
		if err := opt.ProjectCappedSimplex(probe, caps, S); err != nil {
			return 0, err
		}
		d := 0.0
		for i := 0; i < m; i++ {
			diff := probe[i] - target[i]
			d += diff * diff
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
	best := (lo + hi) / 2
	copy(z, target)
	if err := opt.ProjectCappedSimplex(z, caps, best); err != nil {
		return nil, err
	}
	return z, nil
}

// autoRho scales the penalty so the proximal and energy gradients are
// commensurate: ρ ≈ marginal cost at typical load / typical demand.
func autoRho(prob *opt.Problem) float64 {
	total := 0.0
	for _, d := range prob.Demands {
		total += d
	}
	n := prob.N()
	typLoad := total / float64(n)
	meanMarginal := 0.0
	for _, rep := range prob.System.Replicas {
		meanMarginal += rep.MarginalCost(typLoad)
	}
	meanMarginal /= float64(n)
	meanDemand := total / float64(prob.C())
	if meanDemand <= 0 || meanMarginal <= 0 {
		return 1
	}
	return meanMarginal / meanDemand
}
