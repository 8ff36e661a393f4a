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
// scaled dual u, followed by the dual update u ← u + (mean row sum − R/|N|).
// The subproblem has a closed-form answer in one scalar KKT multiplier
// (ProximalColumn), so a replica's step costs a bisection over O(|C|) sums.
// Communication per iteration is O(|C|·|N|) — the same as LDDM — but the
// quadratic proximal term damps the oscillation that constant-step dual
// ascent suffers from, so ADMM typically converges in far fewer
// iterations. The paper's future
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
// instance), so the proximal subproblems — the hot path: an O(len) sum per
// bisection step on the KKT multiplier — cost the column's nnz, and the
// per-client row sums walk CSR through PosCSC.
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
				out, err := ProximalColumn(prob.System.Replicas[j], capsPk[cs:ce], targetPk[cs:ce], rho)
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
// never appears. It is exported because the live runtime's ADMM rounds
// invoke it on each replica server (see round.go).
//
// The solve is exact, from the KKT conditions. Every entry answers one
// scalar multiplier λ the same way, z_c = clip(t_c − λ/ρ, 0, cap_c), so the
// column sum served(λ) is continuous and nonincreasing in λ. Stationarity
// asks λ = E′(served(λ)) — a unique root, since the left side rises and the
// right side falls in λ — unless served exceeds B there, in which case the
// capacity multiplier lifts λ to the root of served(λ) = B. Both conditions
// are monotone, so one bisection finds the larger of the two roots. It runs
// on the shift μ = λ/ρ, to the precision the entries can express, at O(m)
// per step with no allocation beyond the returned column.
func ProximalColumn(rep model.Replica, caps, target []float64, rho float64) ([]float64, error) {
	m := len(target)
	if len(caps) != m {
		return nil, fmt.Errorf("admm: proximal shape mismatch: %d targets, %d caps", m, len(caps))
	}
	if !(rho > 0) || math.IsInf(rho, 1) {
		return nil, fmt.Errorf("admm: rho %g is not positive and finite", rho)
	}
	// Bracket the shift: at lo every entry sits at its cap, so
	// ρ·lo ≤ E′(0) ≤ E′(Σcaps); at hi every entry is zero and ρ·hi ≥ E′(0).
	idle := rep.MarginalCost(0) / rho
	lo, hi := idle, idle
	capSum, scale := 0.0, 0.0
	for c, t := range target {
		u := caps[c]
		if math.IsNaN(t) || math.IsInf(t, 0) || !(u >= 0) || math.IsInf(u, 1) {
			return nil, fmt.Errorf("admm: proximal entry %d: target %g, cap %g", c, t, u)
		}
		lo = math.Min(lo, t-u)
		hi = math.Max(hi, t)
		capSum += u
		scale = math.Max(scale, math.Max(math.Abs(t), u))
	}
	z := make([]float64, m)
	if math.Min(rep.Bandwidth, capSum) <= 0 {
		return z, nil
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("admm: proximal bracket [%g, %g] is not finite", lo, hi)
	}
	served := func(mu float64) float64 {
		s := 0.0
		for c, t := range target {
			s += clip(t-mu, caps[c])
		}
		return s
	}
	// done(μ) holds from the optimal shift upward: the column fits B and
	// the proximal pull ρμ covers the marginal energy cost at its load.
	done := func(mu float64) bool {
		s := served(mu)
		return s <= rep.Bandwidth && rho*mu >= rep.MarginalCost(s)
	}
	// A shift finer than the entries' own rounding changes no entry.
	floor := 0x1p-52 * scale
	for hi-lo > floor {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if done(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	for c, t := range target {
		z[c] = clip(t-hi, caps[c])
	}
	return z, nil
}

// clip bounds v to [0, u] for finite v and u ≥ 0.
func clip(v, u float64) float64 {
	if v < 0 {
		return 0
	}
	if v > u {
		return u
	}
	return v
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
