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
// (ProximalShift), so a replica's step costs a bisection over O(|C|) sums
// and its answer is that one scalar: the initiator rebuilds the column
// from it (ProximalColumn). Communication per iteration is O(nnz) out —
// each replica's targets over its feasible clients — and O(|N|) back, one
// shift a replica. The quadratic proximal term damps the oscillation that
// constant-step dual ascent suffers from, so ADMM typically converges in
// far fewer iterations than LDDM. The paper's future
// work invites "more restrictions"; ADMM is also the standard route to
// adding non-smooth ones (e.g. switching penalties) later.
package admm

import (
	"fmt"
	"math"

	"edr/internal/engine"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver runs sharing-ADMM on one problem instance: the engine's round
// (round.go) driven over an in-process engine.Loopback, so it executes the
// loop a live fleet runs. The penalty ρ is auto-scaled to the instance
// (meanMarginal/meanDemand, the units that make the proximal and energy
// terms comparable).
type Solver struct {
	// MaxIters bounds ADMM iterations; 0 means engine.DefaultMaxIters.
	MaxIters int
	// Tol declares convergence when the primal residual max_c |Σ_n z_{c,n}
	// − R_c| falls below Tol·(1+‖R‖); 0 means the round's 1e-3.
	Tol float64
}

// New returns an ADMM solver with defaults.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "ADMM" }

// Solve implements solver.Solver.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) {
	lb, err := engine.NewLoopback(prob, s.MaxIters, s.Tol)
	if err != nil {
		return nil, err
	}
	// Like LDDM, each replica exchanges its per-client contributions with
	// the feasible clients holding the dual: 2·nnz scalars per iteration,
	// O(|C|·|N|).
	nnz := prob.Sparsity().NNZ()
	return lb.Solve(&roundAlg{}, solver.CommStats{Messages: 2 * nnz, Scalars: 2 * nnz},
		func(_ int, _, cost float64) float64 { return cost })
}

// ProximalShift solves one replica's ADMM subproblem
//
//	min_{z ∈ X}  E(Σ z) + (ρ/2)‖z − target‖²
//	X = {0 ≤ z ≤ caps, Σz ≤ B}
//
// over the replica's feasible clients only: target and caps hold one entry
// per client within its latency bound, so the mask never appears. It
// returns the optimal shift s, from which ProximalColumn rebuilds the
// column. It is exported because the live runtime's ADMM rounds invoke it
// on each replica server (see round.go).
//
// The solve is exact, from the KKT conditions. Every entry answers one
// scalar multiplier λ the same way, z_c = clip(t_c − λ/ρ, 0, cap_c), so the
// column sum served(λ) is continuous and nonincreasing in λ. Stationarity
// asks λ = E′(served(λ)) — a unique root, since the left side rises and the
// right side falls in λ — unless served exceeds B there, in which case the
// capacity multiplier lifts λ to the root of served(λ) = B. Both conditions
// are monotone, so one bisection finds the larger of the two roots. It runs
// on the shift s = λ/ρ, to the precision the entries can express, at O(m)
// per step with no allocation. When nothing fits (min(B, Σcaps) ≤ 0) the
// shift is +Inf, which clips every entry to +0.
func ProximalShift(rep model.Replica, caps, target []float64, rho float64) (float64, error) {
	if len(caps) != len(target) {
		return 0, fmt.Errorf("admm: proximal shape mismatch: %d targets, %d caps", len(target), len(caps))
	}
	if !(rho > 0) || math.IsInf(rho, 1) {
		return 0, fmt.Errorf("admm: rho %g is not positive and finite", rho)
	}
	// Bracket the shift: at lo every entry sits at its cap, so
	// ρ·lo ≤ E′(0) ≤ E′(Σcaps); at hi every entry is zero and ρ·hi ≥ E′(0).
	idle := rep.MarginalCost(0) / rho
	lo, hi := idle, idle
	capSum, scale := 0.0, 0.0
	for c, t := range target {
		u := caps[c]
		if math.IsNaN(t) || math.IsInf(t, 0) || !(u >= 0) || math.IsInf(u, 1) {
			return 0, fmt.Errorf("admm: proximal entry %d: target %g, cap %g", c, t, u)
		}
		lo = math.Min(lo, t-u)
		hi = math.Max(hi, t)
		capSum += u
		scale = math.Max(scale, math.Max(math.Abs(t), u))
	}
	if math.Min(rep.Bandwidth, capSum) <= 0 {
		return math.Inf(1), nil
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return 0, fmt.Errorf("admm: proximal bracket [%g, %g] is not finite", lo, hi)
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
	return hi, nil
}

// ProximalColumn writes into z the column the shift s answers,
// z_c = clip(target_c − s, 0, cap_c). The replica's solve and the
// initiator's rebuild of its reply both run this loop, so the two agree
// bit for bit.
func ProximalColumn(z, caps, target []float64, s float64) {
	for c, t := range target {
		z[c] = clip(t-s, caps[c])
	}
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
