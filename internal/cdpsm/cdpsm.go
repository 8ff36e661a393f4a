// Package cdpsm implements the consensus-based distributed projected
// subgradient method (paper Algorithm 1, after Nedić, Ozdaglar & Parrilo,
// "Constrained consensus and optimization in multi-agent networks", IEEE
// TAC 2010), adapted to the EDR replica-selection problem.
//
// Every replica (agent) i keeps its own estimate P^i of the *entire*
// solution matrix. One iteration per agent:
//
//  1. collect the current estimates P^j of all other replicas,
//  2. consensus:  V^i = Σ_j a_j · P^j   with uniform weights a_j = 1/|N|,
//  3. gradient step on the local objective E_i (which depends only on
//     column i of P):  P^i ← V^i − d_k · ∇E_i(V^i),
//  4. projection onto the agent's local constraint set P_i.
//
// The local constraint sets used here are
//
//	P_i = { P : Σ_n p_{c,n} = R_c ∀c (box/mask) } ∩ { Σ_c p_{c,i} ≤ B_i }
//
// — every agent enforces the shared demand constraints plus its *own*
// capacity; the intersection over all agents is exactly the global
// feasible region of Eq. 2, the setting in which the N-O-P method
// provably converges to a common minimizer of Σ_i E_i.
//
// Because the objective is differentiable (a degree-γ polynomial), the
// gradient is used as the subgradient, as the paper notes.
package cdpsm

import (
	"math"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver runs CDPSM on one problem instance: the engine's round (round.go)
// driven over an in-process engine.Loopback, so it executes the loop a live
// fleet runs, with the settings below preset.
type Solver struct {
	// Step is the constant step size d_k; 0 means DefaultStep, the fleet's.
	// The paper's experiments run 5·10⁻⁴.
	Step float64
	// MaxIters bounds consensus iterations; 0 means
	// engine.DefaultMaxIters.
	MaxIters int
	// Tol declares convergence when no replica's estimate moved more than
	// Tol (Frobenius) in one iteration; 0 means the round's 1e-3.
	Tol float64
}

// New returns a CDPSM solver with the defaults above.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "CDPSM" }

// DefaultStep is the constant step size used when none is configured.
const DefaultStep = 0.05

// gradientStep takes agent i's step v ← v − d·∇E_i(v) in place on packed
// v. E_i depends on column i only, so exactly the column's supported
// entries move, each by −d·u_i·(α_i + β_i·γ_i·(Σ_c v_{c,i})^{γ_i−1}).
func gradientStep(prob *opt.Problem, agent int, v []float64, step float64) {
	sp := prob.Sparsity()
	col := sp.PosCSR[sp.ColStart[agent]:sp.ColStart[agent+1]]
	load := 0.0
	for _, k := range col {
		load += v[k]
	}
	if load < 0 {
		load = 0
	}
	move := -step * prob.System.Replicas[agent].MarginalCost(load)
	for _, k := range col {
		v[k] += move
	}
}

// Solve implements solver.Solver.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) { return s.solve(prob, nil) }

// solve runs Solve's round with carry as the loopback's carrier.
func (s *Solver) solve(prob *opt.Problem, carry engine.Carrier) (*solver.Result, error) {
	lb, err := engine.NewLoopback(prob, s.MaxIters, s.Tol, carry)
	if err != nil {
		return nil, err
	}
	// History records the objective of the replicas' mean estimate, the
	// common point they are converging to.
	alg := &roundAlg{step: s.Step}
	mean := make([]float64, prob.Sparsity().NNZ())
	history := func(int, float64, float64) float64 {
		average(mean, alg.ests, 0) // column order
		return prob.PackedCost(mean)
	}
	// The declared communication is the paper's peer exchange (§III-D.1),
	// the count Fig 5 reproduces, not the fleet's: each iteration every
	// replica pulls the |N|−1 other estimates of nnz ≤ |C|·|N| supported
	// scalars, O(|C|·|N|³) system-wide. The fleet averages at the
	// initiator and moves 2|N| vectors of nnz scalars instead.
	n, nnz := prob.N(), prob.Sparsity().NNZ()
	peers := n * (n - 1)
	return lb.Solve(alg, solver.CommStats{Messages: peers, Scalars: peers * nnz}, history)
}

// newLocalProjector builds agent i's packed local-set projector: every
// client row plus the agent's own capacity halfspace (other columns are
// unconstrained in P_i, encoded as +Inf bounds the projector skips in
// O(1)).
func newLocalProjector(prob *opt.Problem, sp *opt.Sparsity, agent int) *opt.SparseProjector {
	bounds := make([]float64, sp.N)
	for n := range bounds {
		bounds[n] = math.Inf(1)
	}
	bounds[agent] = prob.System.Replicas[agent].Bandwidth
	return opt.NewSparseProjector(sp, prob.Demands, bounds)
}
