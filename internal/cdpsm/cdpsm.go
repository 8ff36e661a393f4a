// Package cdpsm implements the consensus-based distributed projected
// subgradient method (paper Algorithm 1, after Nedić, Ozdaglar & Parrilo,
// "Constrained consensus and optimization in multi-agent networks", IEEE
// TAC 2010), adapted to the EDR replica-selection problem.
//
// Every replica (agent) i keeps its own estimate P^i of the *entire*
// solution matrix. One iteration per agent:
//
//  1. collect the current estimates P^j of all other replicas,
//  2. consensus:  V^i = Σ_j a_j · P^j   with weights Σ a_j = 1,
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
	"fmt"
	"math"

	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver runs CDPSM to convergence on one problem instance, simulating the
// N cooperating replicas in-process. (The live message-passing deployment
// of the same iteration is in internal/core; this solver is the
// algorithmic engine both share.)
type Solver struct {
	// Step is the step size d_k; nil means the paper's constant step,
	// 0.05.
	Step opt.StepRule
	// MaxIters bounds consensus iterations; 0 means 3000.
	MaxIters int
	// Tol declares convergence when no agent's estimate moved more than
	// Tol (Frobenius) in one iteration; 0 means 1e-6.
	Tol float64
	// Weights are the consensus weights a_j (length |N|, summing to 1).
	// Nil means uniform 1/|N|. Ignored when Topology is TopologyRing.
	Weights []float64
	// ProjectSweeps bounds the Dykstra sweeps per local projection;
	// 0 means 60 (local projections need not be exact — the method
	// tolerates inexact projection, and the final result is polished).
	ProjectSweeps int
	// Topology selects the gossip pattern. TopologyComplete (default) is
	// the paper's all-to-all exchange (O(|C|·|N|³) scalars per iteration);
	// TopologyRing averages only with the two ring neighbors using the
	// doubly stochastic weights (¼, ½, ¼) — matching EDR's ring structure
	// and cutting communication to O(|C|·|N|²) at the price of slower
	// consensus (information diffuses around the ring in O(|N|) steps).
	Topology Topology
	// Parallelism fans the per-agent consensus+gradient+projection steps
	// across cores: > 0 pins the worker count, 0 sizes from GOMAXPROCS,
	// < 0 forces serial. Parallel and serial runs are bit-identical —
	// each agent writes only its own estimate.
	Parallelism int
}

// Topology is a CDPSM gossip pattern.
type Topology int

const (
	// TopologyComplete gossips with every other replica each iteration.
	TopologyComplete Topology = iota
	// TopologyRing gossips only with the two ring neighbors.
	TopologyRing
)

// New returns a CDPSM solver with the defaults above.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "CDPSM" }

// DefaultStep is the constant step size used when none is configured.
const DefaultStep = 0.05

func (s *Solver) params(n int) (step opt.StepRule, maxIters int, tol float64, weights []float64, sweeps int, err error) {
	step = s.Step
	if step == nil {
		step = opt.ConstantStep(DefaultStep)
	}
	maxIters = s.MaxIters
	if maxIters <= 0 {
		maxIters = 3000
	}
	tol = s.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	weights = s.Weights
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1 / float64(n)
		}
	}
	if len(weights) != n {
		return nil, 0, 0, nil, 0, fmt.Errorf("cdpsm: %d weights for %d replicas", len(weights), n)
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, 0, 0, nil, 0, fmt.Errorf("cdpsm: negative consensus weight %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, 0, 0, nil, 0, fmt.Errorf("cdpsm: consensus weights sum to %g, want 1", sum)
	}
	sweeps = s.ProjectSweeps
	if sweeps <= 0 {
		sweeps = 60
	}
	return step, maxIters, tol, weights, sweeps, nil
}

// LocalGradient writes agent i's ∇E_i(v) into g: only column i is nonzero,
// with value u_i·(α_i + β_i·γ_i·(Σ_c v_{c,i})^{γ_i−1}).
func LocalGradient(prob *opt.Problem, agent int, v, g [][]float64) {
	load := 0.0
	for c := range v {
		load += v[c][agent]
	}
	if load < 0 {
		load = 0
	}
	marginal := prob.System.Replicas[agent].MarginalCost(load)
	for c := range g {
		for n := range g[c] {
			g[c][n] = 0
		}
		g[c][agent] = marginal
	}
}

// Solve implements solver.Solver. Estimates live as CSR-packed vectors
// over the latency-feasibility support (a fully-feasible instance is the
// density-1 case): per iteration each agent's consensus, gradient step and
// local projection cost O(nnz), and agents write only their own next
// estimate, so parallel and serial runs stay bit-identical.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, err
	}
	sp := prob.Sparsity()
	nAgents := prob.N()
	step, maxIters, tol, weights, sweeps, err := s.params(nAgents)
	if err != nil {
		return nil, err
	}
	nnz := sp.NNZ()
	par := opt.NewParallel(s.Parallelism).Gate(nnz * nAgents)
	chunks := par.Chunks(nAgents)

	// Initialize every agent from the uniform start projected into its
	// local set (paper line 1: "Set the unit price of replica i" — prices
	// live in prob; estimates start identical).
	start, err := prob.UniformStart()
	if err != nil {
		return nil, err
	}
	vstart := sp.Gather(nil, start)

	ests := make([][]float64, nAgents)
	next := make([][]float64, nAgents)
	projs := make([]*opt.SparseProjector, nAgents)
	for i := range ests {
		ests[i] = append([]float64(nil), vstart...)
		next[i] = make([]float64, nnz)
		// Serial projector per agent: parallelism lives across agents.
		projs[i] = newLocalProjector(prob, sp, i, nil)
	}
	popts := opt.DykstraOptions{MaxSweeps: sweeps, Tol: 1e-9}
	if err := par.ForErr(nAgents, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, err := projs[i].Project(ests[i], popts); err != nil {
				return fmt.Errorf("cdpsm: agent %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	res := &solver.Result{}
	conses := make([][]float64, chunks)
	for ch := range conses {
		conses[ch] = make([]float64, nnz)
	}
	avg := make([]float64, nnz)
	loads := make([]float64, sp.N)
	moved := make([]float64, nAgents)
	uw := make([]float64, nAgents)
	mats := make([][]float64, nAgents)

	for k := 1; k <= maxIters; k++ {
		// Snapshot all estimates (messages: each agent pulls everyone
		// else's).
		copy(mats, ests)
		d := step(k)
		if err := par.ForErr(nAgents, func(chunk, lo, hi int) error {
			cons := conses[chunk]
			for i := lo; i < hi; i++ {
				// Consensus step V^i, gradient step on the local objective,
				// projection onto the local constraint set.
				s.consensusFor(i, weights, mats, cons)
				copy(next[i], cons)
				gradStep(prob, sp, i, d, next[i])
				if _, err := projs[i].Project(next[i], popts); err != nil {
					return fmt.Errorf("cdpsm: agent %d: %w", i, err)
				}
				moved[i] = opt.VecDist(next[i], ests[i])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		maxMove := 0.0
		for _, m := range moved {
			if m > maxMove {
				maxMove = m
			}
		}
		for i := range ests {
			copy(ests[i], next[i])
		}
		// Communication accounting for this iteration (paper §III-D.1):
		// complete topology has each of the |N| agents receive |N|−1
		// estimates of nnz ≤ |C|·|N| supported scalars → O(|C|·|N|³) per
		// iteration system-wide; the ring variant receives only 2.
		peers := nAgents - 1
		if s.Topology == TopologyRing && nAgents > 2 {
			peers = 2
		}
		res.Comm.Messages += nAgents * peers
		res.Comm.Scalars += nAgents * peers * nnz
		res.Iterations = k

		// Record the objective of the global average estimate (the common
		// point the agents are converging to); it depends only on column
		// sums, so the average never needs densifying.
		uniformMean(avg, uw, ests)
		sp.ColSumsInto(loads, avg)
		res.History = append(res.History, prob.System.CostOfLoads(loads))

		if maxMove <= tol {
			res.Converged = true
			break
		}
	}

	// Final solution: the consensus average of the agents' estimates,
	// polished onto the exact feasible region.
	uniformMean(avg, uw, ests)
	final := opt.NewMatrix(prob.C(), prob.N())
	sp.Scatter(final, avg)
	if err := opt.ProjectFeasiblePar(prob, final, 1e-6, par); err != nil {
		return nil, fmt.Errorf("cdpsm: final polish: %w", err)
	}
	res.Assignment = final
	res.Objective = prob.Cost(final)
	return res, nil
}

// newLocalProjector builds agent i's packed local-set projector: every
// client row plus the agent's own capacity halfspace (other columns are
// unconstrained in P_i, encoded as +Inf bounds the projector skips in
// O(1)).
func newLocalProjector(prob *opt.Problem, sp *opt.Sparsity, agent int, par *opt.Parallel) *opt.SparseProjector {
	bounds := make([]float64, sp.N)
	for n := range bounds {
		bounds[n] = math.Inf(1)
	}
	bounds[agent] = prob.System.Replicas[agent].Bandwidth
	return opt.NewSparseProjector(sp, prob.Demands, bounds, par)
}

// packedColSum returns Σ_c v_{c,n} of a CSR-packed vector, accumulated in
// ascending client order.
func packedColSum(sp *opt.Sparsity, n int, v []float64) float64 {
	s := 0.0
	for k := sp.ColStart[n]; k < sp.ColStart[n+1]; k++ {
		s += v[sp.PosCSR[k]]
	}
	return s
}

// gradStep applies agent i's gradient step in place: the local
// objective E_i depends only on column i, so v loses d·∇E_i only on that
// column's support.
func gradStep(prob *opt.Problem, sp *opt.Sparsity, agent int, d float64, v []float64) {
	load := packedColSum(sp, agent, v)
	if load < 0 {
		load = 0
	}
	marginal := prob.System.Replicas[agent].MarginalCost(load)
	for k := sp.ColStart[agent]; k < sp.ColStart[agent+1]; k++ {
		v[sp.PosCSR[k]] -= d * marginal
	}
}

// consensusFor computes agent i's consensus average over packed
// estimates into dst (Eq. 3). Complete topology: the general weighted
// average Σ_j a_j P^j (with uniform weights every agent computes the same
// average). Ring topology: the ¼/½/¼ neighbor average, whose weight matrix
// is doubly stochastic over the ring graph.
func (s *Solver) consensusFor(i int, weights []float64, vs [][]float64, dst []float64) {
	n := len(vs)
	if s.Topology == TopologyRing && n > 2 {
		opt.VecFill(dst, 0)
		opt.VecAXPY(dst, 0.25, vs[(i-1+n)%n])
		opt.VecAXPY(dst, 0.5, vs[i])
		opt.VecAXPY(dst, 0.25, vs[(i+1)%n])
		return
	}
	opt.VecMean(dst, weights, vs...)
}

// uniformMean averages packed estimates with equal weight into dst — the
// common reference point used for history and the final answer. w is the
// caller's reused weights buffer (len(vs)), filled here.
func uniformMean(dst []float64, w []float64, vs [][]float64) {
	for i := range w {
		w[i] = 1 / float64(len(vs))
	}
	opt.VecMean(dst, w, vs...)
}
