// Package lddm implements the Lagrangian dual decomposition method (paper
// Algorithm 2, after Bertsekas & Tsitsiklis, "Parallel and Distributed
// Computation", 1989) for the EDR replica-selection problem.
//
// The client-demand equality constraints Σ_n p_{c,n} = R_c couple the
// replicas' variables, so they are dualized with multipliers μ_c held by
// the clients. Each replica n then solves a purely local problem over its
// own column {p_{c,n}}:
//
//	minimize   E_n(S) + Σ_c μ_c · p_{c,n}     where S = Σ_c p_{c,n}
//	subject to 0 ≤ p_{c,n} ≤ R_c,  S ≤ B_n,  p_{c,n} = 0 if l_{c,n} > T
//
// and each client c updates its multiplier by gradient ascent on the dual:
// μ_c ← μ_c + d·(Σ_n p_{c,n} − R_c). Coordination is purely pairwise
// between clients and replicas — O(|C|·|N|) scalars per iteration, the
// source of LDDM's speed advantage over CDPSM (paper §III-D.2); Solver
// counts that pattern. The round (round.go) — live, and in-process under
// Solver — takes the same step on the initiator, which already holds its
// inputs.
// On the live wire a replica with m feasible clients is sent their m
// multipliers and answers with the water-filling's decision — a bitmap of
// clients served their whole demand plus the one partial share — from
// which the initiator rebuilds the column bit for bit (codec.go).
package lddm

import (
	"fmt"
	"math"
	"slices"

	"edr/internal/model"
)

// LocalProblem is the data replica n needs for one local solve.
type LocalProblem struct {
	// Replica carries u_n, α_n, β_n, γ_n and B_n.
	Replica model.Replica
	// Mu holds the clients' current multipliers μ_c.
	Mu []float64
	// Demands holds R_c — the per-client caps p_{c,n} ≤ R_c.
	Demands []float64
	// Clients holds the ascending ids of the clients within this
	// replica's latency bound (a CSC column slice of the problem's
	// Sparsity view; every client on a fully-feasible instance). Mu and
	// Demands stay full-length and are indexed through it, so the
	// water-filling costs O(|Clients| log |Clients|).
	Clients []int

	// order is the candidate-ordering scratch, kept across solves: a
	// LocalProblem is solved by one goroutine at a time (the replica's
	// server state holds it under its lock).
	order []int
}

// byMu orders client ids by ascending multiplier with the strict < the
// water-filling is defined on (ties, and NaNs, compare equal).
func byMu(mu []float64, a, b int) int {
	switch {
	case mu[a] < mu[b]:
		return -1
	case mu[b] < mu[a]:
		return 1
	}
	return 0
}

// Validate checks shape consistency.
func (lp *LocalProblem) Validate() error {
	c := len(lp.Mu)
	if c == 0 {
		return fmt.Errorf("lddm: local problem has no clients")
	}
	if len(lp.Demands) != c {
		return fmt.Errorf("lddm: local problem shape mismatch: mu %d, demands %d", c, len(lp.Demands))
	}
	if lp.Clients == nil {
		return fmt.Errorf("lddm: local problem has no client list")
	}
	return lp.Replica.Validate()
}

// marginalLoad inverts the marginal-cost function: the load S at which
// u·(α + βγ·(Base+S)^{γ−1}) equals m, or 0 when m is below the idle
// marginal and +Inf when β or γ make the polynomial term vanish and m
// exceeds the constant marginal. A frozen Base shifts the curve left: the
// returned S is the *additional* load this solve may place on top of it.
func marginalLoad(r model.Replica, m float64) float64 {
	idle := r.Price * r.Alpha
	if m <= idle {
		return 0
	}
	poly := r.Price * r.Beta * r.Gamma
	if poly <= 0 || r.Gamma == 1 {
		return math.Inf(1) // marginal cost is constant; any load qualifies
	}
	s := math.Pow((m-idle)/poly, 1/(r.Gamma-1)) - r.Base
	if s < 0 {
		return 0
	}
	return s
}

// SolveLocal solves the replica-local problem exactly by water-filling,
// returning the column values for lp.Clients (same order).
//
// The objective is Φ(S) + Σ μ_c p_c with Φ convex increasing, so the
// optimum allocates to clients in ascending-μ order: client c receives
// load while the marginal Φ'(S) + μ_c stays negative, stopping at its cap
// R_c, at the capacity B_n, or at the break-even load Φ'(S) = −μ_c,
// whichever comes first. Clients with μ_c ≥ −Φ'(current S) receive
// nothing; latency-infeasible clients are not in lp.Clients at all.
func SolveLocal(lp *LocalProblem) ([]float64, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	p := make([]float64, len(lp.Clients))

	// Candidate positions in ascending μ (lp.Clients is ascending, so ties
	// keep client-id order).
	order := lp.order[:0]
	for idx, i := range lp.Clients {
		if lp.Demands[i] > 0 {
			order = append(order, idx)
		}
	}
	lp.order = order
	slices.SortFunc(order, func(a, b int) int { return byMu(lp.Mu, lp.Clients[a], lp.Clients[b]) })

	s := 0.0
	budget := lp.Replica.Bandwidth
	for _, idx := range order {
		if s >= budget-1e-15 {
			break
		}
		i := lp.Clients[idx]
		// Load level at which this client's marginal hits zero.
		breakEven := marginalLoad(lp.Replica, -lp.Mu[i])
		if breakEven <= s {
			break // this and all later clients have non-negative marginals
		}
		take := math.Min(lp.Demands[i], math.Min(budget, breakEven)-s)
		if take <= 0 {
			break
		}
		p[idx] = take
		s += take
	}
	return p, nil
}

// LocalObjective evaluates E_n(S) + Σ μ_c p_c for a candidate column p
// over lp.Clients.
func LocalObjective(lp *LocalProblem, p []float64) float64 {
	s := 0.0
	linear := 0.0
	for idx, v := range p {
		s += v
		linear += lp.Mu[lp.Clients[idx]] * v
	}
	return lp.Replica.Cost(s) + linear
}

// SolveLocalPGD solves the same local problem by projected gradient
// descent — a slower, independent method used in tests to cross-check the
// water-filling solution.
func SolveLocalPGD(lp *LocalProblem, iters int, step float64) ([]float64, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	if iters <= 0 || step <= 0 {
		return nil, fmt.Errorf("lddm: SolveLocalPGD needs positive iters and step")
	}
	p := make([]float64, len(lp.Clients))
	for k := 1; k <= iters; k++ {
		s := 0.0
		for _, v := range p {
			s += v
		}
		marginal := lp.Replica.MarginalCost(s)
		d := step / math.Sqrt(float64(k))
		for idx, i := range lp.Clients {
			p[idx] -= d * (marginal + lp.Mu[i])
			if p[idx] < 0 {
				p[idx] = 0
			} else if p[idx] > lp.Demands[i] {
				p[idx] = lp.Demands[i]
			}
		}
		// Re-impose the capacity budget.
		s = 0.0
		for _, v := range p {
			s += v
		}
		if s > lp.Replica.Bandwidth {
			scale := lp.Replica.Bandwidth / s
			for i := range p {
				p[i] *= scale
			}
		}
	}
	return p, nil
}
