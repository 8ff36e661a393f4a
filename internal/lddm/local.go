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
	// water-filling costs O(m + k log m) for m = |Clients| and k clients
	// served.
	Clients []int

	// heap is the candidate scratch and out the column SolveLocal returns,
	// both kept across solves: a LocalProblem is solved by one goroutine at
	// a time (the replica's server state holds it under its lock).
	heap []candidate
	out  []float64
}

// candidate is a positive-demand client awaiting the water-filling: its
// multiplier and its position in the support.
type candidate struct {
	mu  float64
	pos int
}

// before is the order the fill serves candidates in: ascending μ, ties by
// support position — the lower client id, lp.Clients being ascending.
func (a candidate) before(b candidate) bool {
	return a.mu < b.mu || (a.mu == b.mu && a.pos < b.pos)
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []candidate, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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
// returning the column values for lp.Clients (same order). The column is
// lp's own buffer: it is valid until lp's next solve, which overwrites it,
// so a caller that keeps two results copies the first.
//
// The objective is Φ(S) + Σ μ_c p_c with Φ convex increasing, so the
// optimum allocates to clients in ascending-μ order: client c receives
// load while the marginal Φ'(S) + μ_c stays negative, stopping at its cap
// R_c, at the capacity B_n, or at the break-even load Φ'(S) = −μ_c,
// whichever comes first. Clients with μ_c ≥ −Φ'(current S) receive
// nothing; latency-infeasible clients are not in lp.Clients at all.
//
// The fill stops after a handful of the m candidates, so they are not
// sorted: a binary min-heap is built over them in O(m) and popped only
// while the fill runs. Its order (candidate.before) is total over finite
// μ, so every solve serves the same clients in the same sequence.
func SolveLocal(lp *LocalProblem) ([]float64, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	p := slices.Grow(lp.out[:0], len(lp.Clients))[:len(lp.Clients)]
	clear(p)
	lp.out = p

	h := lp.heap[:0]
	for idx, i := range lp.Clients {
		if lp.Demands[i] > 0 {
			h = append(h, candidate{lp.Mu[i], idx})
		}
	}
	lp.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	s := 0.0
	budget := lp.Replica.Bandwidth
	for len(h) > 0 {
		if s >= budget-1e-15 {
			break
		}
		c := h[0]
		// Load level at which this client's marginal hits zero.
		breakEven := marginalLoad(lp.Replica, -c.mu)
		if breakEven <= s {
			break // this and all later clients have non-negative marginals
		}
		take := math.Min(lp.Demands[lp.Clients[c.pos]], math.Min(budget, breakEven)-s)
		if take <= 0 {
			break
		}
		p[c.pos] = take
		s += take
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, 0)
	}
	return p, nil
}
