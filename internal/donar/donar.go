// Package donar reimplements the decentralized replica-selection scheme of
// DONAR (Wendell, Jiang, Freedman & Rexford, "DONAR: decentralized server
// selection for cloud services", SIGCOMM 2010) at the fidelity the paper's
// Fig. 9 comparison requires.
//
// DONAR interposes a set of mapping nodes between clients and replicas.
// Each mapping node owns a partition of the clients and repeatedly solves
// a local assignment problem minimizing network performance cost (latency)
// under shared replica capacities, exchanging per-replica aggregate loads
// with every other mapping node between rounds — a decomposition of the
// global problem whose per-round communication grows with the number of
// mapping nodes (O(|C|·|N|·|M|) scalars), versus EDR/LDDM's O(|C|·|N|).
// Energy price never enters DONAR's objective; that is precisely the gap
// EDR fills.
package donar

import (
	"fmt"

	"edr/internal/opt"
	"edr/internal/solver"
)

// Solver is a DONAR-style decentralized mapping-node scheduler.
type Solver struct {
	// MappingNodes is |M|, the number of distributed coordinators;
	// 0 means 3 (the paper's Fig. 9 setup).
	MappingNodes int
	// Rounds bounds Gauss-Seidel rounds over the mapping nodes;
	// 0 means 60.
	Rounds int
	// Kappa weights the load-balance penalty against raw latency cost;
	// 0 means 1e-4 (units: cost per MB² per MB/s of capacity).
	Kappa float64
	// Chunks is the number of pieces each client demand is split into
	// during greedy reassignment; 0 means 20.
	Chunks int
	// Tol declares convergence when a full round moves no assignment
	// entry more than Tol; 0 means 1e-6.
	Tol float64
}

// New returns a DONAR solver with the Fig. 9 defaults.
func New() *Solver { return &Solver{} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "DONAR" }

func (s *Solver) params() (m, rounds, chunks int, kappa, tol float64) {
	m = s.MappingNodes
	if m <= 0 {
		m = 3
	}
	rounds = s.Rounds
	if rounds <= 0 {
		rounds = 60
	}
	chunks = s.Chunks
	if chunks <= 0 {
		chunks = 20
	}
	kappa = s.Kappa
	if kappa <= 0 {
		kappa = 1e-4
	}
	tol = s.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	return m, rounds, chunks, kappa, tol
}

// Solve implements solver.Solver.
func (s *Solver) Solve(prob *opt.Problem) (*solver.Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, err
	}
	m, rounds, chunks, kappa, tol := s.params()
	c, n := prob.C(), prob.N()
	mask := prob.Allowed()

	// Partition clients round-robin across mapping nodes.
	partition := make([][]int, m)
	for i := 0; i < c; i++ {
		partition[i%m] = append(partition[i%m], i)
	}

	x := opt.NewMatrix(c, n)
	res := &solver.Result{}
	prev := opt.NewMatrix(c, n)

	for round := 1; round <= rounds; round++ {
		opt.Copy(prev, x)
		for node := 0; node < m; node++ {
			// Aggregate load contributed by the *other* mapping nodes —
			// the state DONAR nodes gossip each round.
			otherLoad := make([]float64, n)
			mine := make(map[int]bool, len(partition[node]))
			for _, i := range partition[node] {
				mine[i] = true
			}
			for i := 0; i < c; i++ {
				if mine[i] {
					continue
				}
				for j := 0; j < n; j++ {
					otherLoad[j] += x[i][j]
				}
			}
			// Local reassignment of this node's clients: clear and
			// greedily re-place demand chunks at the lowest marginal
			// latency + load-penalty cost.
			load := make([]float64, n)
			copy(load, otherLoad)
			for _, i := range partition[node] {
				for j := 0; j < n; j++ {
					x[i][j] = 0
				}
			}
			for _, i := range partition[node] {
				if err := s.placeClient(prob, mask, x, load, i, chunks, kappa); err != nil {
					return nil, err
				}
			}
		}
		// Communication accounting: every mapping node shares per-replica
		// aggregates with every other node, and refreshes per-client
		// assignment state across the mapping layer — the O(|C|·|N|·|M|)
		// behaviour the paper cites for DONAR.
		res.Comm.Messages += m * (m - 1)
		res.Comm.Scalars += m*(m-1)*n + c*n*m
		res.Iterations = round
		res.History = append(res.History, prob.Cost(x))
		if opt.Dist(prev, x) <= tol {
			res.Converged = true
			break
		}
	}

	// A NaN violation compares false against everything: it must fail.
	if v := prob.Violation(x); !(v <= 1e-6) {
		return nil, fmt.Errorf("donar: final assignment violates constraints by %g", v)
	}
	res.Assignment = x
	res.Objective = prob.Cost(x)
	return res, nil
}

// placeClient distributes client i's demand in chunks onto the replicas
// with the lowest marginal cost l_{c,n} + 2κ·load_n/B_n, respecting
// capacity and the latency mask. load is updated in place.
func (s *Solver) placeClient(prob *opt.Problem, mask [][]bool, x [][]float64, load []float64, i, chunks int, kappa float64) error {
	n := prob.N()
	remaining := prob.Demands[i]
	if remaining == 0 {
		return nil
	}
	chunk := remaining / float64(chunks)
	for remaining > 1e-12 {
		take := chunk
		if take > remaining {
			take = remaining
		}
		best := -1
		bestCost := 0.0
		for j := 0; j < n; j++ {
			if !mask[i][j] {
				continue
			}
			headroom := prob.System.Replicas[j].Bandwidth - load[j]
			if headroom < take-1e-12 {
				continue
			}
			cost := prob.Latency[i][j] + 2*kappa*load[j]/prob.System.Replicas[j].Bandwidth
			if best == -1 || cost < bestCost {
				best, bestCost = j, cost
			}
		}
		if best == -1 {
			// No replica fits a full chunk; try the largest placeable
			// remainder on the replica with the most headroom.
			for j := 0; j < n; j++ {
				if !mask[i][j] {
					continue
				}
				if head := prob.System.Replicas[j].Bandwidth - load[j]; head > 1e-12 {
					if best == -1 || head > prob.System.Replicas[best].Bandwidth-load[best] {
						best = j
					}
				}
			}
			if best == -1 {
				return fmt.Errorf("donar: client %d has %g MB unplaceable under capacity", i, remaining)
			}
			take = prob.System.Replicas[best].Bandwidth - load[best]
			if take > remaining {
				take = remaining
			}
		}
		x[i][best] += take
		load[best] += take
		remaining -= take
	}
	return nil
}
