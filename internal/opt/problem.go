package opt

import (
	"fmt"
	"math"
	"sync"

	"edr/internal/model"
)

// Problem is one instance of the EDR replica-selection optimization
// (paper Eq. 2): given clients with demands and a replica system with
// prices/capacities, find the load split P minimizing total energy cost.
type Problem struct {
	// System carries the replica energy-model parameters (u, α, β, γ, B).
	System *model.System
	// Demands holds R_c, the requested traffic (MB) per client.
	Demands []float64
	// Latency holds l_{c,n} in seconds from client c to replica n.
	Latency [][]float64
	// MaxLatency is T, the user-defined maximum tolerable latency
	// (seconds). Replicas with l_{c,n} > T may not serve client c.
	// Both may be unset on a problem whose mask was primed (PrimeMask).
	MaxLatency float64

	// maskMu guards mask and sparse, the cached feasibility views Allowed()
	// and Sparsity() serve. Latency and MaxLatency must not change after
	// the first Allowed()/Sparsity() call unless InvalidateMask is called
	// in between.
	maskMu sync.Mutex
	mask   [][]bool
	sparse *Sparsity
}

// Validate checks structural and numeric consistency.
func (p *Problem) Validate() error {
	if p.System == nil {
		return fmt.Errorf("opt: problem has no system")
	}
	n := p.System.N()
	if len(p.Demands) == 0 {
		return fmt.Errorf("opt: problem has no clients")
	}
	for c, r := range p.Demands {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("opt: client %d demand %g invalid", c, r)
		}
	}
	p.maskMu.Lock()
	primed := p.mask != nil
	p.maskMu.Unlock()
	if primed && p.Latency == nil {
		return nil // the primed mask stands in for Latency and MaxLatency
	}
	if len(p.Latency) != len(p.Demands) {
		return fmt.Errorf("opt: latency has %d rows for %d clients", len(p.Latency), len(p.Demands))
	}
	for c, row := range p.Latency {
		if len(row) != n {
			return fmt.Errorf("opt: latency row %d has %d cols for %d replicas", c, len(row), n)
		}
		for j, l := range row {
			if l < 0 || math.IsNaN(l) {
				return fmt.Errorf("opt: latency[%d][%d] = %g invalid", c, j, l)
			}
		}
	}
	if p.MaxLatency <= 0 {
		return fmt.Errorf("opt: non-positive max latency %g", p.MaxLatency)
	}
	return nil
}

// C returns the number of clients |C|.
func (p *Problem) C() int { return len(p.Demands) }

// N returns the number of replicas |N|.
func (p *Problem) N() int { return p.System.N() }

// Allowed returns the latency-feasibility mask: Allowed()[c][n] reports
// whether replica n may serve client c (l_{c,n} ≤ T). The mask is built
// once and cached — projection sweeps and solver inits call this every
// round, and at client scale rebuilding |C|×|N| booleans per call
// dominates the allocation profile. Callers must treat the result as
// read-only; mutate Latency only before the first call or after
// InvalidateMask.
func (p *Problem) Allowed() [][]bool {
	p.maskMu.Lock()
	defer p.maskMu.Unlock()
	return p.allowedLocked()
}

func (p *Problem) allowedLocked() [][]bool {
	if p.mask == nil {
		mask := make([][]bool, p.C())
		cells := make([]bool, p.C()*p.N())
		for c := range mask {
			mask[c], cells = cells[:p.N():p.N()], cells[p.N():]
			for j := range mask[c] {
				mask[c][j] = p.Latency[c][j] <= p.MaxLatency
			}
		}
		p.mask = mask
	}
	return p.mask
}

// Sparsity returns the cached CSR/CSC index view of the feasibility mask,
// building it (and the mask) on first use. Like Allowed, the result is
// shared and read-only; InvalidateMask drops it together with the mask.
func (p *Problem) Sparsity() *Sparsity {
	p.maskMu.Lock()
	defer p.maskMu.Unlock()
	if p.sparse == nil {
		p.sparse = NewSparsity(p.allowedLocked())
	}
	return p.sparse
}

// PrimeMask seeds the cached feasibility mask and sparsity view with
// precomputed values, so a Problem assembled from structures that already
// know their mask (the cohort layer's reduced instance) never rebuilds
// either on first solver touch. The mask must agree with Latency and
// MaxLatency — callers own that contract — or, with Latency nil, stands in
// for them. Both arguments become shared read-only state, exactly as if
// Allowed()/Sparsity() had built them (sp nil: built on first use).
// Panics on dimension mismatch, matching the package's contract
// violations elsewhere.
func (p *Problem) PrimeMask(mask [][]bool, sp *Sparsity) {
	if len(mask) != p.C() {
		panic(fmt.Sprintf("opt: PrimeMask with %d rows for %d clients", len(mask), p.C()))
	}
	for c, row := range mask {
		if len(row) != p.N() {
			panic(fmt.Sprintf("opt: PrimeMask row %d has %d cols for %d replicas", c, len(row), p.N()))
		}
	}
	if sp != nil && (sp.C != p.C() || sp.N != p.N()) {
		panic(fmt.Sprintf("opt: PrimeMask sparsity %dx%d for %dx%d problem", sp.C, sp.N, p.C(), p.N()))
	}
	p.maskMu.Lock()
	p.mask = mask
	p.sparse = sp
	p.maskMu.Unlock()
}

// InvalidateMask drops the cached feasibility mask and its sparsity view.
// Call it after mutating Latency or MaxLatency on a Problem that may
// already have served Allowed() or Sparsity() (e.g. probgen folding a
// placement map into the latencies); never on one without Latency.
func (p *Problem) InvalidateMask() {
	p.maskMu.Lock()
	p.mask = nil
	p.sparse = nil
	p.maskMu.Unlock()
}

// Cost evaluates the global objective E_g at assignment matrix x.
func (p *Problem) Cost(x [][]float64) float64 {
	cost, err := p.System.TotalCost(x)
	if err != nil {
		panic("opt: Cost on malformed matrix: " + err.Error())
	}
	return cost
}

// Energy evaluates total joules Σ E_n at assignment matrix x.
func (p *Problem) Energy(x [][]float64) float64 {
	e, err := p.System.TotalEnergy(x)
	if err != nil {
		panic("opt: Energy on malformed matrix: " + err.Error())
	}
	return e
}

// Gradient evaluates ∇E_g at x.
func (p *Problem) Gradient(x [][]float64) [][]float64 {
	g, err := p.System.Gradient(x)
	if err != nil {
		panic("opt: Gradient on malformed matrix: " + err.Error())
	}
	return g
}

// Violation quantifies constraint violation of x: the maximum over demand
// shortfall/excess |Σ_n p_{c,n} − R_c|, capacity excess (Σ_c p_{c,n} − B_n)₊,
// negativity (−p)₊, and latency-mask violations. A feasible point has
// Violation ≈ 0.
func (p *Problem) Violation(x [][]float64) float64 {
	loads, worst := p.scan(x)
	return p.capacityExcess(worst, loads)
}

// UniformStart returns the canonical starting point: each client's demand
// split evenly across its latency-feasible replicas. The result satisfies
// demand, box, and mask constraints; capacities may be violated (solvers
// project it before use). An error is returned if some client has no
// feasible replica.
func (p *Problem) UniformStart() ([][]float64, error) {
	mask := p.Allowed()
	x := NewMatrix(p.C(), p.N())
	for c := range x {
		feasible := 0
		for _, ok := range mask[c] {
			if ok {
				feasible++
			}
		}
		if feasible == 0 {
			return nil, fmt.Errorf("opt: client %d has no replica within latency bound", c)
		}
		share := p.Demands[c] / float64(feasible)
		for n, ok := range mask[c] {
			if ok {
				x[c][n] = share
			}
		}
	}
	return x, nil
}
