// Package model implements the EDR data-center energy cost model
// (paper §III-A, equations 1, 2, 7, 8).
//
// The total energy consumption of all replicas, for a load-split matrix
// P = [p_{c,n}], is
//
//	E_g = Σ_n u_n · ( α_n · Σ_c p_{c,n} + β_n · (Σ_c p_{c,n})^{γ_n} )
//
// where for replica n: u_n is the regional electricity price, α_n weights
// the (load-linear) server energy, β_n weights the (degree-γ_n polynomial)
// network-device energy, and γ_n depends on the underlying switch
// architecture ("Linear" fabrics such as Batcher/Crossbar have γ≈1; common
// data-intensive cloud traffic corresponds to the "Cubic" profile γ=3).
//
// All load quantities are in megabytes (MB) of requested traffic, matching
// the paper's request sizes (100 MB video streaming, 10 MB distributed file
// service). Energy is reported in abstract joule-scaled units and cost in
// cents; only ratios across schedulers matter for the reproduction.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Default parameter values measured on SystemG in the paper (§IV-A.2).
const (
	// DefaultAlpha is the server-energy weight α_n = 1.
	DefaultAlpha = 1.0
	// DefaultBeta is the network-device-energy weight β_n = 0.01.
	DefaultBeta = 0.01
	// DefaultGamma is γ_n = 3, the "Cubic" network profile assumed for
	// data-intensive applications (Eq. 7).
	DefaultGamma = 3.0
)

// Replica holds the per-replica energy-model parameters from Table I.
type Replica struct {
	// Name identifies the replica in traces and figures (e.g. "replica1").
	Name string
	// Price is u_n, the unit electricity price in ¢/kWh. The paper draws
	// it uniformly from the integers 1..20.
	Price float64
	// Alpha is α_n, the server-energy weight.
	Alpha float64
	// Beta is β_n, the network-device-energy weight.
	Beta float64
	// Gamma is γ_n ≥ 1, the polynomial degree relating traffic to
	// network-device energy.
	Gamma float64
	// Bandwidth is B_n, the bandwidth capacity in MB/s.
	Bandwidth float64
	// Base is a frozen load offset (MB) already committed to this replica
	// by assignment rows outside the current subproblem. Energy and
	// MarginalCost evaluate the model at Base+load so that a restricted
	// (dirty-set) solve over the remaining rows optimizes the true global
	// objective: E_n(Base+load) differs from the restricted objective only
	// by the constant E_n(Base), so minimizers coincide, and the marginal
	// seen by every solver is the true marginal at the total column load.
	// Zero (the default) recovers the plain Table I model.
	Base float64
}

// NewReplica returns a replica with the paper's default α, β, γ, a 100 MB/s
// bandwidth cap, and the given name and price.
func NewReplica(name string, price float64) Replica {
	return Replica{
		Name:      name,
		Price:     price,
		Alpha:     DefaultAlpha,
		Beta:      DefaultBeta,
		Gamma:     DefaultGamma,
		Bandwidth: 100,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (r Replica) Validate() error {
	switch {
	case r.Price < 0:
		return fmt.Errorf("model: replica %q: negative price %g", r.Name, r.Price)
	case r.Alpha < 0:
		return fmt.Errorf("model: replica %q: negative alpha %g", r.Name, r.Alpha)
	case r.Beta < 0:
		return fmt.Errorf("model: replica %q: negative beta %g", r.Name, r.Beta)
	case r.Gamma < 1:
		return fmt.Errorf("model: replica %q: gamma %g < 1 (must be convex)", r.Name, r.Gamma)
	case r.Bandwidth <= 0:
		return fmt.Errorf("model: replica %q: non-positive bandwidth %g", r.Name, r.Bandwidth)
	case r.Base < 0 || math.IsNaN(r.Base):
		return fmt.Errorf("model: replica %q: invalid base load %g", r.Name, r.Base)
	}
	return nil
}

// Energy returns E_n in energy units for total assigned load (MB):
//
//	E_n(load) = α_n·load + β_n·load^{γ_n}
//
// This is the paper's Eq. 7 restricted to a single node (without the price
// factor). Negative load is invalid and reported as NaN so that optimizer
// bugs surface loudly in tests rather than silently producing credit.
//
// With a non-zero Base the evaluation point shifts to Base+load and the
// frozen portion's energy is subtracted back out:
//
//	E_n(load) = α_n·load + β_n·((Base+load)^{γ_n} − Base^{γ_n})
//
// so Energy(0) stays 0 while the curvature each solver sees is that of the
// true total column load.
func (r Replica) Energy(load float64) float64 {
	if load < 0 {
		return math.NaN()
	}
	if r.Base > 0 {
		return r.Alpha*load + r.Beta*(math.Pow(r.Base+load, r.Gamma)-math.Pow(r.Base, r.Gamma))
	}
	return r.Alpha*load + r.Beta*math.Pow(load, r.Gamma)
}

// Cost returns u_n · E_n(load), the dollar-cost (in cents) of serving the
// given total load on this replica — one summand of Eq. 1.
func (r Replica) Cost(load float64) float64 {
	return r.Price * r.Energy(load)
}

// MarginalCost returns d(Cost)/d(load) = u_n·(α_n + β_n·γ_n·load^{γ_n−1}),
// the derivative used by every gradient-based solver in this module. With a
// non-zero Base the derivative is taken at the total column load Base+load.
func (r Replica) MarginalCost(load float64) float64 {
	if load < 0 {
		return math.NaN()
	}
	return r.Price * (r.Alpha + r.Beta*r.Gamma*math.Pow(r.Base+load, r.Gamma-1))
}

// System is the set of replicas making up the modeled cloud.
type System struct {
	Replicas []Replica
}

// NewSystem builds a System and validates every replica.
func NewSystem(replicas []Replica) (*System, error) {
	if len(replicas) == 0 {
		return nil, errors.New("model: system needs at least one replica")
	}
	for _, r := range replicas {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return &System{Replicas: replicas}, nil
}

// N returns the number of replicas |N|.
func (s *System) N() int { return len(s.Replicas) }

// loads collapses an assignment matrix to per-replica column sums
// Σ_c p_{c,n}.
func (s *System) loads(p [][]float64) ([]float64, error) {
	n := s.N()
	loads := make([]float64, n)
	for c, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("model: row %d has %d columns, want %d", c, len(row), n)
		}
		for j, v := range row {
			loads[j] += v
		}
	}
	return loads, nil
}

// TotalEnergy evaluates Σ_n E_n — total joule-scaled consumption (Eq. 1
// without prices) for the assignment matrix p (rows: clients, cols:
// replicas).
func (s *System) TotalEnergy(p [][]float64) (float64, error) {
	loads, err := s.loads(p)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, r := range s.Replicas {
		total += r.Energy(loads[i])
	}
	return total, nil
}

// TotalCost evaluates E_g = Σ_n u_n·E_n — the paper's global objective
// (Eq. 1) — for the assignment matrix p.
func (s *System) TotalCost(p [][]float64) (float64, error) {
	loads, err := s.loads(p)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, r := range s.Replicas {
		total += r.Cost(loads[i])
	}
	return total, nil
}

// CostOfLoads evaluates Eq. 1 given per-replica column sums directly.
// It panics if len(loads) != |N|; this is an internal-consistency bug.
func (s *System) CostOfLoads(loads []float64) float64 {
	if len(loads) != s.N() {
		panic(fmt.Sprintf("model: CostOfLoads got %d loads for %d replicas", len(loads), s.N()))
	}
	total := 0.0
	for i, r := range s.Replicas {
		total += r.Cost(loads[i])
	}
	return total
}

// Gradient returns ∂E_g/∂p_{c,n} for every entry of p. Because the
// objective depends on p only through column sums, the gradient is constant
// along each column: g[c][n] = u_n·(α_n + β_n·γ_n·(Σ_c p)^{γ_n−1}).
func (s *System) Gradient(p [][]float64) ([][]float64, error) {
	loads, err := s.loads(p)
	if err != nil {
		return nil, err
	}
	marginal := make([]float64, s.N())
	for i, r := range s.Replicas {
		marginal[i] = r.MarginalCost(loads[i])
	}
	g := make([][]float64, len(p))
	for c := range p {
		g[c] = make([]float64, s.N())
		copy(g[c], marginal)
	}
	return g, nil
}

// SingleNodeEquivalence quantifies the paper's Eq. 7 ≈ Eq. 8 argument: the
// energy of one node serving total load p versus a data center splitting p
// evenly over k internal nodes. It returns (Es, Ed, relative gap). With
// β ≪ α the gap is small, which is the paper's justification for emulating
// a data-center replica with a single cluster node.
func (r Replica) SingleNodeEquivalence(load float64, k int) (es, ed, gap float64) {
	es = r.Energy(load)
	if k <= 0 {
		return es, math.NaN(), math.NaN()
	}
	per := load / float64(k)
	ed = r.Alpha*load + float64(k)*r.Beta*math.Pow(per, r.Gamma)
	if es == 0 {
		return es, ed, 0
	}
	gap = math.Abs(es-ed) / es
	return es, ed, gap
}
