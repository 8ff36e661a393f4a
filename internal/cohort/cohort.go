// Package cohort is the client-scale sharding layer: it groups raw
// clients into virtual clients ("cohorts") keyed by their latency-
// feasibility mask, emits a reduced opt.Problem the distributed rounds
// solve unchanged, and disaggregates the cohort-level assignment back to
// per-client loads proportionally to demand.
//
// The key observation making this lossless rather than a heuristic: the
// EDR objective E_g depends on an assignment only through the per-replica
// column sums S_n (each replica's energy is a function of its own load),
// and the feasible set is a transportation polytope whose rows interact
// only through those column sums. Latency enters the problem only through
// the mask (p_{c,n} = 0 where l_{c,n} > T), so two clients with the same
// mask are interchangeable: merging them into one virtual client with
// summed demand preserves the set of achievable column-sum vectors
// exactly, so the reduced optimum equals the ungrouped optimum and
// proportional disaggregation recovers a per-client split with the same
// cost. The mask is therefore the coarsest lossless key, and the one
// used; solver convergence is the only measured gap (see Gap).
//
// This is the decomposition of Feng/Xu/Li's ADMM cloud-traffic framework
// and the geographic demand aggregation of energy-aware CDN load
// balancing (see PAPERS.md): solve at aggregate granularity, recover
// per-entity allocations.
package cohort

import (
	"fmt"
	"math"

	"edr/internal/opt"
)

// Options configures the grouping. It has no fields: the feasibility mask
// is the only key, so there is nothing to tune.
type Options struct{}

// Grouping is one aggregation of a problem's clients into cohorts. It is
// immutable after Group returns.
type Grouping struct {
	orig    *opt.Problem
	reduced *opt.Problem
	members [][]int // cohort → member client indices, in client order
	of      []int   // client → cohort index
}

// Group partitions prob's clients into cohorts of clients sharing a
// feasibility mask under prob.MaxLatency, numbered in first-seen client
// order. It is Registry.Group on a fresh registry.
func Group(prob *opt.Problem, opts Options) (*Grouping, error) {
	g, _, err := NewRegistry().Group(prob, opts)
	return g, err
}

// reduce sets the cohort-level problem: summed demands over the cohorts'
// masks redMask, with their sparsity view sp. The solve reads latency only
// through the mask, which every member shares, so the reduced problem
// carries no latencies: its primed mask stands in for them.
func (g *Grouping) reduce(redMask [][]bool, sp *opt.Sparsity) {
	demands := make([]float64, len(g.members))
	for k, mem := range g.members {
		for _, c := range mem {
			demands[k] += g.orig.Demands[c]
		}
	}
	g.reduced = &opt.Problem{System: g.orig.System, Demands: demands}
	g.reduced.PrimeMask(redMask, sp)
}

// K returns the cohort count |K|.
func (g *Grouping) K() int { return len(g.members) }

// C returns the raw client count |C|.
func (g *Grouping) C() int { return len(g.of) }

// Ratio returns the compression ratio |C|/|K|.
func (g *Grouping) Ratio() float64 { return float64(g.C()) / float64(g.K()) }

// Members returns cohort k's client indices. Read-only.
func (g *Grouping) Members(k int) []int { return g.members[k] }

// CohortOf returns the cohort index of client c.
func (g *Grouping) CohortOf(c int) int { return g.of[c] }

// Reduced returns the cohort-level problem the distributed rounds solve.
// Read-only; it shares the original problem's System.
func (g *Grouping) Reduced() *opt.Problem { return g.reduced }

// Disaggregate maps a cohort-level assignment (|K|×|N|) back to a
// per-client one (|C|×|N|): each member receives its cohort's split
// scaled by demand share, so per-client demand is conserved exactly
// (a closing residual correction absorbs float rounding) and no load
// lands outside the cohort's — hence the member's — feasibility mask.
// Cohort rows that carry demand but received no load (a solver returning
// a zero row) fall back to an even split over the cohort's feasible
// links, keeping conservation unconditional.
func (g *Grouping) Disaggregate(xk [][]float64) ([][]float64, error) {
	kk, n := g.K(), g.orig.N()
	if len(xk) != kk {
		return nil, fmt.Errorf("cohort: disaggregate %d rows for %d cohorts", len(xk), kk)
	}
	mask := g.reduced.Allowed()
	x := opt.NewMatrix(g.C(), n)
	row := make([]float64, n)
	for k, mem := range g.members {
		if len(xk[k]) != n {
			return nil, fmt.Errorf("cohort: disaggregate row %d has %d cols for %d replicas", k, len(xk[k]), n)
		}
		// Clamp solver fuzz: tiny negatives to zero, load on masked-out
		// links dropped (so per-client feasibility holds no matter what
		// the solver returned), non-finite rejected.
		sum := 0.0
		for j, v := range xk[k] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cohort: non-finite load xk[%d][%d] = %g", k, j, v)
			}
			if v < 0 || !mask[k][j] {
				v = 0
			}
			row[j] = v
			sum += v
		}
		if sum <= 0 {
			// No load to apportion: spread each member's demand evenly
			// over the cohort's feasible links.
			feasible := 0
			for j := 0; j < n; j++ {
				if mask[k][j] {
					feasible++
				}
			}
			for _, c := range mem {
				if g.orig.Demands[c] == 0 || feasible == 0 {
					continue
				}
				share := g.orig.Demands[c] / float64(feasible)
				for j := 0; j < n; j++ {
					if mask[k][j] {
						x[c][j] = share
					}
				}
			}
			continue
		}
		for _, c := range mem {
			f := g.orig.Demands[c] / sum
			got, big := 0.0, 0
			for j := 0; j < n; j++ {
				v := row[j] * f
				x[c][j] = v
				got += v
				if v > x[c][big] {
					big = j
				}
			}
			// Exact conservation: fold the float-rounding residual into
			// the largest entry (the residual is ~ulp-sized, so the entry
			// stays nonnegative and inside the mask).
			x[c][big] += g.orig.Demands[c] - got
		}
	}
	return x, nil
}

// Check verifies a disaggregated assignment's invariants against the
// original problem: per-client demand conservation within tol, zero load
// on latency-infeasible links, and finite entries. Tests, the fuzz
// harness, and paranoid callers share it.
func (g *Grouping) Check(x [][]float64, tol float64) error {
	if len(x) != g.C() {
		return fmt.Errorf("cohort: check %d rows for %d clients", len(x), g.C())
	}
	mask := g.orig.Allowed()
	for c, xrow := range x {
		sum := 0.0
		for j, v := range xrow {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cohort: non-finite x[%d][%d] = %g", c, j, v)
			}
			if v < -tol {
				return fmt.Errorf("cohort: negative load x[%d][%d] = %g", c, j, v)
			}
			if !mask[c][j] && v != 0 {
				return fmt.Errorf("cohort: load %g on infeasible link (%d,%d)", v, c, j)
			}
			sum += v
		}
		if d := math.Abs(sum - g.orig.Demands[c]); d > tol*(1+g.orig.Demands[c]) {
			return fmt.Errorf("cohort: client %d served %g of demand %g", c, sum, g.orig.Demands[c])
		}
	}
	return nil
}

// Gap reports the relative optimality gap of a disaggregated assignment
// against a reference objective for the ungrouped instance: (cost − ref)
// / ref. Negative values mean the cohort path beat the reference (both
// are iterative solvers).
func (g *Grouping) Gap(x [][]float64, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (g.orig.Cost(x) - ref) / ref
}
