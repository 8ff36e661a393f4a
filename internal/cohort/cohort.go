// Package cohort is the client-scale sharding layer: it groups raw
// clients into virtual clients ("cohorts") keyed by (region,
// latency-class), emits a reduced opt.Problem the distributed rounds
// solve unchanged, and disaggregates the cohort-level assignment back to
// per-client loads proportionally to demand.
//
// The key observation making this lossless rather than a heuristic: the
// EDR objective E_g depends on an assignment only through the per-replica
// column sums S_n (each replica's energy is a function of its own load),
// and the feasible set is a transportation polytope whose rows interact
// only through those column sums. Two clients with the same
// latency-feasibility mask are therefore interchangeable: merging them
// into one virtual client with summed demand preserves the set of
// achievable column-sum vectors exactly, so the reduced optimum equals
// the ungrouped optimum and proportional disaggregation recovers a
// per-client split with the same cost. Aggregation error appears only
// when a cohort mixes masks — which the exact keying below never does —
// leaving solver convergence as the only measured gap (see Gap).
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

// InfeasibleLatency returns the sentinel latency the reduced problem
// carries for links outside a cohort's mask — the same "well beyond the
// bound" convention the runtime uses for unmeasured links.
func InfeasibleLatency(maxLatency float64) float64 { return 10 * maxLatency }

// Options tunes the grouping.
type Options struct {
	// Quantum is the latency quantization step in seconds: feasible
	// latencies are bucketed by floor(l/Quantum), so clients sharing a
	// feasibility mask and per-replica buckets share a cohort. 0 selects
	// MaxLatency/4 — coarse enough that a geographic region quantizes to
	// a handful of cohorts, fine enough that a cohort's representative
	// latency stays within one bucket of every member's truth.
	Quantum float64
	// MaxCohorts, when positive, bounds the cohort count by doubling the
	// quantum until the grouping fits (or the key degenerates to the
	// feasibility mask alone, the coarsest lossless key). 0 means no
	// bound.
	MaxCohorts int
}

// Grouping is one aggregation of a problem's clients into cohorts. It is
// immutable after Group returns.
type Grouping struct {
	orig    *opt.Problem
	reduced *opt.Problem
	members [][]int // cohort → member client indices, in client order
	of      []int   // client → cohort index
	quantum float64
}

// Group partitions prob's clients into cohorts: clients whose feasibility
// mask under prob.MaxLatency and quantized latency vector match share a
// cohort. The reduced problem sums member demands and carries
// demand-weighted representative latencies, so a cohort's mask equals its
// members' shared mask and every reduced-feasible assignment
// disaggregates to an ungrouped-feasible one.
func Group(prob *opt.Problem, opts Options) (*Grouping, error) {
	if prob == nil || prob.System == nil {
		return nil, fmt.Errorf("cohort: problem has no system")
	}
	c, n := prob.C(), prob.N()
	if c == 0 || n == 0 {
		return nil, fmt.Errorf("cohort: empty problem (%d clients, %d replicas)", c, n)
	}
	quantum := opts.Quantum
	if quantum <= 0 {
		quantum = prob.MaxLatency / 4
	}
	mask := prob.Allowed()
	var of []int
	var members [][]int
	for {
		of, members = groupAt(prob, mask, quantum)
		if opts.MaxCohorts <= 0 || len(members) <= opts.MaxCohorts || quantum >= prob.MaxLatency {
			break
		}
		// Too fine: coarsen the latency classes and regroup. Once the
		// quantum reaches MaxLatency every feasible link is in bucket
		// zero and the key is the mask alone — no further coarsening is
		// lossless, so that is where the doubling stops.
		quantum *= 2
		if quantum > prob.MaxLatency {
			quantum = prob.MaxLatency
		}
	}
	g := &Grouping{orig: prob, members: members, of: of, quantum: quantum}
	g.reduced = g.buildReduced(mask)
	return g, nil
}

// groupAt buckets every client at the given quantum and returns the
// client→cohort map and cohort member lists (cohorts in first-seen client
// order, members in client order).
func groupAt(prob *opt.Problem, mask [][]bool, quantum float64) ([]int, [][]int) {
	c, n := prob.C(), prob.N()
	of := make([]int, c)
	var members [][]int
	index := make(map[string]int)
	key := make([]byte, n)
	for i := 0; i < c; i++ {
		for j := 0; j < n; j++ {
			if !mask[i][j] {
				key[j] = 0xFF // infeasible class
				continue
			}
			b := int(prob.Latency[i][j] / quantum)
			if b > 0xFE {
				b = 0xFE
			}
			key[j] = byte(b)
		}
		k, ok := index[string(key)]
		if !ok {
			k = len(members)
			index[string(key)] = k
			members = append(members, nil)
		}
		of[i] = k
		members[k] = append(members[k], i)
	}
	return of, members
}

// buildReduced assembles the cohort-level problem: summed demands and
// demand-weighted representative latencies (uniform-weighted when a
// cohort's total demand is zero), with masked-out links pushed beyond the
// bound. Because every member shares the mask, feasible representative
// latencies are convex combinations of values ≤ T and stay ≤ T — the
// reduced mask is exactly the shared member mask.
func (g *Grouping) buildReduced(mask [][]bool) *opt.Problem {
	n := g.orig.N()
	demands := make([]float64, len(g.members))
	latency := opt.NewMatrix(len(g.members), n)
	reducedMask := make([][]bool, len(g.members))
	inf := InfeasibleLatency(g.orig.MaxLatency)
	for k, mem := range g.members {
		total := 0.0
		for _, c := range mem {
			total += g.orig.Demands[c]
		}
		demands[k] = total
		lead := mem[0]
		// The cohort's mask IS the shared member mask — alias the lead
		// member's row (mask rows are read-only shared state).
		reducedMask[k] = mask[lead]
		for j := 0; j < n; j++ {
			if !mask[lead][j] {
				latency[k][j] = inf
				continue
			}
			num, den := 0.0, 0.0
			for _, c := range mem {
				w := g.orig.Demands[c]
				if total == 0 {
					w = 1
				}
				num += w * g.orig.Latency[c][j]
				den += w
			}
			latency[k][j] = num / den
		}
	}
	p := &opt.Problem{
		System:     g.orig.System,
		Demands:    demands,
		Latency:    latency,
		MaxLatency: g.orig.MaxLatency,
	}
	// Prime the reduced problem's cached feasibility views: the grouping
	// already knows the cohort masks exactly, so the first solver (or
	// packed-adapter) touch must not re-derive them from the sentinel
	// latencies. The |K|×|N| sparsity build is cheap next to grouping.
	p.PrimeMask(reducedMask, opt.NewSparsity(reducedMask))
	return p
}

// K returns the cohort count |K|.
func (g *Grouping) K() int { return len(g.members) }

// C returns the raw client count |C|.
func (g *Grouping) C() int { return len(g.of) }

// Quantum returns the latency quantization step the grouping settled on
// (it may exceed Options.Quantum when MaxCohorts forced coarsening).
func (g *Grouping) Quantum() float64 { return g.quantum }

// Ratio returns the compression ratio |C|/|K|.
func (g *Grouping) Ratio() float64 { return float64(g.C()) / float64(g.K()) }

// Members returns cohort k's client indices. Read-only.
func (g *Grouping) Members(k int) []int { return g.members[k] }

// CohortOf returns the cohort index of client c.
func (g *Grouping) CohortOf(c int) int { return g.of[c] }

// Reduced returns the cohort-level problem the distributed rounds solve.
// Read-only; it shares the original problem's System.
func (g *Grouping) Reduced() *opt.Problem { return g.reduced }

// Orig returns the full per-client problem the grouping was built from.
// Read-only.
func (g *Grouping) Orig() *opt.Problem { return g.orig }

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

// AggregateRows folds a per-client matrix (|C|×|N|) into cohort rows by
// summation — the adjoint of Disaggregate, used to seed warm starts at
// cohort granularity from a per-client history.
func (g *Grouping) AggregateRows(full [][]float64) [][]float64 {
	n := g.orig.N()
	out := opt.NewMatrix(g.K(), n)
	for c, k := range g.of {
		if c >= len(full) {
			break
		}
		for j, v := range full[c] {
			out[k][j] += v
		}
	}
	return out
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
