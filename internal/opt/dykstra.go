package opt

import "fmt"

// Dykstra's alternating projection algorithm for the Euclidean projection
// onto an intersection of convex sets, given the individual projections.
// Unlike plain alternating projections, Dykstra's correction terms make the
// limit the true nearest point of the intersection, which the optimization
// theory for projected (sub)gradient methods requires.

// SetProjection projects its argument matrix onto one convex set, in place.
type SetProjection func(x [][]float64) error

// DykstraOptions tunes the alternating-projection loop.
type DykstraOptions struct {
	// MaxSweeps bounds full passes over all sets. Default 200.
	MaxSweeps int
	// Tol stops when successive sweeps move the iterate less than Tol in
	// Frobenius norm. Default 1e-9.
	Tol float64
}

func (o *DykstraOptions) defaults() {
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
}

// Dykstra projects x in place onto the intersection of the given sets.
// It returns the number of sweeps performed, or an error if any individual
// projection fails (e.g. an empty capped simplex).
func Dykstra(x [][]float64, sets []SetProjection, opts DykstraOptions) (int, error) {
	opts.defaults()
	if len(sets) == 0 {
		return 0, nil
	}
	rows := len(x)
	cols := 0
	if rows > 0 {
		cols = len(x[0])
	}
	// One correction matrix per set.
	corrections := make([][][]float64, len(sets))
	for i := range corrections {
		corrections[i] = NewMatrix(rows, cols)
	}
	scratch := NewMatrix(rows, cols)
	// inAllSets reports whether x is within tol of every set. Checking set
	// membership directly (rather than per-sweep movement) is essential:
	// Dykstra's iterate can sit still for several sweeps while correction
	// terms are still accumulating, so a movement-based stop fires early.
	inAllSets := func() (bool, error) {
		for i, project := range sets {
			Copy(scratch, x)
			if err := project(scratch); err != nil {
				return false, fmt.Errorf("opt: dykstra set %d: %w", i, err)
			}
			if Dist(scratch, x) > opts.Tol {
				return false, nil
			}
		}
		return true, nil
	}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		for i, project := range sets {
			// y = x + correction_i ; x = P_i(y) ; correction_i = y − x.
			AXPY(x, 1, corrections[i])
			Copy(corrections[i], x)
			if err := project(x); err != nil {
				return sweep, fmt.Errorf("opt: dykstra set %d: %w", i, err)
			}
			AXPY(corrections[i], -1, x)
		}
		ok, err := inAllSets()
		if err != nil {
			return sweep, err
		}
		if ok {
			return sweep, nil
		}
	}
	return opts.MaxSweeps, nil
}

// FeasibleSetProjections builds the set list describing the global feasible
// region of prob:
//
//  1. per-row masked capped simplexes  {Σ_n p_{c,n} = R_c, 0 ≤ p ≤ R_c,
//     mask} — demand, box and latency constraints, and
//  2. per-column halfspaces            {Σ_c p_{c,n} ≤ B_n} — capacity.
//
// Their intersection is exactly the constraint set of Eq. 2. Dykstra over
// these dense sets is the reference the packed SparseProjector (which
// ProjectFeasible runs) is tested against.
func FeasibleSetProjections(prob *Problem) []SetProjection {
	mask := prob.Allowed()
	caps := prob.Caps()
	rowsSet := func(x [][]float64) error {
		for c := range x {
			if err := ProjectMaskedCappedSimplex(x[c], caps[c], mask[c], prob.Demands[c]); err != nil {
				return fmt.Errorf("client %d: %w", c, err)
			}
		}
		return nil
	}
	col := make([]float64, prob.C())
	colsSet := func(x [][]float64) error {
		for j := 0; j < prob.N(); j++ {
			for c := range x {
				col[c] = x[c][j]
			}
			ProjectHalfspaceSumLE(col, prob.System.Replicas[j].Bandwidth)
			for c := range x {
				x[c][j] = col[c]
			}
		}
		return nil
	}
	return []SetProjection{rowsSet, colsSet}
}
