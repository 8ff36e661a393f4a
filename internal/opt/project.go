package opt

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the one vector projection every solver shares: the
// exact sort-based simplex projection (Held, Wolfe & Crowder 1974; Duchi
// et al. 2008). The matrix-level projection onto the feasible region runs
// it on each packed row inside SparseProjector's Dykstra sweeps (see
// sparse_project.go).

// ProjectSimplexScratch projects x in place onto {y : y ≥ 0, Σy = s} using
// the exact sort-and-threshold algorithm, no bisection. s must be ≥ 0. The
// sort runs in caller scratch (len ≥ len(x)) rather than a per-call
// allocation, as an insertion sort for the short vectors the packed sparse
// kernels hand it (a masked row holds a handful of entries).
func ProjectSimplexScratch(x, scratch []float64, s float64) {
	if s < 0 {
		panic(fmt.Sprintf("opt: ProjectSimplexScratch with negative sum %g", s))
	}
	d := len(x)
	if d == 0 {
		return
	}
	if s == 0 {
		for i := range x {
			x[i] = 0
		}
		return
	}
	sorted := scratch[:d]
	copy(sorted, x)
	if d <= 32 {
		for i := 1; i < d; i++ {
			v := sorted[i]
			j := i - 1
			for j >= 0 && sorted[j] < v {
				sorted[j+1] = sorted[j]
				j--
			}
			sorted[j+1] = v
		}
	} else {
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	}
	cum := 0.0
	theta := 0.0
	for k := 0; k < d; k++ {
		cum += sorted[k]
		t := (cum - s) / float64(k+1)
		if sorted[k]-t > 0 {
			theta = t
		} else {
			break
		}
	}
	for i := range x {
		x[i] = math.Max(x[i]-theta, 0)
	}
}
