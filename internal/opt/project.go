package opt

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the Euclidean projection primitives used by every
// solver: the exact sort-based simplex projection (Held, Wolfe & Crowder
// 1974; Duchi et al. 2008), the bisection-based capped simplex
// projection, and halfspace projection. All operate in place on vectors;
// the matrix-level feasible-set projection composes them via Dykstra's
// algorithm (see dykstra.go).

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

// ProjectCappedSimplex projects x in place onto
// {y : 0 ≤ y_i ≤ u_i, Σy = s}. It requires 0 ≤ s ≤ Σu (otherwise the set
// is empty) and solves for the threshold θ with y_i = clamp(x_i − θ, 0, u_i)
// by bisection, which handles per-coordinate caps that the plain sort
// method cannot.
func ProjectCappedSimplex(x, u []float64, s float64) error {
	if len(x) != len(u) {
		panic("opt: ProjectCappedSimplex length mismatch")
	}
	capSum := 0.0
	for i, ui := range u {
		if ui < 0 {
			panic(fmt.Sprintf("opt: ProjectCappedSimplex negative cap u[%d]=%g", i, ui))
		}
		capSum += ui
	}
	const tol = 1e-12
	if s < -tol || s > capSum+tol {
		return fmt.Errorf("opt: capped simplex empty: need sum %g with caps totalling %g", s, capSum)
	}
	s = math.Max(0, math.Min(s, capSum))
	sumAt := func(theta float64) float64 {
		total := 0.0
		for i := range x {
			v := x[i] - theta
			if v < 0 {
				v = 0
			} else if v > u[i] {
				v = u[i]
			}
			total += v
		}
		return total
	}
	// Bracket θ: sumAt is non-increasing in θ.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range x {
		lo = math.Min(lo, x[i]-u[i]) // θ ≤ lo ⇒ all coordinates at cap
		hi = math.Max(hi, x[i])      // θ ≥ hi ⇒ all coordinates at zero
	}
	lo -= 1
	hi += 1
	for iter := 0; iter < 200 && hi-lo > 1e-12*(1+math.Abs(hi)); iter++ {
		mid := (lo + hi) / 2
		if sumAt(mid) > s {
			lo = mid
		} else {
			hi = mid
		}
	}
	theta := (lo + hi) / 2
	for i := range x {
		v := x[i] - theta
		if v < 0 {
			v = 0
		} else if v > u[i] {
			v = u[i]
		}
		x[i] = v
	}
	// Exact-sum polish: distribute the residual over interior coordinates.
	residual := s
	for _, v := range x {
		residual -= v
	}
	if math.Abs(residual) > 1e-9 {
		interior := 0
		for i := range x {
			if x[i] > 0 && x[i] < u[i] {
				interior++
			}
		}
		if interior > 0 {
			per := residual / float64(interior)
			for i := range x {
				if x[i] > 0 && x[i] < u[i] {
					x[i] = math.Max(0, math.Min(u[i], x[i]+per))
				}
			}
		}
	}
	return nil
}

// ProjectHalfspaceSumLE projects x in place onto {y : Σy ≤ b}: if the sum
// already satisfies the bound nothing changes, otherwise the excess is
// removed uniformly (the Euclidean projection onto the hyperplane Σy = b).
func ProjectHalfspaceSumLE(x []float64, b float64) {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum <= b {
		return
	}
	shift := (sum - b) / float64(len(x))
	for i := range x {
		x[i] -= shift
	}
}

// ProjectMaskedCappedSimplex projects x onto
// {y : Σy = s, 0 ≤ y_i ≤ u_i, y_i = 0 where !allowed_i} in place.
func ProjectMaskedCappedSimplex(x, u []float64, allowed []bool, s float64) error {
	if len(x) != len(allowed) {
		panic("opt: ProjectMaskedCappedSimplex length mismatch")
	}
	// Work on the allowed sub-vector; forbidden coordinates are fixed at 0.
	idx := make([]int, 0, len(x))
	for i, ok := range allowed {
		if ok {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		if s > 1e-12 {
			return fmt.Errorf("opt: no feasible coordinate for required sum %g", s)
		}
		for i := range x {
			x[i] = 0
		}
		return nil
	}
	sub := make([]float64, len(idx))
	subU := make([]float64, len(idx))
	for k, i := range idx {
		sub[k] = x[i]
		subU[k] = u[i]
	}
	if err := ProjectCappedSimplex(sub, subU, s); err != nil {
		return err
	}
	for i := range x {
		x[i] = 0
	}
	for k, i := range idx {
		x[i] = sub[k]
	}
	return nil
}
