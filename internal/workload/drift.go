package workload

import (
	"fmt"

	"edr/internal/sim"
)

// Drift perturbs a per-client demand vector between scheduling rounds:
// the steady-state churn model for the incremental re-optimization
// experiments. Each round, a uniformly chosen Fraction of the clients
// move their demand by a uniform relative factor in ±Magnitude; the rest
// re-submit unchanged. Fraction 0 models a perfectly quiet fleet (every
// round's dirty set is empty), Fraction 1 re-randomizes everyone (every
// round is effectively full).
type Drift struct {
	// Fraction of clients perturbed per round, in [0, 1].
	Fraction float64
	// Magnitude is the max relative demand change for a perturbed client,
	// > 0 (e.g. 0.3 moves demand by up to ±30%).
	Magnitude float64
}

// Apply returns a copy of demands with a Fraction-sized uniformly chosen
// subset perturbed by ±Magnitude relative. The input is not modified;
// drawing the subset and the factors consumes r deterministically.
func (d Drift) Apply(r *sim.Rand, demands []float64) []float64 {
	if d.Fraction < 0 || d.Fraction > 1 {
		panic(fmt.Sprintf("workload: Drift.Fraction = %g, need [0, 1]", d.Fraction))
	}
	if d.Magnitude < 0 {
		panic(fmt.Sprintf("workload: Drift.Magnitude = %g, need >= 0", d.Magnitude))
	}
	out := append([]float64(nil), demands...)
	k := int(d.Fraction*float64(len(demands)) + 0.5)
	if k == 0 {
		return out
	}
	// Partial Fisher–Yates: the first k entries of idx are a uniform
	// k-subset of the clients.
	idx := make([]int, len(demands))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	for _, i := range idx[:k] {
		out[i] *= 1 + r.Range(-d.Magnitude, d.Magnitude)
		if out[i] <= 0 {
			out[i] = demands[i] // keep demands positive whatever Magnitude
		}
	}
	return out
}
