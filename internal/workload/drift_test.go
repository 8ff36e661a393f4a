package workload

import (
	"math"
	"testing"

	"edr/internal/sim"
)

func TestDriftApplyFractionZeroIsIdentity(t *testing.T) {
	r := sim.NewRand(1)
	base := []float64{10, 20, 30, 40}
	out := Drift{Fraction: 0, Magnitude: 0.5}.Apply(r, base)
	for i := range base {
		if out[i] != base[i] {
			t.Fatalf("client %d moved: %g -> %g", i, base[i], out[i])
		}
	}
}

func TestDriftApplyPerturbsAboutTheRightCount(t *testing.T) {
	r := sim.NewRand(7)
	base := make([]float64, 1000)
	for i := range base {
		base[i] = 50
	}
	d := Drift{Fraction: 0.1, Magnitude: 0.3}
	out := d.Apply(r, base)
	moved := 0
	for i := range base {
		if out[i] != base[i] {
			moved++
		}
		if out[i] <= 0 {
			t.Fatalf("client %d demand went non-positive: %g", i, out[i])
		}
		if rel := math.Abs(out[i]-base[i]) / base[i]; rel > d.Magnitude+1e-12 {
			t.Fatalf("client %d moved %.3f relative, magnitude is %g", i, rel, d.Magnitude)
		}
	}
	// k = 100 exactly; a perturbed client stays put only when the factor
	// draw lands exactly on 0, which has probability ~0.
	if moved != 100 {
		t.Fatalf("moved %d clients, want 100", moved)
	}
	// Input untouched.
	for i := range base {
		if base[i] != 50 {
			t.Fatalf("Apply modified its input at %d: %g", i, base[i])
		}
	}
}

func TestDriftApplyDeterministic(t *testing.T) {
	base := []float64{5, 10, 15, 20, 25, 30}
	d := Drift{Fraction: 0.5, Magnitude: 0.2}
	a := d.Apply(sim.NewRand(42), base)
	b := d.Apply(sim.NewRand(42), base)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
