package opt

import (
	"math"
	"testing"
)

// FuzzProjectSimplex hardens the core projection against arbitrary
// numeric input: for finite inputs the result must be feasible; no input
// may panic.
func FuzzProjectSimplex(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-1e9, 1e9, 0.5, -0.5, 10.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, s float64) {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(d) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) || math.IsInf(d, 0) {
			return
		}
		sum := math.Abs(s)
		if math.IsNaN(sum) || math.IsInf(sum, 0) || sum > 1e12 {
			return
		}
		x := []float64{a, b, c, d}
		projectSimplex(x, sum)
		total := 0.0
		for i, v := range x {
			if v < -1e-6 {
				t.Fatalf("negative coordinate x[%d] = %g", i, v)
			}
			total += v
		}
		if math.Abs(total-sum) > 1e-6*(1+sum)+1e-4*math.Max(math.Abs(a)+math.Abs(b)+math.Abs(c)+math.Abs(d), 1) {
			t.Fatalf("sum = %g, want %g (input %v)", total, sum, []float64{a, b, c, d})
		}
	})
}
