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

// FuzzProjectCappedSimplex checks the bisection projection never panics
// and always lands inside the box with the right sum when the set is
// non-empty.
func FuzzProjectCappedSimplex(f *testing.F) {
	f.Add(1.0, -2.0, 3.0, 2.0, 2.0, 2.0, 3.0)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, u1, u2, u3, s float64) {
		for _, v := range []float64{a, b, c, u1, u2, u3, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return
			}
		}
		u := []float64{math.Abs(u1), math.Abs(u2), math.Abs(u3)}
		capSum := u[0] + u[1] + u[2]
		sum := math.Abs(s)
		if sum > capSum {
			sum = capSum
		}
		x := []float64{a, b, c}
		if err := ProjectCappedSimplex(x, u, sum); err != nil {
			t.Fatalf("non-empty set rejected: %v", err)
		}
		total := 0.0
		for i, v := range x {
			if v < -1e-6 || v > u[i]+1e-6 {
				t.Fatalf("x[%d] = %g outside [0, %g]", i, v, u[i])
			}
			total += v
		}
		if math.Abs(total-sum) > 1e-5*(1+sum) {
			t.Fatalf("sum = %g, want %g", total, sum)
		}
	})
}
