package opt

import (
	"math"
	"testing"
	"testing/quick"

	"edr/internal/sim"
)

func sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// projectSimplex is ProjectSimplexScratch with scratch of its own.
func projectSimplex(x []float64, s float64) {
	ProjectSimplexScratch(x, make([]float64, len(x)), s)
}

func TestProjectSimplexBasic(t *testing.T) {
	x := []float64{0.5, 0.5}
	projectSimplex(x, 1)
	if math.Abs(x[0]-0.5) > 1e-12 || math.Abs(x[1]-0.5) > 1e-12 {
		t.Fatalf("point already on simplex moved: %v", x)
	}

	x = []float64{2, 0}
	projectSimplex(x, 1)
	// Projection of (2,0) onto the unit simplex is (1.5,−0.5) clipped → (1,0)?
	// The exact solution: θ = 0.5 with support {0} → x = (1.5−θ?..). Work it
	// out: sorted=(2,0); k=0: t=(2−1)/1=1, 2−1>0 ⇒ θ=1; k=1: t=(2−1)/2=0.5,
	// 0−0.5<0 stop. x = (max(2−1,0), max(0−1,0)) = (1, 0).
	if math.Abs(x[0]-1) > 1e-12 || x[1] != 0 {
		t.Fatalf("projectSimplex((2,0),1) = %v, want (1,0)", x)
	}
}

func TestProjectSimplexZeroSum(t *testing.T) {
	x := []float64{3, -2, 5}
	projectSimplex(x, 0)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("projectSimplex(_, 0) = %v", x)
		}
	}
}

func TestProjectSimplexNegativeSumPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative simplex sum did not panic")
		}
	}()
	projectSimplex([]float64{1}, -1)
}

// Property: the result is feasible — nonnegative and sums to s — on short
// vectors (insertion sort) and long ones (sort.Sort) alike.
func TestProjectSimplexFeasibleProperty(t *testing.T) {
	r := sim.NewRand(99)
	for trial := 0; trial < 500; trial++ {
		d := 1 + r.Intn(12)
		if trial%5 == 4 {
			d = 33 + r.Intn(32)
		}
		s := r.Range(0, 50)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.Range(-20, 20)
		}
		projectSimplex(x, s)
		for _, v := range x {
			if v < -1e-12 {
				t.Fatalf("negative coordinate %g", v)
			}
		}
		if math.Abs(sum(x)-s) > 1e-9*(1+s) {
			t.Fatalf("sum = %g, want %g", sum(x), s)
		}
	}
}

// Property: KKT optimality — the projection y of v satisfies
// (v−y)·(z−y) ≤ 0 for every feasible z, i.e. y is the nearest point.
// We check against random feasible z.
func TestProjectSimplexOptimalityProperty(t *testing.T) {
	r := sim.NewRand(7)
	for trial := 0; trial < 300; trial++ {
		d := 2 + r.Intn(8)
		s := r.Range(0.1, 10)
		v := make([]float64, d)
		for i := range v {
			v[i] = r.Range(-5, 5)
		}
		y := append([]float64(nil), v...)
		projectSimplex(y, s)
		// Random feasible z: uniform Dirichlet-ish point scaled to s.
		z := make([]float64, d)
		for i := range z {
			z[i] = r.Exp(1)
		}
		zs := sum(z)
		for i := range z {
			z[i] *= s / zs
		}
		inner := 0.0
		for i := range v {
			inner += (v[i] - y[i]) * (z[i] - y[i])
		}
		if inner > 1e-7 {
			t.Fatalf("optimality violated: <v-y, z-y> = %g > 0", inner)
		}
	}
}

// Property: idempotence — projecting a projected point is a no-op.
func TestProjectSimplexIdempotentProperty(t *testing.T) {
	f := func(raw [6]float64, sRaw float64) bool {
		s := math.Abs(sRaw)
		if s > 1e6 || math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		x := make([]float64, 6)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			x[i] = v
		}
		projectSimplex(x, s)
		y := append([]float64(nil), x...)
		projectSimplex(y, s)
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9*(1+s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
