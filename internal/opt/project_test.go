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

func TestProjectCappedSimplexRespectsCaps(t *testing.T) {
	x := []float64{10, 0, 0}
	u := []float64{2, 3, 4}
	if err := ProjectCappedSimplex(x, u, 5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum(x)-5) > 1e-6 {
		t.Fatalf("sum = %g, want 5", sum(x))
	}
	for i := range x {
		if x[i] < -1e-9 || x[i] > u[i]+1e-9 {
			t.Fatalf("x[%d] = %g outside [0, %g]", i, x[i], u[i])
		}
	}
	// The first coordinate should be saturated at its cap.
	if math.Abs(x[0]-2) > 1e-6 {
		t.Fatalf("x[0] = %g, want cap 2", x[0])
	}
}

func TestProjectCappedSimplexEmptySet(t *testing.T) {
	x := []float64{1, 1}
	if err := ProjectCappedSimplex(x, []float64{1, 1}, 5); err == nil {
		t.Fatal("sum 5 with caps totalling 2 accepted")
	}
}

func TestProjectCappedSimplexExactCapSum(t *testing.T) {
	x := []float64{0, 0}
	u := []float64{2, 3}
	if err := ProjectCappedSimplex(x, u, 5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-6 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("got %v, want caps (2,3)", x)
	}
}

// Property: capped-simplex projection is feasible and idempotent, and
// agrees with plain simplex projection when caps are slack.
func TestProjectCappedSimplexProperties(t *testing.T) {
	r := sim.NewRand(1234)
	for trial := 0; trial < 500; trial++ {
		d := 1 + r.Intn(10)
		x := make([]float64, d)
		u := make([]float64, d)
		for i := range x {
			x[i] = r.Range(-10, 10)
			u[i] = r.Range(0, 8)
		}
		s := r.Range(0, sum(u))
		if err := ProjectCappedSimplex(x, u, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(sum(x)-s) > 1e-6*(1+s) {
			t.Fatalf("trial %d: sum %g, want %g", trial, sum(x), s)
		}
		for i := range x {
			if x[i] < -1e-9 || x[i] > u[i]+1e-9 {
				t.Fatalf("trial %d: x[%d]=%g outside [0,%g]", trial, i, x[i], u[i])
			}
		}
		// Idempotence.
		y := append([]float64(nil), x...)
		if err := ProjectCappedSimplex(y, u, s); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-6 {
				t.Fatalf("trial %d: not idempotent at %d: %g vs %g", trial, i, x[i], y[i])
			}
		}
	}
}

func TestCappedAgreesWithPlainWhenCapsSlack(t *testing.T) {
	r := sim.NewRand(55)
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(8)
		s := r.Range(0, 5)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.Range(-5, 5)
		}
		plain := append([]float64(nil), x...)
		projectSimplex(plain, s)
		u := make([]float64, d)
		for i := range u {
			u[i] = s + 1 // cap slack: can never bind
		}
		capped := append([]float64(nil), x...)
		if err := ProjectCappedSimplex(capped, u, s); err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if math.Abs(plain[i]-capped[i]) > 1e-6 {
				t.Fatalf("trial %d: plain %v vs capped %v", trial, plain, capped)
			}
		}
	}
}

func TestProjectHalfspaceSumLE(t *testing.T) {
	x := []float64{3, 3}
	ProjectHalfspaceSumLE(x, 10)
	if x[0] != 3 || x[1] != 3 {
		t.Fatalf("interior point moved: %v", x)
	}
	ProjectHalfspaceSumLE(x, 4)
	if math.Abs(sum(x)-4) > 1e-12 {
		t.Fatalf("sum = %g, want 4", sum(x))
	}
	if math.Abs(x[0]-2) > 1e-12 {
		t.Fatalf("excess not removed uniformly: %v", x)
	}
}

func TestProjectMaskedCappedSimplex(t *testing.T) {
	x := []float64{5, 5, 5}
	u := []float64{10, 10, 10}
	allowed := []bool{true, false, true}
	if err := ProjectMaskedCappedSimplex(x, u, allowed, 6); err != nil {
		t.Fatal(err)
	}
	if x[1] != 0 {
		t.Fatalf("masked coordinate nonzero: %v", x)
	}
	if math.Abs(sum(x)-6) > 1e-6 {
		t.Fatalf("sum = %g, want 6", sum(x))
	}
	if math.Abs(x[0]-3) > 1e-6 || math.Abs(x[2]-3) > 1e-6 {
		t.Fatalf("split not symmetric: %v", x)
	}
}

func TestProjectMaskedCappedSimplexAllMasked(t *testing.T) {
	x := []float64{1, 1}
	err := ProjectMaskedCappedSimplex(x, []float64{5, 5}, []bool{false, false}, 3)
	if err == nil {
		t.Fatal("required sum with no allowed coordinates accepted")
	}
	// Zero sum with no allowed coordinates is fine.
	if err := ProjectMaskedCappedSimplex(x, []float64{5, 5}, []bool{false, false}, 0); err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("got %v, want zeros", x)
	}
}
