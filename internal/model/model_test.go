package model

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultReplica() Replica { return NewReplica("r", 5) }

func TestNewReplicaDefaults(t *testing.T) {
	r := NewReplica("replica1", 8)
	if r.Alpha != DefaultAlpha || r.Beta != DefaultBeta || r.Gamma != DefaultGamma {
		t.Fatalf("defaults = α%g β%g γ%g, want α%g β%g γ%g",
			r.Alpha, r.Beta, r.Gamma, DefaultAlpha, DefaultBeta, DefaultGamma)
	}
	if r.Bandwidth != 100 {
		t.Fatalf("default bandwidth = %g, want 100 MB/s", r.Bandwidth)
	}
	if r.Price != 8 || r.Name != "replica1" {
		t.Fatalf("price/name not carried: %+v", r)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Replica)
		ok   bool
	}{
		{"default ok", func(r *Replica) {}, true},
		{"negative price", func(r *Replica) { r.Price = -1 }, false},
		{"zero price ok", func(r *Replica) { r.Price = 0 }, true},
		{"negative alpha", func(r *Replica) { r.Alpha = -0.1 }, false},
		{"negative beta", func(r *Replica) { r.Beta = -0.1 }, false},
		{"gamma below one", func(r *Replica) { r.Gamma = 0.5 }, false},
		{"gamma one ok", func(r *Replica) { r.Gamma = 1 }, true},
		{"zero bandwidth", func(r *Replica) { r.Bandwidth = 0 }, false},
	}
	for _, tc := range cases {
		r := defaultReplica()
		tc.mut(&r)
		err := r.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestEnergyMatchesEquationSeven(t *testing.T) {
	r := defaultReplica()
	// Es = α·p + β·p³ with α=1, β=0.01, γ=3.
	for _, p := range []float64{0, 1, 10, 50.5, 100} {
		want := p + 0.01*p*p*p
		if got := r.Energy(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Energy(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestEnergyZeroLoadIsZero(t *testing.T) {
	if got := defaultReplica().Energy(0); got != 0 {
		t.Fatalf("Energy(0) = %g, want 0", got)
	}
}

func TestEnergyNegativeLoadIsNaN(t *testing.T) {
	if got := defaultReplica().Energy(-1); !math.IsNaN(got) {
		t.Fatalf("Energy(-1) = %g, want NaN", got)
	}
	if got := defaultReplica().MarginalCost(-1); !math.IsNaN(got) {
		t.Fatalf("MarginalCost(-1) = %g, want NaN", got)
	}
}

func TestCostScalesWithPrice(t *testing.T) {
	cheap := NewReplica("cheap", 1)
	dear := NewReplica("dear", 8)
	if c, d := cheap.Cost(42), dear.Cost(42); math.Abs(d-8*c) > 1e-9 {
		t.Fatalf("Cost price scaling broken: price1=%g price8=%g", c, d)
	}
}

// Property: energy is non-decreasing in load (monotonicity).
func TestEnergyMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsInf(a, 0) || math.IsInf(b, 0) || a > 1e6 || b > 1e6 {
			return true // outside the modeled regime
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		r := defaultReplica()
		return r.Energy(lo) <= r.Energy(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is convex — midpoint rule E((x+y)/2) ≤ (E(x)+E(y))/2.
func TestEnergyConvexProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > 1e5 || b > 1e5 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		r := defaultReplica()
		mid := r.Energy((a + b) / 2)
		avg := (r.Energy(a) + r.Energy(b)) / 2
		return mid <= avg+1e-6*(1+avg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MarginalCost is the derivative of Cost (finite differences).
func TestMarginalCostIsDerivative(t *testing.T) {
	r := NewReplica("r", 7)
	for _, p := range []float64{0.5, 1, 5, 20, 80} {
		h := 1e-6 * (1 + p)
		numeric := (r.Cost(p+h) - r.Cost(p-h)) / (2 * h)
		analytic := r.MarginalCost(p)
		if rel := math.Abs(numeric-analytic) / (1 + math.Abs(analytic)); rel > 1e-4 {
			t.Errorf("MarginalCost(%g) = %g, finite-diff %g", p, analytic, numeric)
		}
	}
}

func TestNewSystemRejectsEmpty(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Fatal("NewSystem(nil) accepted")
	}
}

func TestNewSystemValidatesReplicas(t *testing.T) {
	bad := NewReplica("bad", -3)
	if _, err := NewSystem([]Replica{defaultReplica(), bad}); err == nil {
		t.Fatal("NewSystem accepted invalid replica")
	}
}

func newTestSystem(t *testing.T, prices ...float64) *System {
	t.Helper()
	rs := make([]Replica, len(prices))
	for i, u := range prices {
		rs[i] = NewReplica("r", u)
	}
	s, err := NewSystem(rs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTotalCostSumsColumns(t *testing.T) {
	s := newTestSystem(t, 1, 2)
	p := [][]float64{
		{3, 4},
		{5, 6},
	}
	// Column sums: 8 and 10.
	want := 1*(8+0.01*512) + 2*(10+0.01*1000)
	got, err := s.TotalCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalCost = %g, want %g", got, want)
	}
}

func TestTotalEnergyIgnoresPrices(t *testing.T) {
	a := newTestSystem(t, 1, 1)
	b := newTestSystem(t, 20, 3)
	p := [][]float64{{2, 7}}
	ea, _ := a.TotalEnergy(p)
	eb, _ := b.TotalEnergy(p)
	if math.Abs(ea-eb) > 1e-9 {
		t.Fatalf("TotalEnergy depends on prices: %g vs %g", ea, eb)
	}
}

func TestTotalCostRaggedMatrixError(t *testing.T) {
	s := newTestSystem(t, 1, 2)
	if _, err := s.TotalCost([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := s.TotalEnergy([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("wide matrix accepted")
	}
	if _, err := s.Gradient([][]float64{{1}}); err == nil {
		t.Fatal("narrow matrix accepted by Gradient")
	}
}

func TestCostOfLoadsAgreesWithTotalCost(t *testing.T) {
	s := newTestSystem(t, 1, 8, 3)
	p := [][]float64{
		{1, 0, 2},
		{0, 5, 1},
		{4, 4, 4},
	}
	loads := []float64{5, 9, 7}
	fromMatrix, err := s.TotalCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CostOfLoads(loads); math.Abs(got-fromMatrix) > 1e-9 {
		t.Fatalf("CostOfLoads = %g, TotalCost = %g", got, fromMatrix)
	}
}

func TestCostOfLoadsWrongLengthPanics(t *testing.T) {
	s := newTestSystem(t, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("CostOfLoads with wrong length did not panic")
		}
	}()
	s.CostOfLoads([]float64{1})
}

func TestGradientConstantAlongColumns(t *testing.T) {
	s := newTestSystem(t, 2, 5)
	p := [][]float64{
		{1, 2},
		{3, 4},
		{0, 1},
	}
	g, err := s.Gradient(p)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < len(g); c++ {
		for n := range g[c] {
			if g[c][n] != g[0][n] {
				t.Fatalf("gradient differs along column %d: %g vs %g", n, g[c][n], g[0][n])
			}
		}
	}
	// And matches the analytic marginal at the column sums (4 and 7).
	for n, load := range []float64{4, 7} {
		want := s.Replicas[n].MarginalCost(load)
		if math.Abs(g[0][n]-want) > 1e-9 {
			t.Fatalf("gradient[%d] = %g, want %g", n, g[0][n], want)
		}
	}
}

// Property: the gradient is a valid subgradient of the convex objective:
// E(q) >= E(p) + <grad(p), q-p> for all feasible p, q.
func TestGradientSubgradientInequality(t *testing.T) {
	s := newTestSystem(t, 1, 8, 3)
	f := func(vals [9]float64) bool {
		p := make([][]float64, 3)
		q := make([][]float64, 3)
		for c := 0; c < 3; c++ {
			p[c] = make([]float64, 3)
			q[c] = make([]float64, 3)
			for n := 0; n < 3; n++ {
				v := math.Abs(vals[c*3+n])
				if v > 1e4 || math.IsNaN(v) || math.IsInf(v, 0) {
					return true
				}
				p[c][n] = v
				q[c][n] = math.Mod(v*1.7+1, 100)
			}
		}
		ep, err := s.TotalCost(p)
		if err != nil {
			return false
		}
		eq, err := s.TotalCost(q)
		if err != nil {
			return false
		}
		g, err := s.Gradient(p)
		if err != nil {
			return false
		}
		inner := 0.0
		for c := range p {
			for n := range p[c] {
				inner += g[c][n] * (q[c][n] - p[c][n])
			}
		}
		return eq >= ep+inner-1e-6*(1+math.Abs(eq))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeEquivalenceSmallGap(t *testing.T) {
	r := defaultReplica()
	// With β ≪ α the paper argues Es ≈ Ed; splitting over more nodes only
	// shrinks the polynomial term, so Ed ≤ Es and — in the regime where the
	// linear server term dominates (β·pᵞ ≪ α·p, i.e. p ≪ √(α/β) = 10) —
	// the gap is modest.
	es, ed, gap := r.SingleNodeEquivalence(5, 8)
	if ed > es {
		t.Fatalf("Ed = %g > Es = %g; splitting increased energy", ed, es)
	}
	if gap > 0.25 {
		t.Fatalf("relative gap %g too large for equivalence argument", gap)
	}
	// With tiny network term the gap is near zero even at high load.
	r.Beta = 1e-6
	_, _, gap = r.SingleNodeEquivalence(50, 8)
	if gap > 3e-3 {
		t.Fatalf("gap %g with β=1e-6, want ~0", gap)
	}
}

func TestSingleNodeEquivalenceZeroLoad(t *testing.T) {
	es, ed, gap := defaultReplica().SingleNodeEquivalence(0, 4)
	if es != 0 || ed != 0 || gap != 0 {
		t.Fatalf("zero load: es=%g ed=%g gap=%g, want all 0", es, ed, gap)
	}
}

func TestSingleNodeEquivalenceBadK(t *testing.T) {
	_, ed, gap := defaultReplica().SingleNodeEquivalence(10, 0)
	if !math.IsNaN(ed) || !math.IsNaN(gap) {
		t.Fatalf("k=0: ed=%g gap=%g, want NaN", ed, gap)
	}
}

func TestGammaOneIsLinear(t *testing.T) {
	r := defaultReplica()
	r.Gamma = 1
	// E = (α+β)·p exactly.
	for _, p := range []float64{0, 1, 10, 123} {
		want := (r.Alpha + r.Beta) * p
		if got := r.Energy(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("γ=1: Energy(%g) = %g, want %g", p, got, want)
		}
	}
}
