package lddm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"edr/internal/model"
	"edr/internal/sim"
)

// clientsOf packs a latency mask column into the ascending client list a
// LocalProblem carries.
func clientsOf(allowed []bool) []int {
	clients := []int{}
	for i, ok := range allowed {
		if ok {
			clients = append(clients, i)
		}
	}
	return clients
}

func localProblem(price float64, mu, demands []float64) *LocalProblem {
	clients := make([]int, len(mu))
	for i := range clients {
		clients[i] = i
	}
	return &LocalProblem{
		Replica: model.NewReplica("r", price),
		Mu:      mu,
		Demands: demands,
		Clients: clients,
	}
}

// solveLocalDense is the dense reference water-filling SolveLocal is
// checked against: it scans all |C| clients, tests the mask per client,
// sorts the candidates by μ then client id and returns a full-length
// column.
func solveLocalDense(rep model.Replica, mu, demands []float64, allowed []bool) []float64 {
	p := make([]float64, len(mu))
	order := []int{}
	for i := range mu {
		if allowed[i] && demands[i] > 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(mu[a], mu[b]), a-b) })
	s := 0.0
	budget := rep.Bandwidth
	for _, i := range order {
		if s >= budget-1e-15 {
			break
		}
		breakEven := marginalLoad(rep, -mu[i])
		if breakEven <= s {
			break
		}
		take := math.Min(demands[i], math.Min(budget, breakEven)-s)
		if take <= 0 {
			break
		}
		p[i] = take
		s += take
	}
	return p
}

// checkAgainstDense solves lp and compares it with the dense oracle bit for
// bit, returning the load it placed.
func checkAgainstDense(t *testing.T, lp *LocalProblem, allowed []bool) float64 {
	t.Helper()
	dense := solveLocalDense(lp.Replica, lp.Mu, lp.Demands, allowed)
	packed, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	s := 0.0
	for idx, i := range lp.Clients {
		if math.Float64bits(packed[idx]) != math.Float64bits(dense[i]) {
			t.Fatalf("packed[%d]=%v, dense[%d]=%v", idx, packed[idx], i, dense[i])
		}
		s += packed[idx]
	}
	for i, v := range dense {
		if !allowed[i] && v != 0 {
			t.Fatalf("dense wrote masked client %d", i)
		}
	}
	return s
}

// The first 40 trials are small supports with continuous μ. The rest reach
// m ≈ 200 with μ on eight levels, so ties are common and their order decides
// who is served, and the deepest level makes capacity bind in about half.
func TestSolveLocalMatchesDenseOracle(t *testing.T) {
	r := sim.NewRand(53)
	binding := 0
	for trial := 0; trial < 120; trial++ {
		wide := trial >= 40
		c := r.IntBetween(1, 12)
		if wide {
			c = r.IntBetween(13, 200)
		}
		rep := model.NewReplica("r", r.Range(1, 20))
		rep.Bandwidth = r.Range(20, 120)
		deepest := rep.MarginalCost(rep.Bandwidth) * r.Range(0.5, 2)
		mu := make([]float64, c)
		demands := make([]float64, c)
		allowed := make([]bool, c)
		for i := 0; i < c; i++ {
			if wide {
				mu[i] = -deepest * float64(r.Intn(8)) / 7
			} else {
				mu[i] = r.Range(-2, 2)
			}
			demands[i] = r.Range(0, 30)
			// The last ten small trials run the full (density-1) client list.
			allowed[i] = (trial >= 30 && !wide) || r.Float64() < 0.7
		}
		lp := &LocalProblem{Replica: rep, Mu: mu, Demands: demands, Clients: clientsOf(allowed)}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			if s := checkAgainstDense(t, lp, allowed); s >= rep.Bandwidth-1e-9 {
				binding++
			}
		})
	}
	if binding < 20 {
		t.Fatalf("capacity bound in %d trials; want at least 20", binding)
	}
}

// FuzzWaterFilling compares SolveLocal with the dense oracle bit for bit.
// Each client takes three bytes: μ on a coarse grid (so ties are common),
// its demand (zero included), and whether it is within the latency bound.
// The first argument picks the price and, by its top bit, a linear cost
// (break-even +Inf); the second the capacity.
func FuzzWaterFilling(f *testing.F) {
	f.Add(uint8(3), uint16(800), []byte{10, 40, 0, 10, 40, 0, 10, 40, 0, 250, 8, 1, 60, 200, 0})
	f.Add(uint8(0x85), uint16(100), []byte{0, 255, 0, 0, 255, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, price uint8, bandwidth uint16, data []byte) {
		rep := model.NewReplica("r", 1+float64(price&0x1f))
		if price&0x80 != 0 {
			rep.Gamma = 1
		}
		rep.Bandwidth = 1 + float64(bandwidth)/16
		c := min(len(data)/3, 256)
		if c == 0 {
			return
		}
		mu, demands, allowed := make([]float64, c), make([]float64, c), make([]bool, c)
		for i := range mu {
			b := data[3*i:]
			mu[i] = -float64(b[0]) * 4
			demands[i] = float64(b[1]) / 4
			allowed[i] = b[2]&1 == 0
		}
		checkAgainstDense(t, &LocalProblem{Replica: rep, Mu: mu, Demands: demands, Clients: clientsOf(allowed)}, allowed)
	})
}

func TestSolveLocalAllZeroMu(t *testing.T) {
	// With μ = 0, every marginal is positive (serving costs energy and
	// earns nothing), so the optimum is to serve nothing.
	lp := localProblem(5, []float64{0, 0}, []float64{10, 10})
	p, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if v != 0 {
			t.Fatalf("p[%d] = %g, want 0 at zero multipliers", i, v)
		}
	}
}

func TestSolveLocalNegativeMuServes(t *testing.T) {
	// Strongly negative μ makes serving worthwhile up to the cap.
	lp := localProblem(1, []float64{-1e6}, []float64{10})
	p, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-10) > 1e-9 {
		t.Fatalf("p = %g, want full demand 10", p[0])
	}
}

func TestSolveLocalRespectsBandwidth(t *testing.T) {
	lp := localProblem(1, []float64{-1e6, -1e6}, []float64{80, 80})
	p, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	if s := p[0] + p[1]; s > lp.Replica.Bandwidth+1e-9 {
		t.Fatalf("total %g exceeds bandwidth %g", s, lp.Replica.Bandwidth)
	}
}

func TestSolveLocalPrefersLowerMu(t *testing.T) {
	// Capacity 100; two clients demanding 80 each; the lower-μ client is
	// served first.
	lp := localProblem(1, []float64{-1e6, -0.5e6}, []float64{80, 80})
	p, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-80) > 1e-9 {
		t.Fatalf("low-μ client got %g, want 80", p[0])
	}
	if math.Abs(p[1]-20) > 1e-9 {
		t.Fatalf("high-μ client got %g, want 20 (remaining capacity)", p[1])
	}
}

func TestSolveLocalStopsAtBreakEven(t *testing.T) {
	// Moderate μ: serving stops where marginal cost reaches −μ.
	// Marginal = u(α + βγS²) = 1 + 0.03S². With μ = −4: S* = √(3/0.03) = 10.
	lp := localProblem(1, []float64{-4}, []float64{50})
	p, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-10) > 1e-6 {
		t.Fatalf("p = %g, want break-even 10", p[0])
	}
}

func TestSolveLocalMaskedClient(t *testing.T) {
	lp := localProblem(1, []float64{-1e6, -1e6}, []float64{10, 10})
	lp.Clients = []int{1} // client 0 is beyond the latency bound
	p, err := SolveLocal(lp)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 {
		t.Fatalf("column has %d entries for 1 feasible client", len(p))
	}
	if math.Abs(p[0]-10) > 1e-9 {
		t.Fatalf("allowed client got %g", p[0])
	}
}

func TestSolveLocalValidate(t *testing.T) {
	lp := localProblem(1, []float64{0}, []float64{1, 2})
	if _, err := SolveLocal(lp); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := SolveLocal(&LocalProblem{}); err == nil {
		t.Fatal("empty local problem accepted")
	}
	lp = localProblem(1, []float64{0}, []float64{1})
	lp.Clients = nil
	if _, err := SolveLocal(lp); err == nil {
		t.Fatal("local problem without a client list accepted")
	}
}

func TestMarginalLoad(t *testing.T) {
	r := model.NewReplica("r", 2)
	// marginal(S) = 2(1 + 0.03S²); at S=10: 2·4 = 8. Invert.
	if got := marginalLoad(r, 8); math.Abs(got-10) > 1e-9 {
		t.Fatalf("marginalLoad(8) = %g, want 10", got)
	}
	// At or below the base marginal 2: zero load.
	if got := marginalLoad(r, 2); got != 0 {
		t.Fatalf("marginalLoad(base) = %g, want 0", got)
	}
	if got := marginalLoad(r, 1); got != 0 {
		t.Fatalf("marginalLoad(below base) = %g, want 0", got)
	}
	// Linear replica (γ=1): constant marginal, infinite break-even.
	r.Gamma = 1
	if got := marginalLoad(r, 100); !math.IsInf(got, 1) {
		t.Fatalf("γ=1 marginalLoad = %g, want +Inf", got)
	}
}

// Property: water-filling matches projected gradient descent on random
// local problems (the two independent solvers agree on the objective).
func TestSolveLocalMatchesPGDProperty(t *testing.T) {
	r := sim.NewRand(42)
	for trial := 0; trial < 40; trial++ {
		c := 1 + r.Intn(6)
		mu := make([]float64, c)
		demands := make([]float64, c)
		allowed := make([]bool, c)
		for i := 0; i < c; i++ {
			mu[i] = r.Range(-40, 5)
			demands[i] = r.Range(1, 30)
			allowed[i] = r.Float64() < 0.85
		}
		lp := &LocalProblem{
			Replica: model.NewReplica("r", float64(r.IntBetween(1, 20))),
			Mu:      mu,
			Demands: demands,
			Clients: clientsOf(allowed),
		}
		exact, err := SolveLocal(lp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		approx, err := solveLocalPGD(lp, 4000, 0.5)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fExact := localObjective(lp, exact)
		fApprox := localObjective(lp, approx)
		// The exact solver must never be worse than PGD (beyond noise).
		if fExact > fApprox+1e-3*(1+math.Abs(fApprox)) {
			t.Fatalf("trial %d: water-filling %g worse than PGD %g\nmu=%v demands=%v allowed=%v",
				trial, fExact, fApprox, mu, demands, allowed)
		}
	}
}

// Property: the water-filling output satisfies the local KKT conditions.
func TestSolveLocalKKTProperty(t *testing.T) {
	r := sim.NewRand(77)
	for trial := 0; trial < 60; trial++ {
		c := 1 + r.Intn(5)
		mu := make([]float64, c)
		demands := make([]float64, c)
		allowed := make([]bool, c)
		for i := 0; i < c; i++ {
			mu[i] = r.Range(-30, 2)
			demands[i] = r.Range(1, 25)
			allowed[i] = true
		}
		lp := &LocalProblem{
			Replica: model.NewReplica("r", float64(r.IntBetween(1, 20))),
			Mu:      mu,
			Demands: demands,
			Clients: clientsOf(allowed),
		}
		p, err := SolveLocal(lp)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range p {
			s += v
		}
		if s > lp.Replica.Bandwidth+1e-9 {
			t.Fatalf("trial %d: capacity violated", trial)
		}
		atCapacity := s >= lp.Replica.Bandwidth-1e-9
		marginal := lp.Replica.MarginalCost(s)
		for i := 0; i < c; i++ { // every client is allowed: p is full-length
			g := marginal + mu[i] // ∂f/∂p_i
			switch {
			case p[i] < -1e-12 || p[i] > demands[i]+1e-9:
				t.Fatalf("trial %d: box violated: p[%d]=%g", trial, i, p[i])
			case p[i] <= 1e-9:
				// At lower bound: gradient must be >= 0 (unless capacity
				// binds, which also justifies zero).
				if g < -1e-6 && !atCapacity {
					t.Fatalf("trial %d: client %d at 0 with negative gradient %g", trial, i, g)
				}
			case p[i] >= demands[i]-1e-9:
				// At cap: gradient must be <= 0.
				if g > 1e-6 {
					t.Fatalf("trial %d: client %d at cap with positive gradient %g", trial, i, g)
				}
			default:
				// Interior: gradient ≈ 0 (or capacity binds).
				if math.Abs(g) > 1e-5 && !atCapacity {
					t.Fatalf("trial %d: client %d interior with gradient %g", trial, i, g)
				}
			}
		}
	}
}

func TestSolveLocalPGDBadArgs(t *testing.T) {
	lp := localProblem(1, []float64{0}, []float64{1})
	if _, err := solveLocalPGD(lp, 0, 1); err == nil {
		t.Fatal("zero iters accepted")
	}
	if _, err := solveLocalPGD(lp, 10, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

// localObjective evaluates E_n(S) + Σ μ_c p_c for a candidate column p
// over lp.Clients.
func localObjective(lp *LocalProblem, p []float64) float64 {
	s := 0.0
	linear := 0.0
	for idx, v := range p {
		s += v
		linear += lp.Mu[lp.Clients[idx]] * v
	}
	return lp.Replica.Cost(s) + linear
}

// solveLocalPGD solves the same local problem by projected gradient
// descent — a slower, independent method the water-filling is
// cross-checked against.
func solveLocalPGD(lp *LocalProblem, iters int, step float64) ([]float64, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	if iters <= 0 || step <= 0 {
		return nil, fmt.Errorf("lddm: solveLocalPGD needs positive iters and step")
	}
	p := make([]float64, len(lp.Clients))
	for k := 1; k <= iters; k++ {
		s := 0.0
		for _, v := range p {
			s += v
		}
		marginal := lp.Replica.MarginalCost(s)
		d := step / math.Sqrt(float64(k))
		for idx, i := range lp.Clients {
			p[idx] -= d * (marginal + lp.Mu[i])
			if p[idx] < 0 {
				p[idx] = 0
			} else if p[idx] > lp.Demands[i] {
				p[idx] = lp.Demands[i]
			}
		}
		// Re-impose the capacity budget.
		s = 0.0
		for _, v := range p {
			s += v
		}
		if s > lp.Replica.Bandwidth {
			scale := lp.Replica.Bandwidth / s
			for i := range p {
				p[i] *= scale
			}
		}
	}
	return p, nil
}
