package admm

import (
	"fmt"
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/sim"
)

// proximal solves the subproblem as a replica and its initiator do
// together: the replica's shift, rebuilt into the column.
func proximal(rep model.Replica, caps, target []float64, rho float64) ([]float64, error) {
	s, err := ProximalShift(rep, caps, target, rho)
	if err != nil {
		return nil, err
	}
	z := make([]float64, len(target))
	ProximalColumn(z, caps, target, s)
	return z, nil
}

// checkProxKKT verifies that z solves the proximal subproblem from its KKT
// conditions alone: z is feasible, every entry is clip(t_c − λ/ρ, 0, cap_c)
// for one shared λ, and that λ equals E′(Σz) when the capacity is slack or
// reaches at least E′(B) when the column fills it. The entries pin λ to an
// interval — a free entry fixes it, an entry at 0 bounds it below, an entry
// at a positive cap bounds it above — and the stationarity condition must
// meet that interval. It returns whether the capacity was binding.
func checkProxKKT(rep model.Replica, caps, target []float64, rho float64, z []float64) (binding bool, err error) {
	if len(z) != len(target) {
		return false, fmt.Errorf("%d entries for %d targets", len(z), len(target))
	}
	scale := 1.0
	for c, t := range target {
		scale = math.Max(scale, math.Max(math.Abs(t), caps[c]))
	}
	s := 0.0
	muLo, muHi := math.Inf(-1), math.Inf(1) // the shift μ = λ/ρ
	for c, v := range z {
		u, t := caps[c], target[c]
		if !(v >= 0 && v <= u) {
			return false, fmt.Errorf("entry %d = %v outside [0, %v]", c, v, u)
		}
		s += v
		switch {
		case u == 0:
			// Any multiplier leaves a zero-capped entry at zero.
		case v == 0:
			muLo = math.Max(muLo, t)
		case v == u:
			muHi = math.Min(muHi, t-u)
		default:
			muLo = math.Max(muLo, t-v)
			muHi = math.Min(muHi, t-v)
		}
	}
	if s > rep.Bandwidth {
		return false, fmt.Errorf("column sum %v exceeds bandwidth %v", s, rep.Bandwidth)
	}
	if tol := 1e-9 * scale; muLo > muHi+tol {
		return false, fmt.Errorf("no single multiplier: shift in [%v, %v]", muLo, muHi)
	}
	binding = s >= rep.Bandwidth-1e-9*(1+rep.Bandwidth)
	marginal := rep.MarginalCost(s)
	if binding {
		marginal = rep.MarginalCost(rep.Bandwidth)
	}
	tol := 1e-9 * (math.Abs(marginal) + rho*scale)
	if marginal > rho*muHi+tol {
		return binding, fmt.Errorf("λ ≤ %v below E′ = %v (binding %v)", rho*muHi, marginal, binding)
	}
	if !binding && marginal < rho*muLo-tol {
		return binding, fmt.Errorf("λ ≥ %v above E′(Σz) = %v with slack capacity", rho*muLo, marginal)
	}
	return binding, nil
}

// TestProximalColumnKKT checks the kernel against its optimality conditions
// on seeded columns covering a frozen base load, linear energy (γ = 1), a
// free replica (price 0), zero caps, all-negative targets, binding and
// slack capacity, and penalties across six decades.
func TestProximalColumnKKT(t *testing.T) {
	r := sim.NewRand(97)
	outcomes := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		m := r.IntBetween(1, 200)
		rep := model.NewReplica("r", r.Range(1, 20))
		rep.Bandwidth = r.Range(20, 400)
		caps := make([]float64, m)
		target := make([]float64, m)
		for c := range target {
			caps[c] = r.Range(0, 30)
			target[c] = r.Range(-10, 30)
		}
		switch trial % 7 {
		case 1:
			rep.Base = r.Range(1, 200)
		case 2:
			rep.Gamma = 1
		case 3:
			rep.Price = 0
		case 4:
			for c := range caps {
				if r.Float64() < 0.5 {
					caps[c] = 0
				}
			}
		case 5:
			for c := range target {
				target[c] = -r.Range(0.01, 10)
			}
		case 6:
			rep.Bandwidth = 1e6
		}
		rho := math.Pow(10, r.Range(-3, 3))
		z, err := proximal(rep, caps, target, rho)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		binding, err := checkProxKKT(rep, caps, target, rho, z)
		if err != nil {
			t.Fatalf("trial %d (m=%d, ρ=%g, case %d): %v", trial, m, rho, trial%7, err)
		}
		s := 0.0
		for _, v := range z {
			s += v
		}
		switch {
		case binding:
			outcomes["binding"]++
		case s > 0:
			outcomes["slack"]++
		default:
			outcomes["empty"]++
		}
	}
	for _, k := range []string{"binding", "slack", "empty"} {
		if outcomes[k] == 0 {
			t.Errorf("no %s column among the trials: %v", k, outcomes)
		}
	}
}

// proxObjective evaluates E(Σz) + (ρ/2)‖z − target‖² over a packed column.
func proxObjective(rep model.Replica, z, target []float64, rho float64) float64 {
	s, d := 0.0, 0.0
	for c, v := range z {
		s += v
		d += (v - target[c]) * (v - target[c])
	}
	return rep.Cost(s) + rho/2*d
}

// projectMaskedSum projects x in place onto {z : Σz ≤ s, 0 ≤ z ≤ u,
// z_i = 0 where !allowed_i}, to the sum s within rounding: every allowed
// entry is clip(x_i − θ, 0, u_i) with θ bisected to the last float at
// which the sum is still at most s. It needs s ≤ Σ_allowed u.
func projectMaskedSum(x, u []float64, allowed []bool, s float64) {
	sumAt := func(theta float64) float64 {
		sum := 0.0
		for i, ok := range allowed {
			if ok {
				sum += clip(x[i]-theta, u[i])
			}
		}
		return sum
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, ok := range allowed {
		if ok {
			lo = math.Min(lo, x[i]-u[i]-1)
			hi = math.Max(hi, x[i]+1)
		}
	}
	for {
		mid := lo + (hi-lo)/2
		if !(mid > lo && mid < hi) {
			break
		}
		if sumAt(mid) > s {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i, ok := range allowed {
		if ok {
			x[i] = clip(x[i]-hi, u[i])
		} else {
			x[i] = 0
		}
	}
}

// proximalColumnDense is the dense reference the packed kernel is checked
// against: a full-length column over all clients with the latency mask
// handled inside the projection, minimized by a ternary search over the
// column sum. The penalty sums over the support only — masked entries
// contribute a constant (0 − target_i)², irrelevant to the argmin but large
// enough to drown the comparison in rounding noise once the interval is
// small.
func proximalColumnDense(rep model.Replica, allowed []bool, caps, target []float64, rho float64, iters int) []float64 {
	capSum := 0.0
	for i, ok := range allowed {
		if ok {
			capSum += caps[i]
		}
	}
	z := make([]float64, len(target))
	maxS := math.Min(rep.Bandwidth, capSum)
	if maxS <= 0 {
		return z
	}
	probe := make([]float64, len(target))
	eval := func(S float64) float64 {
		copy(probe, target)
		projectMaskedSum(probe, caps, allowed, S)
		d := 0.0
		for i, ok := range allowed {
			if ok {
				d += (probe[i] - target[i]) * (probe[i] - target[i])
			}
		}
		return rep.Cost(S) + rho/2*d
	}
	lo, hi := 0.0, maxS
	for it := 0; it < iters && hi-lo > 1e-9*(1+maxS); it++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if eval(m1) <= eval(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	copy(z, target)
	projectMaskedSum(z, caps, allowed, (lo+hi)/2)
	return z
}

// TestProximalColumnMatchesDenseOracle runs the kernel on short columns
// gathered from a latency mask (about 70% of the entries kept; the last ten
// trials keep every entry). The dense oracle minimizes the same function by
// a ternary search over the column sum, accurate only to its 1-D tolerance,
// so the exact packed kernel must reach an objective no worse than it, and
// must meet the KKT conditions as well.
func TestProximalColumnMatchesDenseOracle(t *testing.T) {
	r := sim.NewRand(73)
	for trial := 0; trial < 40; trial++ {
		c := r.IntBetween(1, 10)
		rep := model.NewReplica("r", r.Range(1, 20))
		rep.Bandwidth = r.Range(20, 120)
		allowed := make([]bool, c)
		caps := make([]float64, c)
		target := make([]float64, c)
		var packedCaps, packedTarget []float64
		var idx []int
		for i := 0; i < c; i++ {
			allowed[i] = trial >= 30 || r.Float64() < 0.7
			caps[i] = r.Range(0, 30)
			target[i] = r.Range(-10, 30)
			if allowed[i] {
				packedCaps = append(packedCaps, caps[i])
				packedTarget = append(packedTarget, target[i])
				idx = append(idx, i)
			}
		}
		rho := r.Range(0.01, 2)
		dense := proximalColumnDense(rep, allowed, caps, target, rho, 60)
		packed, err := proximal(rep, packedCaps, packedTarget, rho)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := checkProxKKT(rep, packedCaps, packedTarget, rho, packed); err != nil {
			t.Fatalf("trial %d (m=%d, ρ=%g): %v", trial, len(idx), rho, err)
		}
		oracle := make([]float64, len(idx))
		for p, i := range idx {
			oracle[p] = dense[i]
		}
		got := proxObjective(rep, packed, packedTarget, rho)
		want := proxObjective(rep, oracle, packedTarget, rho)
		if got > want+1e-12*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v above the ternary oracle's %v", trial, got, want)
		}
		for i, v := range dense {
			if !allowed[i] && v != 0 {
				t.Fatalf("trial %d: dense wrote masked client %d", trial, i)
			}
		}
	}
}

// Non-finite inputs are refused outright, never answered with NaN entries.
func TestProximalColumnRejectsNonFinite(t *testing.T) {
	rep := model.NewReplica("r", 5)
	good := func() ([]float64, []float64) { return []float64{10, 20, 5}, []float64{3, -1, 8} }
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(caps, target []float64)
		rho    float64
	}{
		{"NaN target", func(_, tg []float64) { tg[1] = nan }, 1},
		{"+Inf target", func(_, tg []float64) { tg[0] = inf }, 1},
		{"-Inf target", func(_, tg []float64) { tg[2] = -inf }, 1},
		{"NaN cap", func(cp, _ []float64) { cp[0] = nan }, 1},
		{"+Inf cap", func(cp, _ []float64) { cp[1] = inf }, 1},
		{"negative cap", func(cp, _ []float64) { cp[2] = -1 }, 1},
		{"zero rho", func(_, _ []float64) {}, 0},
		{"negative rho", func(_, _ []float64) {}, -2},
		{"NaN rho", func(_, _ []float64) {}, nan},
		{"+Inf rho", func(_, _ []float64) {}, inf},
	}
	for _, tc := range cases {
		caps, target := good()
		tc.mutate(caps, target)
		if s, err := ProximalShift(rep, caps, target, tc.rho); err == nil {
			t.Errorf("%s: accepted, returned shift %v", tc.name, s)
		}
	}
}

// FuzzProximalColumn drives the kernel with arbitrary replica parameters,
// penalties and seeded columns: it must never panic nor return a NaN entry,
// and within a sane parameter range it must succeed and satisfy the KKT
// conditions TestProximalColumnKKT checks.
func FuzzProximalColumn(f *testing.F) {
	f.Add(uint64(1), uint8(70), 1.0, 5.0, 0.0, 3.0, 100.0)
	f.Add(uint64(2), uint8(1), 1e-3, 0.0, 0.0, 1.0, 1e6)
	f.Add(uint64(3), uint8(200), 1e3, 20.0, 150.0, 2.0, 25.0)
	f.Fuzz(func(t *testing.T, seed uint64, m uint8, rho, price, base, gamma, bw float64) {
		rep := model.Replica{Price: price, Alpha: 1, Beta: 0.01, Gamma: gamma, Bandwidth: bw, Base: base}
		r := sim.NewRand(seed)
		caps := make([]float64, m)
		target := make([]float64, m)
		for c := range target {
			caps[c] = r.Range(0, 30)
			if r.Float64() < 0.1 {
				caps[c] = 0
			}
			target[c] = r.Range(-10, 30)
		}
		z, err := proximal(rep, caps, target, rho)
		if err == nil {
			for c, v := range z {
				if math.IsNaN(v) {
					t.Fatalf("entry %d is NaN", c)
				}
			}
		}
		sane := rep.Validate() == nil && price <= 1e3 && base <= 1e4 && gamma <= 5 &&
			bw <= 1e6 && rho >= 1e-4 && rho <= 1e4
		if !sane {
			return
		}
		if err != nil {
			t.Fatalf("valid input refused: %v", err)
		}
		if _, err := checkProxKKT(rep, caps, target, rho, z); err != nil {
			t.Fatal(err)
		}
	})
}

// When nothing fits — an empty support, all-zero caps, or no bandwidth —
// the shift is +Inf and the column it rebuilds is +0 in every slot, the
// bits of a freshly made column.
func TestProximalShiftInfiniteWhenNothingFits(t *testing.T) {
	rep := model.NewReplica("r", 5)
	idle := rep
	idle.Bandwidth = 0
	for _, tc := range []struct {
		name         string
		rep          model.Replica
		caps, target []float64
	}{
		{"empty support", rep, []float64{}, []float64{}},
		{"zero caps", rep, []float64{0, 0, 0}, []float64{4, -1, math.Copysign(0, -1)}},
		{"no bandwidth", idle, []float64{3, 5}, []float64{2, 7}},
	} {
		s, err := ProximalShift(tc.rep, tc.caps, tc.target, 0.5)
		if err != nil || !math.IsInf(s, 1) {
			t.Fatalf("%s: shift %v, err %v; want +Inf", tc.name, s, err)
		}
		z := make([]float64, len(tc.target))
		for c := range z {
			z[c] = math.NaN()
		}
		ProximalColumn(z, tc.caps, tc.target, s)
		for c, v := range z {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: entry %d = %v, want +0", tc.name, c, v)
			}
		}
	}
}

// proxSink keeps the benchmarked call from being optimized away.
var proxSink []float64

// BenchmarkProximalColumn times one replica's proximal step — the shift and
// the column it rebuilds — on a 70-entry column, the size of a paper-scale
// replica's feasible client list. It allocates nothing.
func BenchmarkProximalColumn(b *testing.B) {
	r := sim.NewRand(1)
	rep := model.NewReplica("r", 7)
	caps := make([]float64, 70)
	target := make([]float64, 70)
	for c := range target {
		caps[c] = r.Range(1, 6)
		target[c] = r.Range(-2, 4)
	}
	z := make([]float64, 70)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ProximalShift(rep, caps, target, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		ProximalColumn(z, caps, target, s)
	}
	proxSink = z
}
