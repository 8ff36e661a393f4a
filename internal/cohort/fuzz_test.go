package cohort

import (
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/sim"
)

// FuzzCohortRoundTrip hardens the aggregate→solve→disaggregate path
// against adversarial instances: arbitrary latency structure (boundary
// values, infeasible links, zero latencies), zero demands, and solver
// outputs perturbed with negatives, masked-link junk, and huge
// magnitudes. The invariants under fuzz are exactly the runtime contract:
// per-client demand conservation, zero load on latency-infeasible links,
// and no NaN/Inf anywhere in the disaggregated matrix. The unused float
// argument was a latency quantum; it stays so the committed corpus loads.
func FuzzCohortRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(2), 0.0, 0.3)
	f.Add(uint64(7), uint8(0), uint8(0), 1e-12, -2.0)
	f.Add(uint64(42), uint8(255), uint8(7), 0.0018, 1e6)
	f.Add(uint64(99), uint8(63), uint8(3), 1e9, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, nc, nr uint8, _, perturb float64) {
		if math.IsNaN(perturb) || math.IsInf(perturb, 0) || math.Abs(perturb) > 1e9 {
			return
		}
		clients := 1 + int(nc)%64
		replicas := 2 + int(nr)%6
		r := sim.NewRand(seed)

		reps := make([]model.Replica, replicas)
		for j := range reps {
			rep := model.NewReplica("replica"+string(rune('1'+j)), r.Range(1, 20))
			rep.Bandwidth = 1e6 // capacity out of the way: fuzz targets the mask/conservation logic
			reps[j] = rep
		}
		sys, err := model.NewSystem(reps)
		if err != nil {
			t.Fatalf("system: %v", err)
		}
		const maxT = 0.0018
		latency := opt.NewMatrix(clients, replicas)
		demands := make([]float64, clients)
		for c := 0; c < clients; c++ {
			if r.Float64() < 0.85 {
				demands[c] = r.Range(0, 5) // 15% of clients demand exactly zero
			}
			for j := 0; j < replicas; j++ {
				switch {
				case r.Float64() < 0.25:
					latency[c][j] = r.Range(2*maxT, 10*maxT) // infeasible
				case r.Float64() < 0.1:
					latency[c][j] = maxT // exactly on the bound
				default:
					latency[c][j] = r.Range(0, maxT)
				}
			}
			// Every client keeps at least one feasible replica, as the
			// generators guarantee.
			latency[c][0] = r.Range(0, 0.9*maxT)
		}
		prob := &opt.Problem{System: sys, Demands: demands, Latency: latency, MaxLatency: maxT}
		if err := prob.Validate(); err != nil {
			t.Fatalf("fuzz instance invalid: %v", err)
		}

		g, err := Group(prob, Options{})
		if err != nil {
			t.Fatalf("Group: %v", err)
		}
		xk, err := g.Reduced().UniformStart()
		if err != nil {
			t.Fatalf("reduced UniformStart (cohort lost its feasible replica): %v", err)
		}
		// Adversarial "solver output": scale rows, smear junk onto every
		// link including masked-out ones, drive some entries negative.
		for k := range xk {
			for j := range xk[k] {
				xk[k][j] = xk[k][j]*(1+perturb) + perturb*r.Float64()
			}
		}
		x, err := g.Disaggregate(xk)
		if err != nil {
			t.Fatalf("Disaggregate rejected finite input: %v", err)
		}
		if err := g.Check(x, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
}
