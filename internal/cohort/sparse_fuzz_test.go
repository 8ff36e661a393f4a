package cohort

import (
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/sim"
)

// FuzzSparseCohortEquiv pins the packed cohort adapters to their dense
// counterparts on adversarial masks: whatever instance and solver output
// the fuzzer invents, DisaggregatePacked must be bitwise the full-sparsity
// gather of Disaggregate, AggregateRowsPacked bitwise the reduced-sparsity
// gather of the members' row sums, AggregateDuals bitwise its reference —
// and the packed result must conserve every client's demand (row sums match
// the dense invariant exactly, bit for bit). This is the contract that
// lets core run cohorted rounds packed end to end without a behavioral
// flag: the two paths are indistinguishable on the feasible support. The
// unused float argument was a latency quantum; it stays so the committed
// corpus loads.
func FuzzSparseCohortEquiv(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(2), 0.0, 0.3)
	f.Add(uint64(42), uint8(63), uint8(3), 0.0018, 1e6)
	f.Add(uint64(7), uint8(0), uint8(0), 1e-12, -2.0)
	f.Add(uint64(99), uint8(255), uint8(7), 1e9, 0.0)
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
			rep.Bandwidth = 1e6
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
				demands[c] = r.Range(0, 5) // keep zero-demand clients in play
			}
			for j := 0; j < replicas; j++ {
				switch {
				case r.Float64() < 0.25:
					latency[c][j] = r.Range(2*maxT, 10*maxT) // infeasible link
				case r.Float64() < 0.1:
					latency[c][j] = maxT // exactly on the bound
				default:
					latency[c][j] = r.Range(0, maxT)
				}
			}
			latency[c][0] = r.Range(0, 0.9*maxT) // every client stays feasible
		}
		prob := &opt.Problem{System: sys, Demands: demands, Latency: latency, MaxLatency: maxT}
		if err := prob.Validate(); err != nil {
			t.Fatalf("fuzz instance invalid: %v", err)
		}

		g, err := Group(prob, Options{})
		if err != nil {
			t.Fatalf("Group: %v", err)
		}
		fullSp, redSp := g.Sparse()

		// Adversarial "solver output": scaled, smeared (including onto
		// masked-out links — the dense adapter must drop that junk, the
		// packed one never sees it, and the results must still agree).
		xk, err := g.Reduced().UniformStart()
		if err != nil {
			t.Fatalf("reduced UniformStart: %v", err)
		}
		for k := range xk {
			for j := range xk[k] {
				xk[k][j] = xk[k][j]*(1+perturb) + perturb*r.Float64()
			}
		}

		dense, err := g.Disaggregate(xk)
		if err != nil {
			t.Fatalf("Disaggregate rejected finite input: %v", err)
		}
		vk := redSp.Gather(xk)
		packed, err := g.DisaggregatePacked(vk)
		if err != nil {
			t.Fatalf("DisaggregatePacked rejected finite input: %v", err)
		}
		wantPk := fullSp.Gather(dense)
		for s := range packed {
			if math.Float64bits(packed[s]) != math.Float64bits(wantPk[s]) {
				t.Fatalf("disaggregate slot %d: packed %x dense %x",
					s, math.Float64bits(packed[s]), math.Float64bits(wantPk[s]))
			}
		}

		// Exact row-sum conservation: the packed row reproduces the dense
		// row bit for bit, so its sum (slots in column order, the same
		// order the dense invariant was proven in) matches exactly.
		for c := 0; c < g.C(); c++ {
			sumPk, sumDense := 0.0, 0.0
			for s := fullSp.RowStart[c]; s < fullSp.RowStart[c+1]; s++ {
				sumPk += packed[s]
			}
			for _, v := range dense[c] {
				sumDense += v
			}
			if math.Float64bits(sumPk) != math.Float64bits(sumDense) {
				t.Fatalf("client %d: packed row sum %g, dense %g", c, sumPk, sumDense)
			}
		}

		// The scattered packed result passes the same runtime contract the
		// dense path is held to.
		x := opt.NewMatrix(g.C(), prob.N())
		fullSp.Scatter(x, packed)
		if err := g.Check(x, 1e-6); err != nil {
			t.Fatal(err)
		}

		// Aggregation equivalence on the disaggregated matrix (the shape
		// warm starts feed through this path).
		aggDense := memberRowSums(g, dense)
		aggWant := redSp.Gather(aggDense)
		aggPk := g.AggregateRowsPacked(dense)
		for s := range aggPk {
			if math.Float64bits(aggPk[s]) != math.Float64bits(aggWant[s]) {
				t.Fatalf("aggregate slot %d: packed %x dense %x",
					s, math.Float64bits(aggPk[s]), math.Float64bits(aggWant[s]))
			}
		}

		mu := make([]float64, clients)
		for i := range mu {
			mu[i] = r.Range(-3, 3)
		}
		duWant := denseDuals(prob, g, mu)
		duGot := g.AggregateDuals(mu)
		for k := range duWant {
			if math.Float64bits(duGot[k]) != math.Float64bits(duWant[k]) {
				t.Fatalf("dual %d: %g vs %g", k, duGot[k], duWant[k])
			}
		}
	})
}
