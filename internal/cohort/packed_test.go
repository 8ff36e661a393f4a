package cohort

import (
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/sim"
)

// packedTestInstance builds a masked instance with real cohort structure:
// clients fall into a few feasibility masks so the grouping compresses,
// and every mask keeps some replicas infeasible so the sparsity is strict.
func packedTestInstance(t *testing.T, clients, replicas int, seed uint64) (*opt.Problem, *Grouping) {
	t.Helper()
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
	classes := 4
	classLat := opt.NewMatrix(classes, replicas)
	for cl := 0; cl < classes; cl++ {
		for j := 0; j < replicas; j++ {
			if (cl+j)%3 == 0 {
				classLat[cl][j] = 5 * maxT // infeasible for this class
			} else {
				classLat[cl][j] = r.Range(0, 0.9*maxT)
			}
		}
	}
	latency := opt.NewMatrix(clients, replicas)
	demands := make([]float64, clients)
	for c := 0; c < clients; c++ {
		copy(latency[c], classLat[c%classes])
		if r.Float64() < 0.85 {
			demands[c] = r.Range(0, 5)
		}
	}
	prob := &opt.Problem{System: sys, Demands: demands, Latency: latency, MaxLatency: maxT}
	if err := prob.Validate(); err != nil {
		t.Fatalf("instance: %v", err)
	}
	g, err := Group(prob, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	if g.K() >= clients {
		t.Fatalf("grouping did not compress: K=%d C=%d", g.K(), clients)
	}
	return prob, g
}

// TestPackedDisaggregateMatchesDense pins the tentpole invariant: the
// packed disaggregation is bitwise the sparsity gather of the dense one,
// on clean, perturbed, and zero cohort assignments.
func TestPackedDisaggregateMatchesDense(t *testing.T) {
	prob, g := packedTestInstance(t, 60, 5, 11)
	fullSp, redSp := g.Sparse()
	xk, err := g.Reduced().UniformStart()
	if err != nil {
		t.Fatalf("UniformStart: %v", err)
	}
	r := sim.NewRand(99)
	for name, mutate := range map[string]func(){
		"clean": func() {},
		"perturbed": func() {
			for k := range xk {
				for j := range xk[k] {
					xk[k][j] = xk[k][j]*1.7 - 0.3*r.Float64()
				}
			}
		},
		"zero": func() {
			for _, row := range xk {
				clear(row)
			}
		},
	} {
		mutate()
		dense, err := g.Disaggregate(xk)
		if err != nil {
			t.Fatalf("%s: Disaggregate: %v", name, err)
		}
		vk := redSp.Gather(xk)
		packed, err := g.DisaggregatePacked(vk)
		if err != nil {
			t.Fatalf("%s: DisaggregatePacked: %v", name, err)
		}
		want := fullSp.Gather(dense)
		for s := range packed {
			if math.Float64bits(packed[s]) != math.Float64bits(want[s]) {
				t.Fatalf("%s: slot %d: packed %g dense %g", name, s, packed[s], want[s])
			}
		}
		// Scattering the packed result back reproduces the dense matrix
		// exactly (masked entries are exact zeros on both sides).
		x := opt.NewMatrix(g.C(), prob.N())
		fullSp.Scatter(x, packed)
		for c := range x {
			for j := range x[c] {
				if math.Float64bits(x[c][j]) != math.Float64bits(dense[c][j]) {
					t.Fatalf("%s: [%d][%d]: scattered %g dense %g", name, c, j, x[c][j], dense[c][j])
				}
			}
		}
		if err := g.Check(x, 1e-6); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestPackedDisaggregateErrors covers the packed adapter's validation.
func TestPackedDisaggregateErrors(t *testing.T) {
	_, g := packedTestInstance(t, 40, 4, 3)
	_, redSp := g.Sparse()
	if _, err := g.DisaggregatePacked(make([]float64, redSp.NNZ()+1)); err == nil {
		t.Fatal("wrong vk length accepted")
	}
	vk := make([]float64, redSp.NNZ())
	vk[0] = math.NaN()
	if _, err := g.DisaggregatePacked(vk); err == nil {
		t.Fatal("NaN load accepted")
	}
	vk[0] = math.Inf(1)
	if _, err := g.DisaggregatePacked(vk); err == nil {
		t.Fatal("Inf load accepted")
	}
}

// memberRowSums folds full into cohort rows densely: each cohort's row is
// the sum of its members' rows, added in client order, and clients past
// len(full) add nothing.
func memberRowSums(g *Grouping, full [][]float64) [][]float64 {
	out := opt.NewMatrix(g.K(), g.Reduced().N())
	for k, row := range out {
		for _, c := range g.Members(k) {
			if c >= len(full) {
				continue
			}
			for j, v := range full[c] {
				row[j] += v
			}
		}
	}
	return out
}

// TestAggregateRowsPackedMatchesDense pins the warm-start fold: packed
// aggregation equals the reduced-sparsity gather of the members' dense row
// sums for mask-supported input, including short (departed-client) inputs.
func TestAggregateRowsPackedMatchesDense(t *testing.T) {
	prob, g := packedTestInstance(t, 60, 5, 7)
	_, redSp := g.Sparse()
	warm, err := prob.UniformStart()
	if err != nil {
		t.Fatalf("UniformStart: %v", err)
	}
	for _, rows := range []int{len(warm), len(warm) / 2} {
		in := warm[:rows]
		dense := memberRowSums(g, in)
		want := redSp.Gather(dense)
		got := g.AggregateRowsPacked(in)
		for s := range got {
			if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
				t.Fatalf("rows=%d slot %d: packed %g dense %g", rows, s, got[s], want[s])
			}
		}
	}
}

// denseDuals is the reference for AggregateDuals on g, grouped from
// prob: each cohort's dual is its members' demand-weighted mean (plain mean
// for a zero-demand cohort), 0 when no member has a dual.
func denseDuals(prob *opt.Problem, g *Grouping, mu []float64) []float64 {
	out := make([]float64, g.K())
	for k := range out {
		num, den := 0.0, 0.0
		for _, c := range g.Members(k) {
			if c >= len(mu) {
				continue
			}
			w := prob.Demands[c]
			if g.Reduced().Demands[k] == 0 {
				w = 1
			}
			num += w * mu[c]
			den += w
		}
		if den > 0 {
			out[k] = num / den
		}
	}
	return out
}

// TestAggregateDualsIntoMatchesDense pins the dual fold against its
// reference.
func TestAggregateDualsIntoMatchesDense(t *testing.T) {
	prob, g := packedTestInstance(t, 60, 5, 13)
	r := sim.NewRand(5)
	mu := make([]float64, g.C())
	for i := range mu {
		mu[i] = r.Range(-2, 2)
	}
	want := denseDuals(prob, g, mu)
	got := g.AggregateDuals(mu)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("cohort %d: %g vs %g", k, got[k], want[k])
		}
	}
}
