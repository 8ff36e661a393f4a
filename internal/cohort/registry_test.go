package cohort

import (
	"testing"

	"edr/internal/opt"
)

// sameProblemNewDemands clones the round's problem the way the runtime
// does across quiet rounds: same system, same latencies (shared read-only),
// fresh demand vector.
func sameProblemNewDemands(prob *opt.Problem, scale float64) *opt.Problem {
	demands := make([]float64, len(prob.Demands))
	for i, d := range prob.Demands {
		demands[i] = d * scale
	}
	return &opt.Problem{
		System:     prob.System,
		Demands:    demands,
		Latency:    prob.Latency,
		MaxLatency: prob.MaxLatency,
	}
}

func TestRegistryQuietRoundReusesGrouping(t *testing.T) {
	prob := regional(t, 7, 400, 8, 12)
	reg := NewRegistry()
	g1, hit, err := reg.Group(prob, Options{})
	if err != nil {
		t.Fatalf("first Group: %v", err)
	}
	if hit {
		t.Fatal("first round reported a cache hit")
	}

	// Demand drift does not touch the byte keys: the partition, mask and
	// sparsity must be reused by pointer, with demands rebuilt fresh.
	prob2 := sameProblemNewDemands(prob, 1.07)
	g2, hit, err := reg.Group(prob2, Options{})
	if err != nil {
		t.Fatalf("second Group: %v", err)
	}
	if !hit {
		t.Fatal("quiet round missed the grouping cache")
	}
	if g2.K() != g1.K() {
		t.Fatalf("cohort count changed on reuse: %d → %d", g1.K(), g2.K())
	}
	if &g2.Members(0)[0] != &g1.Members(0)[0] {
		t.Fatal("member lists were rebuilt on a quiet round")
	}
	if g2.Reduced().Sparsity() != g1.Reduced().Sparsity() {
		t.Fatal("primed sparsity was rebuilt on a quiet round")
	}
	for k := 0; k < g2.K(); k++ {
		want := 0.0
		for _, c := range g2.Members(k) {
			want += prob2.Demands[c]
		}
		if got := g2.Reduced().Demands[k]; got != want {
			t.Fatalf("cohort %d reduced demand %g, want %g", k, got, want)
		}
	}
	// The reused grouping must still disaggregate feasibly against the
	// new problem.
	xk, err := g2.Reduced().UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	x, err := g2.Disaggregate(xk)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Check(x, 1e-9); err != nil {
		t.Fatalf("reused grouping disaggregation: %v", err)
	}
}

func TestRegistryDriftAppendsNewCohortLast(t *testing.T) {
	prob := regional(t, 13, 200, 6, 8)
	reg := NewRegistry()
	g1, _, err := reg.Group(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Push one client's latency row out of every existing bucket pattern:
	// make exactly one replica feasible at a latency no other client has.
	prob2 := sameProblemNewDemands(prob, 1)
	lat := make([][]float64, len(prob.Latency))
	for i := range lat {
		lat[i] = prob.Latency[i]
	}
	row := make([]float64, prob.N())
	for j := range row {
		row[j] = 10 * prob.MaxLatency
	}
	row[0] = prob.MaxLatency * 0.999
	lat[42] = row
	prob2.Latency = lat

	g2, hit, err := reg.Group(prob2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("mask change reported a cache hit")
	}
	// The brand-new identity sorts after every surviving cohort, and
	// surviving cohorts keep their relative order.
	if got := g2.CohortOf(42); got != g2.K()-1 {
		t.Fatalf("new cohort placed at rank %d, want last (%d)", got, g2.K()-1)
	}
	prevRank := -1
	for c := 0; c < prob.C(); c++ {
		if c == 42 {
			continue
		}
		if g1.CohortOf(c) == g1.CohortOf(0) {
			if prevRank == -1 {
				prevRank = g2.CohortOf(c)
			} else if g2.CohortOf(c) != prevRank {
				t.Fatalf("surviving cohort split across ranks %d and %d", prevRank, g2.CohortOf(c))
			}
		}
	}
}

func TestRegistryResetDropsIdentity(t *testing.T) {
	prob := regional(t, 17, 100, 4, 6)
	reg := NewRegistry()
	if _, _, err := reg.Group(prob, Options{}); err != nil {
		t.Fatal(err)
	}
	if reg.next == 0 {
		t.Fatal("no identities interned")
	}
	reg.Reset()
	if reg.next != 0 {
		t.Fatalf("%d identities survived Reset", reg.next)
	}
	if _, hit, err := reg.Group(prob, Options{}); err != nil || hit {
		t.Fatalf("post-Reset Group: hit=%v err=%v, want fresh miss", hit, err)
	}
}
