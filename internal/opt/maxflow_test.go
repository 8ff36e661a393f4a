package opt

import (
	"testing"

	"edr/internal/sim"
)

func TestCheckFeasibleSimple(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{50, 60})
	if err := CheckFeasible(p); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFeasibleCapacityShortage(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{150, 100}) // 250 > 200 total
	if err := CheckFeasible(p); err == nil {
		t.Fatal("over-capacity instance accepted")
	}
}

func TestCheckFeasibleLatencyPartition(t *testing.T) {
	// Two clients, two replicas; each client can reach only one replica.
	// Demands fit individually but client 0's replica is too small.
	p := testProblem(t, []float64{1, 2}, []float64{120, 10})
	p.Latency[0][1] = 0.01 // client 0 → replica 0 only (demand 120 > B=100)
	p.Latency[1][0] = 0.01 // client 1 → replica 1 only
	if err := CheckFeasible(p); err == nil {
		t.Fatal("latency-partitioned infeasible instance accepted")
	}
	// Lower the stranded demand and it becomes feasible.
	p.Demands[0] = 90
	if err := CheckFeasible(p); err != nil {
		t.Fatal(err)
	}
}

func TestFeasiblePointIsFeasible(t *testing.T) {
	p := testProblem(t, []float64{1, 8, 3}, []float64{80, 90, 30})
	p.Latency[2][0] = 0.01
	x, err := FeasiblePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(x); v > 1e-6 {
		t.Fatalf("FeasiblePoint violation = %g", v)
	}
}

func TestFeasiblePointInfeasibleInstance(t *testing.T) {
	p := testProblem(t, []float64{1}, []float64{500})
	if _, err := FeasiblePoint(p); err == nil {
		t.Fatal("infeasible instance returned a point")
	}
}

// Property: on random instances, CheckFeasible and FeasiblePoint agree,
// and any returned point passes Violation.
func TestFeasibilityOracleAgreementProperty(t *testing.T) {
	r := sim.NewRand(777)
	for trial := 0; trial < 60; trial++ {
		clients := 1 + r.Intn(6)
		replicas := 1 + r.Intn(5)
		p := randomProblem(t, r, clients, replicas)
		// Occasionally inflate demand to force infeasibility.
		if r.Float64() < 0.3 {
			p.Demands[0] += 1000
		}
		checkErr := CheckFeasible(p)
		x, pointErr := FeasiblePoint(p)
		if (checkErr == nil) != (pointErr == nil) {
			t.Fatalf("trial %d: CheckFeasible=%v but FeasiblePoint=%v", trial, checkErr, pointErr)
		}
		if pointErr == nil {
			if v := p.Violation(x); v > 1e-6 {
				t.Fatalf("trial %d: feasible point violation %g", trial, v)
			}
		}
	}
}

// The uniform-split witness never accepts what max flow refuses, and
// CheckFeasible's verdict is max flow's on every seeded instance — capacity
// drawn from slack down to below total demand, so the witness, max flow
// alone and refusal all occur.
func TestCheckFeasibleWitnessAgreesWithMaxFlow(t *testing.T) {
	r := sim.NewRand(4242)
	seen := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		clients, replicas := r.IntBetween(1, 12), r.IntBetween(1, 6)
		p := randomProblem(t, r, clients, replicas)
		total := 0.0
		for _, d := range p.Demands {
			total += d
		}
		for j := range p.System.Replicas {
			p.System.Replicas[j].Bandwidth = total / float64(replicas) * r.Range(0.4, 2.5)
		}
		_, flowErr := FeasiblePoint(p)
		witness := uniformSplitFits(p)
		if witness && flowErr != nil {
			t.Fatalf("trial %d: witness accepted an instance max flow refuses: %v", trial, flowErr)
		}
		if err := CheckFeasible(p); (err == nil) != (flowErr == nil) {
			t.Fatalf("trial %d: CheckFeasible=%v, max flow=%v", trial, err, flowErr)
		}
		switch {
		case witness:
			seen["witness"]++
		case flowErr == nil:
			seen["max flow"]++
		default:
			seen["infeasible"]++
		}
	}
	for _, k := range []string{"witness", "max flow", "infeasible"} {
		if seen[k] == 0 {
			t.Errorf("no %q verdict in the sweep: %v", k, seen)
		}
	}
}

// An instance the uniform split settles never reaches max flow: the check
// costs one load vector, not a flow graph.
func TestCheckFeasibleWitnessSkipsMaxFlow(t *testing.T) {
	p := randomProblem(t, sim.NewRand(5), 100, 10)
	for i := range p.Demands {
		p.Demands[i] = 3 // 300 MB over 1000 MB/s of capacity
	}
	if !uniformSplitFits(p) {
		t.Fatal("instance has no uniform-split witness")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := CheckFeasible(p); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("CheckFeasible allocated %v times on a witnessed instance", allocs)
	}
}

// An instance whose uniform split overflows a cap is not refused on that
// account: only a skewed split fits, and max flow finds it.
func TestCheckFeasibleSkewedSplitGoesToMaxFlow(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{60})
	p.System.Replicas[1].Bandwidth = 10 // the even 30/30 split overflows it; 50/10 fits
	if uniformSplitFits(p) {
		t.Fatal("uniform split reported as fitting a 10 MB/s cap with 30 MB")
	}
	if err := CheckFeasible(p); err != nil {
		t.Fatal(err)
	}
}

// A client with demand but no replica within its latency bound is refused,
// however much capacity the others leave.
func TestCheckFeasibleUnreachableClient(t *testing.T) {
	p := testProblem(t, []float64{1, 2}, []float64{5, 5})
	p.Latency[1][0], p.Latency[1][1] = 0.01, 0.01
	if err := CheckFeasible(p); err == nil {
		t.Fatal("client with no reachable replica accepted")
	}
}

func TestMaxFlowTinyGraph(t *testing.T) {
	// Classic diamond: s→a (3), s→b (2), a→t (2), b→t (3), a→b (1).
	g := newFlowGraph(4)
	s, a, b, tt := 0, 1, 2, 3
	g.addEdge(s, a, 3)
	g.addEdge(s, b, 2)
	g.addEdge(a, tt, 2)
	g.addEdge(b, tt, 3)
	g.addEdge(a, b, 1)
	if got := g.maxFlow(s, tt); got != 5 {
		t.Fatalf("maxFlow = %g, want 5", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := newFlowGraph(2)
	if got := g.maxFlow(0, 1); got != 0 {
		t.Fatalf("maxFlow on disconnected graph = %g", got)
	}
}
