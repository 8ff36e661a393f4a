package core

import (
	"context"
	"math"
	"testing"

	"edr/internal/membership"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

// elasticFleet is a fleet whose replica configs the test can tweak and
// which holds one extra replica ("replica4") born outside the cluster,
// ready to join mid-stream.
type elasticFleet struct {
	*fleet
	joiner *ReplicaServer
}

func newElasticFleet(t *testing.T, alg Algorithm, tweak func(*ReplicaConfig)) *elasticFleet {
	t.Helper()
	f := &elasticFleet{fleet: &fleet{net: transport.NewInProcNetwork()}}
	prices := []float64{1, 10, 5}
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = replicaName(i)
	}
	for i, price := range prices {
		cfg := ReplicaConfig{
			Replica:   model.NewReplica(replicaName(i), price),
			Algorithm: alg,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		rs, err := NewReplicaServer(f.net, replicaName(i), names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		f.replicas = append(f.replicas, rs)
	}
	jcfg := ReplicaConfig{
		Replica:   model.NewReplica(replicaName(3), 3),
		Algorithm: alg,
	}
	if tweak != nil {
		tweak(&jcfg)
	}
	joiner, err := NewReplicaServer(f.net, replicaName(3), nil, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	f.joiner = joiner
	for i := 0; i < 2; i++ {
		cl, err := NewClient(f.net, clientName(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

// allLatencies covers the joiner too, so clients are feasible against
// whatever roster a round ends up with.
func (f *elasticFleet) allLatencies() map[string]float64 {
	m := f.uniformLatencies()
	m[f.joiner.Addr()] = 0.0005
	return m
}

func (f *elasticFleet) submitAll(t *testing.T, demands []float64) {
	t.Helper()
	ctx := context.Background()
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], f.allLatencies()); err != nil {
			t.Fatal(err)
		}
	}
}

// elasticDemands are the two clients' demands in every elastic round.
var elasticDemands = []float64{30, 20}

// runElasticSequence drives the acceptance scenario: one cold round on
// {replica1..3}, then replica4 joins and replica3 drains, then three more
// rounds on the new roster. It returns the four reports.
func runElasticSequence(t *testing.T, alg Algorithm) []*RoundReport {
	t.Helper()
	f := newElasticFleet(t, alg, nil)
	ctx := context.Background()

	var reports []*RoundReport
	runOne := func() *RoundReport {
		t.Helper()
		f.submitAll(t, elasticDemands)
		report, err := f.replicas[0].RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", len(reports)+1, err)
		}
		reports = append(reports, report)
		return report
	}
	runOne()

	// Live reconfiguration between rounds: replica4 joins through the
	// initiator, replica3 drains (planned power-down, not a failure).
	if _, err := f.joiner.Membership().JoinVia(ctx, f.replicas[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := f.replicas[0].Membership().ProposeChange(ctx, membership.OpDrain, f.replicas[2].Addr()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for i := 0; i < 3; i++ {
		runOne()
	}
	return reports
}

// TestElasticMembershipMidStream is the tentpole acceptance test: a
// replica joins and another drains between rounds, and the stream keeps
// scheduling — three consecutive post-change rounds, none failed, none
// degraded, every one warm-started from the pre-change assignment.
func TestElasticMembershipMidStream(t *testing.T) {
	for _, alg := range []Algorithm{CDPSM, ADMM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			reports := runElasticSequence(t, alg)
			if reports[0].WarmStarted {
				t.Fatal("first round had no history to warm from")
			}
			first := reports[0]
			wantOld := map[string]bool{"replica1": true, "replica2": true, "replica3": true}
			for _, addr := range first.ReplicaAddrs {
				if !wantOld[addr] {
					t.Fatalf("pre-change roster has %s", addr)
				}
			}
			for i, report := range reports[1:] {
				if report.Degraded {
					t.Fatalf("post-change round %d degraded", i+2)
				}
				if !report.WarmStarted {
					t.Fatalf("post-change round %d not warm-started", i+2)
				}
				// New roster: replica4 in, drained replica3 out.
				want := map[string]bool{"replica1": true, "replica2": true, "replica4": true}
				if len(report.ReplicaAddrs) != len(want) {
					t.Fatalf("round %d roster %v", i+2, report.ReplicaAddrs)
				}
				for _, addr := range report.ReplicaAddrs {
					if !want[addr] {
						t.Fatalf("round %d roster %v", i+2, report.ReplicaAddrs)
					}
				}
				// Demand stays fully assigned through the reconfiguration.
				for _, row := range opt.RowSums(report.Assignment) {
					if math.Abs(row-30) > 1e-3 && math.Abs(row-20) > 1e-3 {
						t.Fatalf("round %d row sum %g, want 30 or 20", i+2, row)
					}
				}
			}
		})
	}
}

// coldPostChangeRound runs the elastic sequence's post-change round on a
// fresh fleet: the same roster {replica1, replica2, replica4} at the same
// prices, the same clients and demands. With no history to warm from, its
// round starts cold by construction.
func coldPostChangeRound(t *testing.T, alg Algorithm) *RoundReport {
	t.Helper()
	f := &fleet{net: transport.NewInProcNetwork()}
	names := []string{replicaName(0), replicaName(1), replicaName(3)}
	prices := []float64{1, 10, 3}
	for i, name := range names {
		rs, err := NewReplicaServer(f.net, name, names, ReplicaConfig{
			Replica:   model.NewReplica(name, prices[i]),
			Algorithm: alg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		f.replicas = append(f.replicas, rs)
	}
	ctx := context.Background()
	for i, demand := range elasticDemands {
		cl, err := NewClient(f.net, clientName(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.Submit(ctx, f.replicas[0].Addr(), demand, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.WarmStarted {
		t.Fatal("a fleet's first round warm-started")
	}
	return report
}

// TestWarmStartBeatsColdAfterEpochChange asserts the warm start earns its
// keep: the first post-change round converges in strictly fewer
// distributed iterations than the same round solved cold on a fresh fleet.
func TestWarmStartBeatsColdAfterEpochChange(t *testing.T) {
	for _, alg := range []Algorithm{CDPSM, ADMM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			warm := runElasticSequence(t, alg)[1]
			cold := coldPostChangeRound(t, alg)
			if warm.Iterations >= cold.Iterations {
				t.Fatalf("post-change round: warm %d iterations, cold %d — warm start bought nothing",
					warm.Iterations, cold.Iterations)
			}
			t.Logf("%s post-change round: warm %d iterations vs cold %d", alg, warm.Iterations, cold.Iterations)
		})
	}
}

// TestDrainedReplicaStaysInRing asserts drain is not death: with the
// drained member crashed off the fabric, heartbeats walk past it and no
// monitor ever declares it dead or shrinks the ring.
func TestDrainedReplicaStaysInRing(t *testing.T) {
	f := newElasticFleet(t, CDPSM, nil)
	ctx := context.Background()
	if _, err := f.replicas[0].Membership().ProposeChange(ctx, membership.OpDrain, f.replicas[2].Addr()); err != nil {
		t.Fatal(err)
	}
	f.net.Crash(f.replicas[2].Addr())
	for i := 0; i < 6; i++ {
		for _, rs := range f.replicas[:2] {
			rs.Monitor().Beat()
		}
	}
	for _, rs := range f.replicas[:2] {
		if !rs.Ring().Contains(f.replicas[2].Addr()) {
			t.Fatalf("%s pruned the drained member", rs.Addr())
		}
		if suspect, misses := rs.Monitor().Suspicion(); suspect == f.replicas[2].Addr() && misses > 0 {
			t.Fatalf("%s suspects the drained member (%d misses)", rs.Addr(), misses)
		}
	}
	// And the drained member shows up in /status.
	st := f.replicas[0].Status()
	if st.Epoch == 0 || len(st.Drained) != 1 || st.Drained[0] != f.replicas[2].Addr() {
		t.Fatalf("status epoch %d drained %v", st.Epoch, st.Drained)
	}
}

// TestAutoScaleHysteresis drives the energy-aware policy through a full
// down/up cycle on a live fleet: sustained low utilization drains the
// priciest replica (after DownAfter windows, not the first), sustained
// high utilization powers it back up, and a single crossing in between
// moves nothing.
func TestAutoScaleHysteresis(t *testing.T) {
	f := newElasticFleet(t, LDDM, nil)
	ctx := context.Background()
	policy := &membership.Policy{DownAfter: 2, UpAfter: 2, Cooldown: -1}
	priciest := f.replicas[1].Addr() // price 10

	runWindow := func(demands []float64) (membership.Decision, bool) {
		t.Helper()
		f.submitAll(t, demands)
		if _, err := f.replicas[0].RunRound(ctx); err != nil {
			t.Fatal(err)
		}
		d, applied, err := f.replicas[0].AutoScale(ctx, policy)
		if err != nil {
			t.Fatal(err)
		}
		return d, applied
	}

	// Window 1: cold fleet, low load (50 MB over 300 MB capacity = 0.17).
	// One low window must NOT trigger — that is the hysteresis.
	if d, applied := runWindow([]float64{30, 20}); applied || d.Action != membership.Hold {
		t.Fatalf("one low window already acted: %+v", d)
	}
	if f.replicas[0].Membership().IsDrained(priciest) {
		t.Fatal("drained after a single low window")
	}
	// Window 2: second consecutive low window crosses DownAfter and
	// drains the priciest active member.
	d, applied := runWindow([]float64{30, 20})
	if !applied || d.Action != membership.PowerDown || d.Target != priciest {
		t.Fatalf("second low window: %+v (applied %v), want power-down of %s", d, applied, priciest)
	}
	if !f.replicas[0].Membership().IsDrained(priciest) {
		t.Fatal("power-down not applied to the epoch")
	}

	// Windows 3-4: high load over the shrunken fleet (170 MB over 200 MB
	// active capacity = 0.85). First high window holds, second powers the
	// drained member back up — and it is the cheapest (only) drained one.
	if d, applied := runWindow([]float64{100, 70}); applied || d.Action != membership.Hold {
		t.Fatalf("one high window already acted: %+v", d)
	}
	d, applied = runWindow([]float64{100, 70})
	if !applied || d.Action != membership.PowerUp || d.Target != priciest {
		t.Fatalf("second high window: %+v (applied %v), want power-up of %s", d, applied, priciest)
	}
	if f.replicas[0].Membership().IsDrained(priciest) {
		t.Fatal("power-up not applied to the epoch")
	}

	// Comfort-band window: nothing moves, streaks reset.
	if d, applied := runWindow([]float64{100, 70}); applied {
		t.Fatalf("comfort-band window acted: %+v", d)
	}
}
