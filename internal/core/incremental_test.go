package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"edr/internal/opt"
	"edr/internal/sim"
	"edr/internal/workload"
)

// drainAllocations empties every client's allocation channel so a later
// suppression check sees only new deliveries.
func drainAllocations(t *testing.T, f *fleet) {
	t.Helper()
	for _, cl := range f.clients {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if _, err := cl.WaitAllocation(ctx); err != nil {
			t.Fatalf("client %s got no allocation: %v", cl.Addr(), err)
		}
		cancel()
	}
}

// submitAll sends one request per client with the given demands.
func submitAll(t *testing.T, f *fleet, demands []float64) {
	t.Helper()
	ctx := context.Background()
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
}

// Two identical rounds: the second must take the clean incremental path —
// empty dirty set, zero iterations, the committed assignment re-used
// bitwise, and every client's notify suppressed.
func TestIncrementalIdenticalRoundsCommitClean(t *testing.T) {
	for _, alg := range []Algorithm{LDDM, CDPSM, ADMM} {
		t.Run(string(alg), func(t *testing.T) {
			f := newFleetCfg(t, []float64{1, 10, 5}, 3, alg, func(i int, cfg *ReplicaConfig) {
				cfg.Incremental = true
			})
			ctx := context.Background()
			demands := []float64{30, 20, 25}

			submitAll(t, f, demands)
			first, err := f.replicas[0].RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if first.Incremental {
				t.Fatal("first round (no history) claimed to be incremental")
			}
			drainAllocations(t, f)

			submitAll(t, f, demands)
			second, err := f.replicas[0].RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Incremental {
				t.Fatal("identical second round did not take the incremental path")
			}
			if second.DirtyClients != 0 {
				t.Fatalf("dirty clients = %d, want 0", second.DirtyClients)
			}
			if second.Iterations != 0 {
				t.Fatalf("iterations = %d, want 0 on a clean round", second.Iterations)
			}
			if second.SuppressedNotifies != len(f.clients) {
				t.Fatalf("suppressed = %d, want %d", second.SuppressedNotifies, len(f.clients))
			}
			for i := range second.Assignment {
				for j := range second.Assignment[i] {
					if second.Assignment[i][j] != first.Assignment[i][j] {
						t.Fatalf("assignment[%d][%d] moved on a clean round: %g -> %g",
							i, j, first.Assignment[i][j], second.Assignment[i][j])
					}
				}
			}
			if f.replicas[0].Stats.RoundsIncremental.Value() != 1 {
				t.Fatalf("RoundsIncremental = %d", f.replicas[0].Stats.RoundsIncremental.Value())
			}
			// Suppression means no client sees a second allocation.
			for _, cl := range f.clients {
				wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
				_, err := cl.WaitAllocation(wctx)
				cancel()
				if err == nil {
					t.Fatalf("client %s was notified on a clean round", cl.Addr())
				}
			}
		})
	}
}

// One drifted client: the incremental round re-solves just that client,
// conserves every demand, and suppresses the untouched clients' notifies.
func TestIncrementalDirtySubsetRound(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 10, 5}, 3, LDDM, func(i int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	ctx := context.Background()

	submitAll(t, f, []float64{30, 20, 25})
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	drainAllocations(t, f)

	drifted := []float64{33, 20, 25} // client1 +10%, others untouched
	submitAll(t, f, drifted)
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Incremental {
		t.Fatal("drifted round did not stay incremental (gate escalated?)")
	}
	if report.DirtyClients != 1 {
		t.Fatalf("dirty clients = %d, want 1", report.DirtyClients)
	}
	if report.SuppressedNotifies != 2 {
		t.Fatalf("suppressed = %d, want 2", report.SuppressedNotifies)
	}
	rows := opt.RowSums(report.Assignment)
	for i, addr := range report.ClientAddrs {
		var want float64
		for c, cl := range f.clients {
			if cl.Addr() == addr {
				want = drifted[c]
			}
		}
		if math.Abs(rows[i]-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("client %s served %g, want %g", addr, rows[i], want)
		}
	}
	// The dirty client was re-notified; the clean ones were not.
	for c, cl := range f.clients {
		wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		alloc, err := cl.WaitAllocation(wctx)
		cancel()
		if c == 0 {
			if err != nil {
				t.Fatalf("drifted client got no allocation: %v", err)
			}
			total := 0.0
			for _, v := range alloc.PerReplicaMB {
				total += v
			}
			if math.Abs(total-33) > 1e-6 {
				t.Fatalf("drifted client allocation sums to %g, want 33", total)
			}
		} else if err == nil {
			t.Fatalf("clean client %s was re-notified", cl.Addr())
		}
	}
}

// committedMu is a client's dual in rs's committed round (false when the
// round has no row for it or reported no duals).
func committedMu(rs *ReplicaServer, addr string) (float64, bool) {
	lg := rs.committed()
	i, ok := slices.BinarySearch(lg.clientAddrs, addr)
	if !ok || lg.mus == nil {
		return 0, false
	}
	return lg.mus[i], true
}

// Committed duals across quiet rounds (LDDM reports its μ): an incremental
// round overwrites only its solved rows, clean clients keep their values
// bit for bit, a departed client's entry is dropped with its row, and a
// vector over an unchanged roster is updated in place, not copied.
func TestIncrementalDualsUpdatedInPlace(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 10, 5}, 4, LDDM, func(i int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	ctx := context.Background()
	submit := func(demands []float64) *RoundReport {
		t.Helper()
		for i, d := range demands {
			if err := f.clients[i].Submit(ctx, f.replicas[0].Addr(), d, f.uniformLatencies()); err != nil {
				t.Fatal(err)
			}
		}
		report, err := f.replicas[0].RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	addr := func(i int) string { return f.clients[i].Addr() }

	submit([]float64{30, 20, 25, 15})
	full := f.replicas[0].committed().mus
	if len(full) != 4 {
		t.Fatalf("full round committed %d duals, want 4", len(full))
	}
	before := map[string]float64{}
	for i := range full {
		before[addr(i)], _ = committedMu(f.replicas[0], addr(i))
	}

	// Client 3 leaves, client 0 drifts: one solved row among three.
	if r := submit([]float64{33, 20, 25}); !r.Incremental || r.DirtyClients != 1 {
		t.Fatalf("second round: incremental %v, dirty %d; want incremental, 1", r.Incremental, r.DirtyClients)
	}
	second := f.replicas[0].committed().mus
	if _, ok := committedMu(f.replicas[0], addr(3)); ok || len(second) != 3 {
		t.Fatalf("departed client's dual kept: %v", second)
	}
	for _, i := range []int{1, 2} {
		if got, _ := committedMu(f.replicas[0], addr(i)); got != before[addr(i)] {
			t.Fatalf("clean client %d's dual moved: %v → %v", i, before[addr(i)], got)
		}
	}

	// Client 1 drifts next: the roster is unchanged, so the vector is reused.
	if r := submit([]float64{33, 22, 25}); !r.Incremental || r.DirtyClients != 1 {
		t.Fatalf("third round: incremental %v, dirty %d; want incremental, 1", r.Incremental, r.DirtyClients)
	}
	third := f.replicas[0].committed().mus
	if len(third) != 3 {
		t.Fatalf("third round committed %d duals, want 3", len(third))
	}
	if &third[0] != &second[0] {
		t.Fatal("the dual vector of an unchanged roster was copied, not updated in place")
	}
}

// A client departs and another joins between two rounds: the warm start
// hands each surviving client its own committed μ and the newcomer 0, and an
// incremental round over the new roster commits the survivors' μ on their
// new rows. The committed duals are overwritten with one distinct value per
// client first, so a vector misaligned by one row fails every survivor.
func TestWarmDualsFollowClientsAcrossJoinAndDeparture(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 10, 5}, 5, LDDM, func(i int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	ctx := context.Background()
	rs := f.replicas[0]
	addr := func(i int) string { return f.clients[i].Addr() }
	demands := []float64{30, 20, 25, 15, 10}
	submit := func(clients ...int) *RoundReport {
		t.Helper()
		for _, i := range clients {
			if err := f.clients[i].Submit(ctx, rs.Addr(), demands[i], f.uniformLatencies()); err != nil {
				t.Fatal(err)
			}
		}
		report, err := rs.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}

	submit(0, 1, 2, 3)
	committed := map[string]float64{}
	rs.mu.Lock()
	for i, c := range rs.lastGood.clientAddrs {
		rs.lastGood.mus[i] = float64(10 * (i + 1))
		committed[c] = rs.lastGood.mus[i]
	}
	rs.mu.Unlock()

	// Client 0 (the first row) departs, client 4 (past the last) joins.
	next := &attempt{full: instance{requests: []*RequestBody{
		{ClientAddr: addr(1), DemandMB: demands[1], LatencySec: f.latencyList()},
		{ClientAddr: addr(2), DemandMB: demands[2], LatencySec: f.latencyList()},
		{ClientAddr: addr(3), DemandMB: demands[3], LatencySec: f.latencyList()},
		{ClientAddr: addr(4), DemandMB: demands[4], LatencySec: f.latencyList()},
	}}}
	if err := rs.gather(ctx, next); err != nil {
		t.Fatal(err)
	}
	if err := rs.instantiate(1000, &next.full); err != nil {
		t.Fatal(err)
	}
	_, warmMu := rs.warmStart(&next.full)
	want := []float64{committed[addr(1)], committed[addr(2)], committed[addr(3)], 0}
	if !reflect.DeepEqual(warmMu, want) {
		t.Fatalf("warm μ over clients 1–4 = %v, want %v", warmMu, want)
	}

	report := submit(1, 2, 3, 4)
	if !report.Incremental || report.DirtyClients != 1 {
		t.Fatalf("join + departure round: incremental %v, dirty %d; want incremental, 1", report.Incremental, report.DirtyClients)
	}
	for _, i := range []int{1, 2, 3} {
		if got, _ := committedMu(rs, addr(i)); got != committed[addr(i)] {
			t.Errorf("surviving client %d committed μ %g, want its own %g", i, got, committed[addr(i)])
		}
	}
	if _, ok := committedMu(rs, addr(0)); ok {
		t.Error("departed client 0 kept a committed μ")
	}
}

// A replica parameter change dirties every client that can reach it: the
// round stays incremental but re-solves the full promoted set.
func TestIncrementalReplicaChangePromotesClients(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 10, 5}, 3, LDDM, func(i int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	ctx := context.Background()
	demands := []float64{30, 20, 25}
	submitAll(t, f, demands)
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	drainAllocations(t, f)

	// Tariff change on one replica between rounds.
	f.replicas[1].mu.Lock()
	f.replicas[1].cfg.Replica.Price *= 2
	f.replicas[1].mu.Unlock()

	submitAll(t, f, demands)
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Incremental && report.DirtyClients != len(f.clients) {
		t.Fatalf("tariff change dirtied %d of %d clients", report.DirtyClients, len(f.clients))
	}
	rows := opt.RowSums(report.Assignment)
	total := 0.0
	for _, v := range rows {
		total += v
	}
	if math.Abs(total-75) > 1e-6 {
		t.Fatalf("total served = %g, want 75", total)
	}
}

// A suppressed client must not be starved: change-suppressed rounds push
// nothing to clients whose split did not move, so a one-shot client (the
// edrctl path) falls back to pulling its committed row. The submission ack
// carries a round watermark; the pull is accepted once the committed round
// passes it and the row's mass matches the queued demand.
func TestPullAllocationAfterQuietRound(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 10, 5}, 2, LDDM, func(i int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	ctx := context.Background()
	demands := []float64{30, 20}

	submitAll(t, f, demands)
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	drainAllocations(t, f)

	// Identical resubmission: the quiet round suppresses every push.
	submitAll(t, f, demands)
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.SuppressedNotifies != len(f.clients) {
		t.Fatalf("suppressed = %d, want %d", report.SuppressedNotifies, len(f.clients))
	}

	// The steady wait still delivers each client's row, via the pull verb.
	for i, cl := range f.clients {
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		alloc, err := cl.WaitAllocationSteady(wctx, 10*time.Millisecond)
		cancel()
		if err != nil {
			t.Fatalf("client %s starved on a quiet round: %v", cl.Addr(), err)
		}
		if alloc.Round != report.Round {
			t.Errorf("client %s pulled round %d, want committed round %d", cl.Addr(), alloc.Round, report.Round)
		}
		var sum float64
		for _, mb := range alloc.PerReplicaMB {
			sum += mb
		}
		if math.Abs(sum-demands[i]) > 1e-6*demands[i] {
			t.Errorf("client %s pulled row sums to %g, want %g", cl.Addr(), sum, demands[i])
		}
	}
}

// A pull finds its row in the committed round by binary search over the
// ascending client addresses: the first and the last row come back whole,
// and a client the round does not cover gets the round id and no split.
func TestAllocationPullFindsFirstLastAndAbsent(t *testing.T) {
	f := newFleet(t, []float64{1, 10, 5}, 5, LDDM)
	demands := []float64{30, 20, 25, 15, 10}
	submitAll(t, f, demands)
	report, err := f.replicas[0].RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pull := func(addr string) AllocationBody {
		t.Helper()
		resp, err := sendRaw(t, f, f.replicas[0].Addr(), MsgAllocationPull, PullBody{ClientAddr: addr})
		if err != nil {
			t.Fatal(err)
		}
		var body AllocationBody
		if err := resp.DecodeBody(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, i := range []int{0, len(f.clients) - 1} {
		body := pull(f.clients[i].Addr())
		if body.Round != report.Round {
			t.Fatalf("client %d pulled round %d, want %d", i, body.Round, report.Round)
		}
		for j, replica := range report.ReplicaAddrs {
			if got, want := body.MB(replica), report.Assignment[i][j]; got != want {
				t.Errorf("client %d pulled %g MB from %s, the committed row says %g", i, got, replica, want)
			}
		}
	}
	for _, absent := range []string{"client0", "client3x", "zzz"} {
		if body := pull(absent); body.Round != report.Round || body.PerReplicaMB != nil {
			t.Errorf("absent client %s pulled round %d, split %v; want round %d, no split", absent, body.Round, body.PerReplicaMB, report.Round)
		}
	}
}

// checkFeasibleReport holds a committed assignment to the problem's
// constraints: every row serves its demand, no column exceeds 100 MB (the
// fleets' default bandwidth).
func checkFeasibleReport(t *testing.T, f *fleet, report *RoundReport, demands []float64) {
	t.Helper()
	demandOf := make(map[string]float64, len(demands))
	for i, cl := range f.clients {
		demandOf[cl.Addr()] = demands[i]
	}
	for i, got := range opt.RowSums(report.Assignment) {
		if want := demandOf[report.ClientAddrs[i]]; math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("client %s served %g, want %g", report.ClientAddrs[i], got, want)
		}
	}
	for j, load := range opt.ColSums(report.Assignment) {
		if load > 100*(1+1e-6) {
			t.Fatalf("replica %s carries %g MB over its 100 MB bandwidth", report.ReplicaAddrs[j], load)
		}
	}
}

// A drift round on a cohorted 200-client fleet: the dirty rows fold into
// cohorts, the central sub-solve stops on its duality-gap certificate well
// inside its iteration bound, and the merged result passes the gate.
func TestIncrementalDriftRoundStopsOnCertificate(t *testing.T) {
	const nClients = 200
	f := newFleetCfg(t, []float64{1, 10, 5, 3}, nClients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
		cfg.CohortMinClients = 2
	})
	ctx := context.Background()
	demands := make([]float64, nClients)
	submit := func() {
		for i, cl := range f.clients {
			if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], classLatencies(f, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range demands {
		demands[i] = 0.2 + 0.005*float64(i)
	}
	submit()
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	drainAllocations(t, f)

	const drifted = 10
	for k := 0; k < drifted; k++ {
		demands[k*nClients/drifted] *= 1.1
	}
	submit()
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := &f.replicas[0].Stats
	if !report.Incremental || report.DirtyClients != drifted || stats.RoundsEscalated.Value() != 0 {
		t.Fatalf("drift round did not commit incrementally: incremental=%v dirty=%d escalated=%d",
			report.Incremental, report.DirtyClients, stats.RoundsEscalated.Value())
	}
	if report.Cohorts == 0 || report.Cohorts >= drifted {
		t.Fatalf("dirty rows solved as %d cohorts, want them folded", report.Cohorts)
	}
	if report.Iterations < 1 || report.Iterations >= 200 {
		t.Fatalf("sub-solve took %d iterations, want a certificate within 200", report.Iterations)
	}
	// The certificate is relative to the sub-instance's objective, which the
	// whole round's bounds from above.
	if stats.SubsolveUnconverged.Value() != 0 || report.SubsolveGap > 1e-4*(1+report.Objective) {
		t.Fatalf("sub-solve uncertified: gap %g on objective %g, unconverged %d",
			report.SubsolveGap, report.Objective, stats.SubsolveUnconverged.Value())
	}
	checkFeasibleReport(t, f, report, demands)
}

// When the clean rows hold the cheap replica at its bandwidth the dirty
// sub-instance's residual cap binds, so the sub-solve's oracle must route
// through the flow network. Whatever the outcome it is explicit — an
// incremental commit carrying a certificate, or a counted escalation to a
// full solve — and what is installed is feasible.
func TestIncrementalBindingResidualCapIsCertifiedOrEscalated(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 10}, 4, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	ctx := context.Background()
	demands := []float64{40, 40, 40, 40}
	submitAll(t, f, demands)
	first, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if load := opt.ColSums(first.Assignment)[0]; load < 99 {
		t.Fatalf("cheap replica carries %g MB; the test needs it at its 100 MB cap", load)
	}
	drainAllocations(t, f)

	demands[0] = 44
	submitAll(t, f, demands)
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := &f.replicas[0].Stats
	switch {
	case report.Incremental:
		if report.DirtyClients != 1 || stats.RoundsEscalated.Value() != 0 {
			t.Fatalf("incremental commit with dirty=%d escalated=%d", report.DirtyClients, stats.RoundsEscalated.Value())
		}
		if report.Iterations < 1 || report.SubsolveGap > 1e-4*(1+report.Objective) {
			t.Fatalf("incremental commit without a certificate: %d iterations, gap %g", report.Iterations, report.SubsolveGap)
		}
	case stats.RoundsEscalated.Value() != 1:
		t.Fatalf("round left the incremental path without counting an escalation: %+v", report)
	}
	if stats.SubsolveUnconverged.Value() > stats.RoundsEscalated.Value() {
		t.Fatalf("SubsolveUnconverged %d exceeds RoundsEscalated %d", stats.SubsolveUnconverged.Value(), stats.RoundsEscalated.Value())
	}
	checkFeasibleReport(t, f, report, demands)
}

// A cohorted fleet through cumulative demand drift — 0%, 1%, 10% and then
// 100% of the clients moved by up to ±20% — against an always-full cohorted
// fleet given the same demands: the quiet round commits clean with every
// notify suppressed, and at every level the incremental round is feasible
// and its objective within 15% of the full fleet's.
func TestCohortedDriftTracksFullFleet(t *testing.T) {
	const nClients = 200
	cohorted := func(incremental bool) *fleet {
		return newFleetCfg(t, []float64{1, 10, 5, 3}, nClients, LDDM, func(_ int, cfg *ReplicaConfig) {
			cfg.Incremental = incremental
			cfg.CohortMinClients = 2
		})
	}
	inc, full := cohorted(true), cohorted(false)
	ctx := context.Background()
	run := func(f *fleet, demands []float64) *RoundReport {
		t.Helper()
		for i, cl := range f.clients {
			if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], classLatencies(f, i)); err != nil {
				t.Fatal(err)
			}
		}
		report, err := f.replicas[0].RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	r := sim.NewRand(11)
	demands := make([]float64, nClients)
	for i := range demands {
		demands[i] = r.Range(0.2, 1.2)
	}
	run(inc, demands)
	run(full, demands)
	for _, frac := range []float64{0, 0.01, 0.10, 1} {
		demands = workload.Drift{Fraction: frac, Magnitude: 0.2}.Apply(r, demands)
		got, want := run(inc, demands), run(full, demands)
		if frac == 0 && (!got.Incremental || got.DirtyClients != 0 || got.SuppressedNotifies != nClients) {
			t.Fatalf("quiet round: incremental=%v dirty=%d suppressed=%d, want clean with %d suppressed",
				got.Incremental, got.DirtyClients, got.SuppressedNotifies, nClients)
		}
		checkFeasibleReport(t, inc, got, demands)
		if gap := math.Abs(got.Objective-want.Objective) / math.Max(1, math.Abs(want.Objective)); gap > 0.15 {
			t.Fatalf("%g%% drift: incremental objective %g vs full %g (rel gap %g)", 100*frac, got.Objective, want.Objective, gap)
		}
	}
}

// The incremental gate refuses a merged matrix with a non-finite cell.
// Every comparison against NaN is false, so a gate that asks "is it over
// the bound?" waves a NaN Violation through; the gate must ask "is it
// within the bound?" instead, as solver.Verify does.
func TestGateRefusesNonFiniteMerge(t *testing.T) {
	prob, err := specProblem(&RoundSpec{
		Replicas: []ReplicaInfo{
			{Addr: "a", Price: 1, Alpha: 1, Beta: 0.01, Gamma: 2, Bandwidth: 100},
			{Addr: "b", Price: 4, Alpha: 1, Beta: 0.01, Gamma: 2, Bandwidth: 100},
		},
		Demands:  []float64{1, 2},
		Feasible: [][]bool{{true, true}, {true, true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		plan := &incrementalPlan{}
		if err := plan.gate(prob, [][]float64{{0.5, 0.5}, {bad, 1}}); !errors.Is(err, errEscalateFull) {
			t.Fatalf("gate passed a merge with a %v cell (violation %v, cost %v): %v", bad, plan.audit.Violation, plan.audit.Cost, err)
		}
	}
}
