package core

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"edr/internal/opt"
	"edr/internal/transport"
)

// kindFleet is the one fleet shape every plan kind is driven over: three
// replicas priced {1, 4, 9} and six clients, every third of which cannot
// reach r2 within the latency bound.
func kindFleet(t *testing.T, tweak func(*ReplicaConfig)) *chaosFleet {
	t.Helper()
	return newChaosFleet(t, []float64{1, 4, 9}, 6, 11, func(cfg *ReplicaConfig) {
		cfg.RPCTimeout = 30 * time.Millisecond
		cfg.SendRetries = 1
		cfg.RetryBase = time.Millisecond
		cfg.RoundRetries = -1
		if tweak != nil {
			tweak(cfg)
		}
	})
}

func kindLatencies(i int) map[string]float64 {
	lat := map[string]float64{"r1": 0.0005, "r2": 0.0005, "r3": 0.0005}
	if i%3 == 2 {
		lat["r2"] = 0.005 // beyond T = 1.8 ms
	}
	return lat
}

// runKindRound submits demands (one per client) to r1, runs a round there,
// and returns the report plus the allocation each client was pushed (nil
// for clients the round did not notify).
func runKindRound(t *testing.T, f *chaosFleet, demands []float64) (*RoundReport, []*AllocationBody) {
	t.Helper()
	ctx := context.Background()
	before := make([]int64, len(f.clients))
	for i, cl := range f.clients {
		before[i] = cl.Stats.Allocations.Value()
		if err := cl.Submit(ctx, "r1", demands[i], kindLatencies(i)); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A push is in the client's channel before the notify fan-out returns.
	pushed := make([]*AllocationBody, len(f.clients))
	for i, cl := range f.clients {
		if cl.Stats.Allocations.Value() > before[i] {
			alloc, err := cl.WaitAllocation(ctx)
			if err != nil {
				t.Fatal(err)
			}
			pushed[i] = &alloc
		}
	}
	return report, pushed
}

// pullAllocation asks the initiator for a client's committed row.
func pullAllocation(t *testing.T, f *chaosFleet, clientAddr string) AllocationBody {
	t.Helper()
	node, err := f.net.Listen("puller", func(context.Context, transport.Message) (transport.Message, error) {
		return transport.Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	req, err := transport.NewMessage(MsgAllocationPull, "puller", PullBody{ClientAddr: clientAddr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := node.Send(context.Background(), "r1", req)
	if err != nil {
		t.Fatal(err)
	}
	var body AllocationBody
	if err := resp.DecodeBody(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// checkRoundInvariants applies the assertions every plan kind must meet.
// installs and commits say whether the kind fans a plan out to the replicas
// and whether it becomes the committed round.
func checkRoundInvariants(t *testing.T, f *chaosFleet, report *RoundReport, pushed []*AllocationBody, demands []float64, installs, commits bool) {
	t.Helper()
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-6*math.Max(1, want) }
	clientIdx := make(map[string]int, len(f.clients))
	for i, cl := range f.clients {
		clientIdx[cl.Addr()] = i
	}
	if len(report.ClientAddrs) != len(f.clients) || len(report.Assignment) != len(f.clients) {
		t.Fatalf("report covers %d clients / %d rows, want %d", len(report.ClientAddrs), len(report.Assignment), len(f.clients))
	}
	for ii := 1; ii < len(report.ClientAddrs); ii++ {
		if report.ClientAddrs[ii] <= report.ClientAddrs[ii-1] {
			t.Errorf("report rows do not ascend: %s after %s", report.ClientAddrs[ii], report.ClientAddrs[ii-1])
		}
	}
	rows := opt.RowSums(report.Assignment)
	for ii, addr := range report.ClientAddrs {
		i := clientIdx[addr]
		if !near(rows[ii], demands[i]) {
			t.Errorf("%s assigned %g of demand %g", addr, rows[ii], demands[i])
		}
		for jj, replica := range report.ReplicaAddrs {
			if v := report.Assignment[ii][jj]; v != 0 && kindLatencies(i)[replica] > 0.0018 {
				t.Errorf("%s gets %g MB from %s beyond the latency bound", addr, v, replica)
			}
		}
	}
	for jj, load := range opt.ColSums(report.Assignment) {
		if load > 100*(1+1e-6) {
			t.Errorf("%s carries %g MB over its 100 MB bandwidth", report.ReplicaAddrs[jj], load)
		}
	}
	replicaOf := make(map[string]*ReplicaServer, len(f.replicas))
	for _, rs := range f.replicas {
		replicaOf[rs.Addr()] = rs
	}
	for jj, replica := range report.ReplicaAddrs {
		for ii, addr := range report.ClientAddrs {
			want := 0.0
			if installs {
				want = report.Assignment[ii][jj]
			}
			if got := replicaOf[replica].Plan(report.Round, addr); !near(got, want) {
				t.Errorf("%s installed %g MB for %s in round %d, want %g", replica, got, addr, report.Round, want)
			}
		}
	}
	for ii, addr := range report.ClientAddrs {
		alloc := pushed[clientIdx[addr]]
		pulled := pullAllocation(t, f, addr)
		if commits && pulled.Round != report.Round {
			t.Errorf("%s pulls round %d, want the committed round %d", addr, pulled.Round, report.Round)
		}
		if !commits && pulled.Round == report.Round {
			t.Errorf("%s pulls round %d, which must not have been committed", addr, report.Round)
		}
		if alloc == nil {
			alloc = &pulled
		}
		if alloc.Round != report.Round {
			t.Errorf("%s holds an allocation of round %d, want %d", addr, alloc.Round, report.Round)
		}
		for jj, replica := range report.ReplicaAddrs {
			if got, want := alloc.MB(replica), report.Assignment[ii][jj]; !near(got, want) {
				t.Errorf("%s told %g MB from %s, report says %g", addr, got, replica, want)
			}
		}
	}
}

// TestEveryPlanKindMeetsRoundInvariants drives a full, a cohorted, an
// incremental, an escalated, a clean and a degraded round through RunRound
// on one fleet shape and holds each to the same output contract.
func TestEveryPlanKindMeetsRoundInvariants(t *testing.T) {
	base := []float64{4, 5, 6, 7, 8, 9}
	drifted := []float64{4, 5, 6, 7, 8, 9.9}
	cases := []struct {
		name               string
		tweak              func(*ReplicaConfig)
		second             []float64 // demands of the round under test
		partition          bool      // cut r3 off before the round under test
		installs, commits  bool
		check              func(t *testing.T, f *chaosFleet, report *RoundReport)
		wantPushed, wantNo []int // clients that must / must not be pushed
	}{
		{name: "full", second: base, installs: true, commits: true,
			check: func(t *testing.T, f *chaosFleet, r *RoundReport) {
				if r.Cohorts != 0 || r.Incremental || r.Degraded || r.Iterations == 0 {
					t.Fatalf("not a plain full round: %+v", r)
				}
			}},
		{name: "cohorted", second: base, installs: true, commits: true,
			tweak: func(cfg *ReplicaConfig) { cfg.CohortMinClients = 2 },
			check: func(t *testing.T, f *chaosFleet, r *RoundReport) {
				if r.Cohorts != 2 || r.Incremental || r.Degraded {
					t.Fatalf("not a 2-cohort full round: %+v", r)
				}
			}},
		{name: "incremental", second: drifted, installs: true, commits: true,
			tweak: func(cfg *ReplicaConfig) { cfg.Incremental = true },
			check: func(t *testing.T, f *chaosFleet, r *RoundReport) {
				if !r.Incremental || r.DirtyClients != 1 || r.SuppressedNotifies != 5 {
					t.Fatalf("not a 1-dirty incremental round: %+v", r)
				}
			}, wantPushed: []int{5}, wantNo: []int{0, 1, 2, 3, 4}},
		{name: "escalated", second: []float64{4, 5, 6, 7, 8, 12}, installs: true, commits: true,
			tweak: func(cfg *ReplicaConfig) { cfg.Incremental = true },
			check: func(t *testing.T, f *chaosFleet, r *RoundReport) {
				// A third more demand on the client with the fewest links: the
				// merged result fails the gate and the attempt re-plans as full.
				if r.Incremental || r.Iterations == 0 || f.replicas[0].Stats.RoundsEscalated.Value() != 1 {
					t.Fatalf("gate did not escalate to a full solve: %+v", r)
				}
			}},
		{name: "clean", second: base, installs: false, commits: true,
			tweak: func(cfg *ReplicaConfig) { cfg.Incremental = true },
			check: func(t *testing.T, f *chaosFleet, r *RoundReport) {
				if !r.Incremental || r.DirtyClients != 0 || r.SuppressedNotifies != 6 || r.Iterations != 0 {
					t.Fatalf("not a clean commit: %+v", r)
				}
			}, wantNo: []int{0, 1, 2, 3, 4, 5}},
		{name: "degraded", second: drifted, partition: true, installs: true, commits: false,
			check: func(t *testing.T, f *chaosFleet, r *RoundReport) {
				if !r.Degraded || len(r.ReplicaAddrs) != 2 {
					t.Fatalf("not a degraded round over the 2 reachable replicas: %+v", r)
				}
			}, wantPushed: []int{0, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := kindFleet(t, tc.tweak)
			first, pushed := runKindRound(t, f, base)
			checkRoundInvariants(t, f, first, pushed, base, true, true)
			if tc.partition {
				f.net.Partition([]string{"r3"}, []string{"r1", "r2"})
			}
			report, pushed := runKindRound(t, f, tc.second)
			tc.check(t, f, report)
			for _, i := range tc.wantPushed {
				if pushed[i] == nil {
					t.Errorf("client %d was not notified", i)
				}
			}
			for _, i := range tc.wantNo {
				if pushed[i] != nil {
					t.Errorf("client %d was notified", i)
				}
			}
			checkRoundInvariants(t, f, report, pushed, tc.second, tc.installs, tc.commits)
		})
	}
}

// roundStates counts the participant-side round states a replica holds.
func roundStates(rs *ReplicaServer) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.roundOrder) != len(rs.rounds) {
		return -1
	}
	return len(rs.rounds)
}

// TestRoundStatePruning: participants keep only the newest roundStatesKept
// round states, counted in states rather than round ids, so the base of a
// delta install outlives any run of clean commits (which advance the round
// id without creating state) — and the initiator stops sending deltas once
// enough stateful rounds have passed to evict it.
func TestRoundStatePruning(t *testing.T) {
	base := []float64{4, 5, 6, 7, 8, 9}

	t.Run("bounded", func(t *testing.T) {
		f := kindFleet(t, nil)
		for round := 1; round <= 50; round++ {
			report, pushed := runKindRound(t, f, base)
			for _, rs := range f.replicas {
				if n := roundStates(rs); n < 1 || n > roundStatesKept {
					t.Fatalf("%s holds %d round states after round %d, want 1..%d", rs.Addr(), n, round, roundStatesKept)
				}
			}
			if round == 50 {
				checkRoundInvariants(t, f, report, pushed, base, true, true)
			}
		}
	})

	t.Run("delta base survives clean commits", func(t *testing.T) {
		f := kindFleet(t, func(cfg *ReplicaConfig) { cfg.Incremental = true })
		installed, _ := runKindRound(t, f, base)
		for i := 0; i < roundStatesKept+2; i++ {
			if report, _ := runKindRound(t, f, base); report.DirtyClients != 0 || !report.Incremental {
				t.Fatalf("round %d was not a clean commit: %+v", report.Round, report)
			}
		}
		drifted := []float64{4, 5, 6, 7, 8, 9.9}
		report, pushed := runKindRound(t, f, drifted)
		if !report.Incremental || report.DirtyClients != 1 || report.Restarts != 0 {
			t.Fatalf("drifted round after the clean run: %+v", report)
		}
		if report.Round-installed.Round <= roundStatesKept {
			t.Fatalf("delta base only %d round ids back, want more than %d", report.Round-installed.Round, roundStatesKept)
		}
		if lg := f.replicas[0].committed(); lg.installedRound != report.Round {
			t.Fatalf("install reference = round %d, want %d", lg.installedRound, report.Round)
		}
		checkRoundInvariants(t, f, report, pushed, drifted, true, true)
	})

	t.Run("no delta against an evicted base", func(t *testing.T) {
		f := kindFleet(t, func(cfg *ReplicaConfig) { cfg.Incremental = true })
		runKindRound(t, f, base)
		f.net.Partition([]string{"r3"}, []string{"r1", "r2"})
		for i := 0; i < roundStatesKept; i++ {
			if report, _ := runKindRound(t, f, base); !report.Degraded {
				t.Fatalf("partitioned round %d did not degrade", report.Round)
			}
		}
		f.net.Heal()
		drifted := []float64{4, 5, 6, 7, 8, 9.9}
		report, pushed := runKindRound(t, f, drifted)
		if report.Degraded || report.Restarts != 0 || !report.Incremental || report.DirtyClients != 1 {
			t.Fatalf("healed round: %+v", report)
		}
		checkRoundInvariants(t, f, report, pushed, drifted, true, true)
	})
}

// TestRoundScratchNotRetainedAcrossShapes: a round's scratch is garbage
// once the round ends, whatever its shape. The client count falls by three
// a round, so no two rounds share a |C|×|N| shape; an initiator that kept
// a buffer per shape it had solved would grow its heap round after round
// while the instance shrinks.
func TestRoundScratchNotRetainedAcrossShapes(t *testing.T) {
	const (
		nClients = 400
		rounds   = 120
		step     = 3
		slack    = 1 << 20
	)
	prices := make([]float64, 10)
	for j := range prices {
		prices[j] = float64(1 + j)
	}
	f := newFleetCfg(t, prices, nClients, LDDM, func(_ int, cfg *ReplicaConfig) { cfg.MaxIters = -1 })
	rs, lats, ctx := f.replicas[0], f.uniformLatencies(), context.Background()
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var settled uint64
	for round := 1; round <= rounds; round++ {
		active := nClients - step*(round-1)
		for i, cl := range f.clients {
			var err error
			if i < active {
				err = cl.Submit(ctx, rs.Addr(), 1, lats)
			} else {
				err = cl.Withdraw(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		report, err := rs.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.ClientAddrs) != active {
			t.Fatalf("round %d solved %d clients, want %d", round, len(report.ClientAddrs), active)
		}
		if round == 10 {
			settled = heap()
		}
	}
	end := heap()
	t.Logf("live heap after round 10: %d B; after round %d: %d B", settled, rounds, end)
	if end > settled+slack {
		t.Fatalf("heap after %d shrinking rounds is %d B, %d B over round 10's", rounds, end, end-settled)
	}
}
