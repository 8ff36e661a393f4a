package core

import (
	"context"
	"math"
	"testing"
	"time"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

// cohortFleet builds a fleet whose initiator aggregates clients into
// cohorts from the first request onward.
func cohortFleet(t *testing.T, prices []float64, nClients int, alg Algorithm) *fleet {
	t.Helper()
	f := &fleet{net: transport.NewInProcNetwork()}
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = replicaName(i)
	}
	for i, price := range prices {
		cfg := ReplicaConfig{
			Replica:          model.NewReplica(replicaName(i), price),
			Algorithm:        alg,
			CohortMinClients: 2,
		}
		rs, err := NewReplicaServer(f.net, replicaName(i), names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		f.replicas = append(f.replicas, rs)
	}
	for i := 0; i < nClients; i++ {
		cl, err := NewClient(f.net, clientName(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

// classLatencies gives client i one of three shared latency profiles: a
// near class, a far-but-feasible class, and a class for which the last
// replica is beyond the bound. The near and far classes share the
// all-feasible mask, so 12 clients collapse to 2 cohorts.
func classLatencies(f *fleet, i int) map[string]float64 {
	m := make(map[string]float64, len(f.replicas))
	for j, r := range f.replicas {
		switch i % 3 {
		case 0:
			m[r.Addr()] = 0.0004
		case 1:
			m[r.Addr()] = 0.0012
		default:
			if j == len(f.replicas)-1 {
				m[r.Addr()] = 0.0050 // beyond T = 1.8 ms
			} else {
				m[r.Addr()] = 0.0007
			}
		}
	}
	return m
}

// TestCohortedRoundEndToEnd drives a full scheduling round at cohort
// granularity for every registered algorithm and checks the runtime
// contract: the distributed loop saw |K| rows, but clients got exact
// per-client allocations respecting their own latency masks.
func TestCohortedRoundEndToEnd(t *testing.T) {
	for _, alg := range []Algorithm{LDDM, CDPSM, ADMM} {
		t.Run(string(alg), func(t *testing.T) {
			const nClients = 12
			f := cohortFleet(t, []float64{1, 10, 5}, nClients, alg)
			ctx := context.Background()
			demands := make([]float64, nClients)
			for i, cl := range f.clients {
				demands[i] = 4 + float64(i)
				if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], classLatencies(f, i)); err != nil {
					t.Fatal(err)
				}
			}
			report, err := f.replicas[0].RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if report.Cohorts != 2 {
				t.Fatalf("Cohorts = %d, want 2", report.Cohorts)
			}
			if want := float64(nClients) / 2; math.Abs(report.CohortRatio-want) > 1e-12 {
				t.Fatalf("CohortRatio = %g, want %g", report.CohortRatio, want)
			}
			if len(report.ClientAddrs) != nClients || len(report.Assignment) != nClients {
				t.Fatalf("report has %d clients / %d rows, want %d (per-client granularity)",
					len(report.ClientAddrs), len(report.Assignment), nClients)
			}
			// Exact demand conservation per raw client, zero load on the
			// masked-out link of the third class.
			demandOf := make(map[string]float64, nClients)
			classOf := make(map[string]int, nClients)
			for i, cl := range f.clients {
				demandOf[cl.Addr()] = demands[i]
				classOf[cl.Addr()] = i % 3
			}
			lastCol := -1
			for j, addr := range report.ReplicaAddrs {
				if addr == f.replicas[len(f.replicas)-1].Addr() {
					lastCol = j
				}
			}
			for i, addr := range report.ClientAddrs {
				sum := 0.0
				for _, v := range report.Assignment[i] {
					if v < -1e-9 {
						t.Fatalf("negative load for %s: %g", addr, v)
					}
					sum += v
				}
				if math.Abs(sum-demandOf[addr]) > 1e-6 {
					t.Fatalf("%s served %g of demand %g", addr, sum, demandOf[addr])
				}
				if classOf[addr] == 2 && report.Assignment[i][lastCol] != 0 {
					t.Fatalf("%s got %g on its latency-infeasible replica", addr, report.Assignment[i][lastCol])
				}
			}
			if report.Objective <= 0 {
				t.Fatalf("objective = %g", report.Objective)
			}
			checkCohortDuals(t, f)
			// Every client received its allocation despite μ-update fan-out
			// touching only cohort representatives.
			for i, cl := range f.clients {
				alloc, err := cl.WaitAllocation(ctx)
				if err != nil {
					t.Fatalf("client %d allocation: %v", i, err)
				}
				total := 0.0
				for _, mb := range alloc.PerReplicaMB {
					total += mb
				}
				if math.Abs(total-demands[i]) > 1e-6 {
					t.Fatalf("client %d allocated %g of demand %g", i, total, demands[i])
				}
			}

			// A second round exercises the cohort-aggregated warm start
			// (rows summed to cohort granularity, duals demand-averaged).
			for i, cl := range f.clients {
				if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], classLatencies(f, i)); err != nil {
					t.Fatal(err)
				}
			}
			second, err := f.replicas[0].RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !second.WarmStarted {
				t.Fatal("second cohorted round did not warm-start")
			}
			if second.Cohorts != 2 {
				t.Fatalf("second round Cohorts = %d, want 2", second.Cohorts)
			}
			checkCohortDuals(t, f)
		})
	}
}

// checkCohortDuals holds the committed duals of a dual-reporting algorithm
// to the cohort they were solved for: every member of a mask class (one
// cohort) carries the same μ as the cohort's first member — client 0 for
// the all-feasible mask, client 2 for the masked class.
func checkCohortDuals(t *testing.T, f *fleet) {
	t.Helper()
	if f.replicas[0].committed().mus == nil {
		return // CDPSM reports no duals
	}
	for i, cl := range f.clients {
		mu, ok := committedMu(f.replicas[0], cl.Addr())
		if !ok {
			t.Fatalf("client %s has no committed dual", cl.Addr())
		}
		lead := 0
		if i%3 == 2 {
			lead = 2
		}
		if head, _ := committedMu(f.replicas[0], f.clients[lead].Addr()); mu != head {
			t.Fatalf("member %s holds μ %g, its first member %s %g", cl.Addr(), mu, f.clients[lead].Addr(), head)
		}
	}
}

// TestCohortPushScalesQueuedDemand pins what a cohort member is told: the
// demand the round solved, which adds up repeat submissions, not the last
// figure the client sent. Six clients in three mask classes each submit
// 5 MB and then 3 MB before the round; the round commits 8 MB rows, the
// cohort push must carry 8 MB, and a client whose push was consumed must
// accept the pulled 8 MB row.
func TestCohortPushScalesQueuedDemand(t *testing.T) {
	f := cohortFleet(t, []float64{1, 10, 5}, 6, LDDM)
	ctx := context.Background()
	latencies := func(i int) map[string]float64 {
		m := f.uniformLatencies()
		if i%3 > 0 {
			m[f.replicas[i%3].Addr()] = 0.0050 // one class per masked replica
		}
		return m
	}
	for i, cl := range f.clients {
		for _, mb := range []float64{5, 3} {
			if err := cl.Submit(ctx, f.replicas[0].Addr(), mb, latencies(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Cohorts != 3 {
		t.Fatalf("Cohorts = %d, want 3", report.Cohorts)
	}
	for i, row := range opt.RowSums(report.Assignment) {
		if math.Abs(row-8) > 1e-6 {
			t.Fatalf("committed row %d carries %g MB, want 8", i, row)
		}
	}
	for i, cl := range f.clients {
		alloc, err := cl.WaitAllocation(ctx)
		if err != nil {
			t.Fatalf("client %d push: %v", i, err)
		}
		if got := allocatedMB(alloc); math.Abs(got-8) > 1e-6 {
			t.Fatalf("client %d pushed %g MB, the round committed 8", i, got)
		}
	}
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	alloc, err := f.clients[0].WaitAllocationSteady(pctx, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("pull after the push was consumed: %v", err)
	}
	if got := allocatedMB(alloc); math.Abs(got-8) > 1e-6 {
		t.Fatalf("pulled %g MB, want 8", got)
	}
}

// allocatedMB is an allocation's total mass.
func allocatedMB(alloc AllocationBody) float64 {
	total := 0.0
	for _, mb := range alloc.PerReplicaMB {
		total += mb
	}
	return total
}

// TestCohortingDisabledBelowThreshold pins the gate: fewer pending
// requests than CohortMinClients (or distinct profiles that cannot
// compress) run the classic ungrouped round.
func TestCohortingDisabledBelowThreshold(t *testing.T) {
	f := cohortFleet(t, []float64{1, 5}, 1, LDDM)
	ctx := context.Background()
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 10, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Cohorts != 0 || report.CohortRatio != 0 {
		t.Fatalf("single-request round reported cohorts: %d (ratio %g)", report.Cohorts, report.CohortRatio)
	}
	rows := opt.RowSums(report.Assignment)
	if len(rows) != 1 || math.Abs(rows[0]-10) > 1e-6 {
		t.Fatalf("row sums = %v, want [10]", rows)
	}
}
