package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"edr/internal/opt"
	"edr/internal/sim"
	"edr/internal/transport"
	"edr/internal/workload"
)

// FuzzDrainOrder checks the roster-order drain against its definition —
// the pending set sorted by client address — over random committed
// rosters and queues: clients that joined since the roster, clients the
// roster lists that did not submit, repeat submissions and a failed
// round's put-back. The rows must ascend strictly and the queue must be
// left empty.
func FuzzDrainOrder(f *testing.F) {
	f.Add(uint64(1), uint16(40), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(2), uint16(0), []byte{9, 9, 9, 200, 17, 3})
	f.Add(uint64(3), uint16(1000), []byte{255, 0, 128})
	f.Add(uint64(4), uint16(7), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, rosterLen uint16, ops []byte) {
		const universe = 300
		r := sim.NewRand(seed)
		addr := func(k int) string { return fmt.Sprintf("client%03d", k) }
		var roster []string
		for k := 0; k < universe && len(roster) < int(rosterLen); k++ {
			if r.Float64() < 0.6 {
				roster = append(roster, addr(k))
			}
		}
		pending := make(map[string]*RequestBody)
		submit := func(k int) {
			a := addr(k)
			if req, ok := pending[a]; ok {
				req.DemandMB++ // a repeat aggregates into the queued row
				return
			}
			pending[a] = &RequestBody{ClientAddr: a, DemandMB: 1}
		}
		for _, k := range r.Perm(universe)[:r.Intn(universe)] {
			submit(k)
		}
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				submit(int(op) * 7 % universe)
			case 2:
				// A failed round: drain, new submissions land meanwhile, and
				// the drained requests go back under the newer ones.
				failed := drain(pending, roster)
				for k := 0; k < int(op)%5; k++ {
					submit(r.Intn(universe))
				}
				requeue(pending, failed)
			}
		}
		want := make([]string, 0, len(pending))
		queued := make(map[string]*RequestBody, len(pending))
		for a, req := range pending {
			want = append(want, a)
			queued[a] = req
		}
		slices.Sort(want)

		got := drain(pending, roster)
		if len(pending) != 0 {
			t.Fatalf("drain left %d requests queued", len(pending))
		}
		if len(got) != len(want) {
			t.Fatalf("drained %d requests, want %d", len(got), len(want))
		}
		for i, req := range got {
			if req.ClientAddr != want[i] || req != queued[want[i]] {
				t.Fatalf("row %d is %s, want %s's queued request", i, req.ClientAddr, want[i])
			}
			if i > 0 && got[i-1].ClientAddr >= req.ClientAddr {
				t.Fatalf("rows %d and %d do not ascend: %s, %s", i-1, i, got[i-1].ClientAddr, req.ClientAddr)
			}
		}
	})
}

// Submissions that land while a round drains and solves are scheduled
// exactly once: the round takes the queue whole and ingest continues into
// the map the previous round emptied, so none is lost to the swap or
// drained twice. Run it under -race.
func TestSubmissionsDuringRoundsAreScheduledOnce(t *testing.T) {
	const nClients, perClient, demand = 100, 20, 0.1
	f := newFleetCfg(t, []float64{1, 10, 5}, nClients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	})
	rs := f.replicas[0]
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, cl := range f.clients {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if err := cl.Submit(ctx, rs.Addr(), demand, f.uniformLatencies()); err != nil {
					t.Error(err)
					return
				}
			}
		}(cl)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scheduled, rounds := 0.0, 0
	round := func() {
		report, err := rs.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		for _, row := range report.Assignment {
			for _, v := range row {
				scheduled += v
			}
		}
	}
	for submitting := true; submitting; {
		select {
		case <-done:
			submitting = false
		default:
		}
		if rs.PendingRequests() > 0 {
			round()
		} else {
			runtime.Gosched()
		}
	}
	if rs.PendingRequests() > 0 {
		round()
	}
	t.Logf("%d rounds", rounds)
	if want := float64(nClients * perClient * demand); math.Abs(scheduled-want) > 1e-6*want {
		t.Fatalf("%d rounds scheduled %g MB of the %g MB submitted", rounds, scheduled, want)
	}
}

// installedPlan returns the serving plan rs installed for round, and
// whether it holds one.
func installedPlan(rs *ReplicaServer, round int) ([]ClientMB, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, ok := rs.rounds[round]
	if !ok || st.plan == nil {
		return nil, false
	}
	return st.plan, true
}

// A round in which clients only left must re-optimize the survivors: the
// load that departed re-prices the columns it sat on, so the round may not
// re-commit the committed split outright. Every replica installs a plan
// for the round without the departed client, and the objective matches a
// fresh full round over the survivors. Load that leaves within DeltaEps of
// every column's committed load re-prices nothing — as a demand drift
// that small dirties no client — so that round re-commits clean, still
// within the same distance of the fresh round.
func TestDepartureOnlyRoundReoptimizes(t *testing.T) {
	uniform := func(f *fleet, _ int) map[string]float64 { return f.uniformLatencies() }
	// Regions of three clients reaching two replicas each: a departure
	// re-prices its own region's columns, which a minority reaches.
	regional := func(f *fleet, i int) map[string]float64 {
		m := make(map[string]float64, len(f.replicas))
		for j, rs := range f.replicas {
			m[rs.Addr()] = 0.0050 // beyond T
			if j/2 == i/3 {
				m[rs.Addr()] = 0.0005
			}
		}
		return m
	}
	for _, tc := range []struct {
		name     string
		prices   []float64
		demands  []float64
		lat      func(*fleet, int) map[string]float64
		departed int
		// kind is how the departure round commits: "incremental" when the
		// promoted clients are a minority and are re-solved alone, "full"
		// for a majority, "clean" when nothing was re-priced.
		kind string
	}{
		{"three clients", []float64{1, 10, 5}, []float64{30, 20, 25}, uniform, 1, "full"},
		{"regional minority", []float64{1, 10, 5, 3, 2, 8}, []float64{30, 20, 25, 10, 15, 20, 12, 18, 22}, regional, 0, "incremental"},
		{"small departure", []float64{1, 10, 5}, []float64{30, 20, 25, 0.001}, uniform, 3, "clean"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			run := func(f *fleet, skip int) *RoundReport {
				t.Helper()
				for i, cl := range f.clients {
					if i == skip {
						continue
					}
					if err := cl.Submit(ctx, f.replicas[0].Addr(), tc.demands[i], tc.lat(f, i)); err != nil {
						t.Fatal(err)
					}
				}
				report, err := f.replicas[0].RunRound(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return report
			}
			inc := newFleetCfg(t, tc.prices, len(tc.demands), LDDM, func(_ int, cfg *ReplicaConfig) {
				cfg.Incremental = true
			})
			run(inc, -1)
			report := run(inc, tc.departed)
			kind := "full"
			if report.Incremental {
				kind = "incremental"
				if report.DirtyClients == 0 {
					kind = "clean"
				}
			}
			if kind != tc.kind {
				t.Fatalf("departure round committed %s (dirty %d), want %s", kind, report.DirtyClients, tc.kind)
			}
			gone := inc.clients[tc.departed].Addr()
			for _, rs := range inc.replicas {
				if kind == "clean" {
					break // nothing was installed this round
				}
				plan, ok := installedPlan(rs, report.Round)
				if !ok {
					t.Fatalf("replica %s holds no plan for round %d", rs.Addr(), report.Round)
				}
				for _, e := range plan {
					if e.Client == gone {
						t.Fatalf("replica %s still serves departed client %s %g MB", rs.Addr(), gone, e.MB)
					}
				}
			}
			fresh := run(newFleetCfg(t, tc.prices, len(tc.demands), LDDM, nil), tc.departed)
			if rel := math.Abs(report.Objective-fresh.Objective) / math.Abs(fresh.Objective); rel > 1e-3 {
				t.Fatalf("objective %g vs fresh full round %g (rel %g; incremental=%v dirty=%d)",
					report.Objective, fresh.Objective, rel, report.Incremental, report.DirtyClients)
			}
		})
	}
}

// A seeded chain of drifting rounds, with clients leaving and rejoining:
// what a round reads instead of re-deriving must equal what it would have
// derived. Every reported Objective is the problem's Cost of the reported
// Assignment bit for bit, and every KKT gap a commit carries forward is
// KKTGap of the committed assignment on the committed problem bit for bit.
func TestIncrementalChainReusesAudit(t *testing.T) {
	const nClients = 90
	f := newFleetCfg(t, []float64{1, 10, 5, 3}, nClients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
		cfg.CohortMinClients = 2
	})
	rs := f.replicas[0]
	ctx := context.Background()
	r := sim.NewRand(17)
	demands := make([]float64, nClients)
	for i := range demands {
		demands[i] = r.Range(0.2, 1.2)
	}
	carried, incremental := 0, 0
	for round := 0; round < 14; round++ {
		demands = workload.Drift{Fraction: 0.05, Magnitude: 0.2}.Apply(r, demands)
		away := -1
		if round%4 == 3 {
			away = r.Intn(nClients) // gone this round, back the next
		}
		for i, cl := range f.clients {
			if i == away {
				continue
			}
			if err := cl.Submit(ctx, rs.Addr(), demands[i], classLatencies(f, i)); err != nil {
				t.Fatal(err)
			}
		}
		report, err := rs.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		lg := rs.committed()
		if got, want := report.Objective, lg.prob.Cost(report.Assignment); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: Objective %v, Cost %v", report.Round, got, want)
		}
		if lg.gapKnown {
			carried++
			if want := opt.KKTGap(lg.prob, lg.assignment); math.Float64bits(lg.kktGap) != math.Float64bits(want) {
				t.Fatalf("round %d: carried gap %v, KKTGap %v", report.Round, lg.kktGap, want)
			}
		}
		if report.Incremental && report.DirtyClients > 0 {
			incremental++
		}
	}
	if carried == 0 || incremental == 0 {
		t.Fatalf("chain carried %d gaps over %d incremental rounds; the test needs both", carried, incremental)
	}
}

// BenchmarkQuietRound times RunRound alone on a 10 000-client fleet: ten
// regions, each reaching a rotating half of ten replicas, with 100
// clients' demands drifting ±20 % per op and every client resubmitting.
// The queue is refilled outside the timer, so ns/op and allocs/op are the
// round itself. Each case replaces a share of the clients per op with
// clients absent from the committed roster: at 0 % the round is the quiet
// one (drain, diff, dirty-subset solve, gate, delta install, suppressed
// notifies), and the churned cases measure a drain whose queue the roster
// describes only in part, or not at all.
func BenchmarkQuietRound(b *testing.B) {
	for _, joined := range []int{0, 5000, 10000} {
		b.Run(fmt.Sprintf("new=%d%%", joined/100), func(b *testing.B) { benchQuietRound(b, joined) })
	}
}

func benchQuietRound(b *testing.B, joined int) {
	const nClients, regions, drifted = 10000, 10, 100
	prices := []float64{3, 7, 12, 5, 9, 2, 14, 6, 11, 4}
	inproc := transport.NewInProcNetwork()
	f := newFleetOn(b, inproc, inproc, prices, nClients+joined, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
		cfg.CohortMinClients = 2
	})
	rs := f.replicas[0]
	r := sim.NewRand(1)
	requests := make([]*RequestBody, len(f.clients))
	for i, cl := range f.clients {
		lat := make([]Latency, len(f.replicas))
		for j, rep := range f.replicas {
			lat[j] = Latency{rep.Addr(), 0.0050} // beyond T
			if (j-i%regions+len(prices))%len(prices) < len(prices)/2 {
				lat[j].Sec = 0.0005
			}
		}
		requests[i] = &RequestBody{ClientAddr: cl.Addr(), DemandMB: r.Range(0.005, 0.05), LatencySec: lat}
	}
	// active lists the clients submitting this op, idle the rest.
	active, idle := r.Perm(len(requests))[:nClients], []int{}
	in := make([]bool, len(requests))
	for _, i := range active {
		in[i] = true
	}
	for i := range requests {
		if !in[i] {
			idle = append(idle, i)
		}
	}
	ctx := context.Background()
	refill := func() {
		rs.mu.Lock()
		for _, i := range active {
			rs.pending[requests[i].ClientAddr] = requests[i]
		}
		rs.mu.Unlock()
	}
	run := func() {
		if _, err := rs.RunRound(ctx); err != nil {
			b.Fatal(err)
		}
	}
	refill()
	run() // cold: the full solve the later rounds diff against
	refill()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < drifted; k++ {
			requests[active[r.Intn(nClients)]].DemandMB *= 1 + r.Range(-0.2, 0.2)
		}
		// joined clients leave, and as many idle ones take their place.
		leave := r.Perm(nClients)[:joined]
		for k, j := range r.Perm(len(idle))[:joined] {
			active[leave[k]], idle[j] = idle[j], active[leave[k]]
		}
		refill()
		b.StartTimer()
		run()
	}
}
