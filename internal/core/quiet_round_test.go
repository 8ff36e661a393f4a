package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"edr/internal/sim"
	"edr/internal/transport"
	"edr/internal/workload"
)

// FuzzDrainOrder checks every drain of a contact's client table against
// its definition — the queued requests, plus the last drain's rows of the
// clients that queued nothing and either were put back by a failed round
// or stand and have not lapsed, sorted by client address — over random
// tables: a roster built over the previous drains with rows standing fresh
// and lapsed, clients that joined since, clients the last drain lists that
// did not submit, repeat submissions, withdrawals and a failed round's
// put-back. The rows must ascend strictly; a put-back or standing row must
// be the last drain's row itself, and a queued request's row carry the
// queued demand over the list it was queued with; the counts of standing
// and lapsed rows must match, and the queue must be left empty.
func FuzzDrainOrder(f *testing.F) {
	f.Add(uint64(1), uint16(40), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(2), uint16(0), []byte{9, 9, 9, 200, 17, 3})
	f.Add(uint64(3), uint16(1000), []byte{255, 0, 128})
	f.Add(uint64(4), uint16(7), []byte{})
	f.Add(uint64(5), uint16(300), []byte{3, 7, 11, 2, 5, 8, 14})
	// Failed rounds back to back, then withdrawals of the roster.
	f.Add(uint64(6), uint16(20), []byte{2, 6, 10, 14, 3, 7, 11, 15, 19, 23})
	f.Fuzz(func(t *testing.T, seed uint64, rosterLen uint16, ops []byte) {
		const universe = 300
		r := sim.NewRand(seed)
		addr := func(k int) string { return fmt.Sprintf("client%03d", k) }
		lat := []Latency{{"replica1", 1e-4}}
		tab := &clientTable{byAddr: make(map[string]*clientRecord), byHandle: make(map[uint32]*clientRecord)}
		// The model: what each client queued since the last drain, its row
		// in the last drain, and the drain count at the last use of each
		// handle the table holds.
		type queuedModel struct {
			mb                    float64
			stands, carried, gone bool
		}
		type rowModel struct {
			row    *RequestBody
			stands bool
		}
		queue := map[string]*queuedModel{}
		last := map[string]rowModel{}
		held := map[string]int{}
		drains := 0
		submit := func(k int, stands bool) {
			a := addr(k)
			if _, err := tab.request(a, &RequestBody{ClientAddr: a, DemandMB: 1, LatencySec: lat}, 0); err != nil {
				t.Fatal(err)
			}
			tab.byAddr[a].rec.stands = stands // the verdict, drawn
			q := queue[a]
			if q == nil || q.carried || q.gone {
				q = &queuedModel{} // a request replaces a put-back row or a withdrawal
				queue[a] = q
			}
			q.mb++ // a repeat aggregates into the queued demand
			q.stands = stands
			held[a] = drains
		}
		withdraw := func(k int) {
			a := addr(k)
			if _, ok := held[a]; !ok {
				return
			}
			c := tab.byAddr[a]
			if c == nil || c.handle == 0 {
				t.Fatalf("the table holds no handle for %s", a)
			}
			tab.withdraw(c.handle, a)
			queue[a] = &queuedModel{gone: true}
			delete(held, a)
		}
		drain := func() {
			t.Helper()
			busy := len(queue) > 0
			for _, l := range last {
				busy = busy || l.stands
			}
			joining := tab.joining
			tab.joining = nil
			slices.SortFunc(joining, func(a, b *clientRecord) int { return strings.Compare(a.addr, b.addr) })
			got, gotLapsed := tab.drain(joining)
			if !busy {
				if got != nil {
					t.Fatalf("a drain with nothing queued and nothing standing drained %d rows", len(got))
				}
				return
			}
			drains++
			for a, used := range held {
				if drains-used > roundStatesKept {
					delete(held, a)
				}
			}
			want := make(map[string]rowModel, len(queue)+len(last))
			wantLapsed := 0
			for a, l := range last {
				if queue[a] != nil || !l.stands {
					continue
				}
				if _, ok := held[a]; !ok {
					wantLapsed++ // its handle retired with this drain
					continue
				}
				want[a] = l
			}
			for a, q := range queue {
				switch {
				case q.gone:
				case q.carried:
					want[a] = rowModel{last[a].row, false}
				default:
					want[a] = rowModel{&RequestBody{ClientAddr: a, DemandMB: q.mb, LatencySec: lat}, q.stands}
				}
			}
			order := make([]string, 0, len(want))
			for a := range want {
				order = append(order, a)
			}
			slices.Sort(order)
			if len(got) != len(order) {
				t.Fatalf("drained %d rows, want %d", len(got), len(order))
			}
			wantStanding := 0
			next := make(map[string]rowModel, len(want))
			for i, row := range got {
				w := want[order[i]]
				if row.ClientAddr != order[i] {
					t.Fatalf("row %d is %s, want %s", i, row.ClientAddr, order[i])
				}
				if q := queue[order[i]]; q != nil && !q.carried {
					if row.DemandMB != w.row.DemandMB || !slices.Equal(row.LatencySec, lat) {
						t.Fatalf("row %d is %+v, want %s's queued %g MB over the list it queued", i, *row, order[i], w.row.DemandMB)
					}
				} else if row != w.row {
					t.Fatalf("row %d is not %s's row of the last drain", i, order[i])
				}
				if i > 0 && got[i-1].ClientAddr >= row.ClientAddr {
					t.Fatalf("rows %d and %d do not ascend: %s, %s", i-1, i, got[i-1].ClientAddr, row.ClientAddr)
				}
				if w.stands {
					wantStanding++
				}
				next[order[i]] = rowModel{row, w.stands}
			}
			if tab.standing != wantStanding || gotLapsed != wantLapsed {
				t.Fatalf("drain counts %d standing and %d lapsed, want %d and %d", tab.standing, gotLapsed, wantStanding, wantLapsed)
			}
			for _, c := range tab.byAddr {
				if c.pends() || tab.touched != 0 {
					t.Fatalf("drain left %s queued, %d pending", c.addr, tab.touched)
				}
			}
			last, queue = next, map[string]*queuedModel{}
		}
		// The previous drains: a roster whose standing rows were admitted
		// over the last roundStatesKept+2 windows, so some lapse on the way,
		// and whose other rows were admitted in the last one.
		window := make(map[int]int)
		for k := 0; k < universe && len(window) < int(rosterLen); k++ {
			if r.Float64() < 0.6 {
				window[k] = roundStatesKept + 1
				if r.Float64() < 0.4 {
					window[k] = r.Intn(roundStatesKept + 2)
				}
			}
		}
		for w := 0; w <= roundStatesKept+1; w++ {
			for k := 0; k < universe; k++ {
				if kw, ok := window[k]; ok && kw == w {
					submit(k, kw < roundStatesKept+1)
				}
			}
			drain()
		}
		for _, k := range r.Perm(universe)[:r.Intn(universe)] {
			submit(k, r.Float64() < 0.3)
		}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				submit(int(op)*7%universe, r.Float64() < 0.3)
			case 2:
				// A failed round: drain, new submissions land meanwhile, and
				// the drained rows go back under the newer ones.
				drain()
				for k := 0; k < int(op)%5; k++ {
					submit(r.Intn(universe), r.Float64() < 0.3)
				}
				tab.requeue()
				for a, l := range last {
					if queue[a] == nil && !l.stands {
						queue[a] = &queuedModel{carried: true}
					}
				}
			case 3:
				withdraw(int(op) * 11 % universe)
			}
		}
		drain()
	})
}

// Submissions that land while a round drains and solves are scheduled
// exactly once: the drain takes every queued request under the lock and
// ingest queues into the emptied records, so none is lost to the drain or
// drained twice. Each client alternates two demands, so none ever stands
// and every submission is a request of its own. Run it under -race.
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
				if err := cl.Submit(ctx, rs.Addr(), demand*float64(1+k%2), f.uniformLatencies()); err != nil {
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
	if want := float64(nClients*perClient/2) * 3 * demand; math.Abs(scheduled-want) > 1e-6*want {
		t.Fatalf("%d rounds scheduled %g MB of the %g MB submitted", rounds, scheduled, want)
	}
}

// installedPlan returns the serving plan rs installed for round, and
// whether it holds one.
func installedPlan(rs *ReplicaServer, round int) ([]clientMB, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, ok := rs.rounds[round]
	if !ok || st.plan == nil {
		return nil, false
	}
	return st.plan.entries(), true
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
// Assignment bit for bit; every incremental or clean commit carries an
// audit state forward, whose KKT gap is the full audit's gap of the committed assignment
// on the committed problem and whose audit of that assignment is the full
// audit, bit for bit.
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
		if report.Incremental && lg.audit == nil {
			t.Fatalf("round %d: an incremental commit carried no audit state", report.Round)
		}
		if lg.audit != nil {
			carried++
			want := lg.prob.Audit(lg.assignment)
			if math.Float64bits(lg.kktGap) != math.Float64bits(want.KKTGap) {
				t.Fatalf("round %d: carried gap %v, audited gap %v", report.Round, lg.kktGap, want.KKTGap)
			}
			got, _ := lg.prob.AuditFrom(lg.assignment, lg.audit, nil, nil)
			if math.Float64bits(got.Violation) != math.Float64bits(want.Violation) || math.Float64bits(got.KKTGap) != math.Float64bits(want.KKTGap) {
				t.Fatalf("round %d: carried audit (violation %v, gap %v), full audit (%v, %v)",
					report.Round, got.Violation, got.KKTGap, want.Violation, want.KKTGap)
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
// round itself. Each new= case replaces a share of the clients per op with
// clients absent from the committed roster: at 0 % the round is the quiet
// one (drain, diff, dirty-subset solve, gate, delta install, suppressed
// notifies), and the churned cases measure a drain whose queue the roster
// describes only in part, or not at all. The clients= cases are the quiet
// round at a quarter and at twice the fleet, still with 100 drifting
// clients: how a quiet round's cost grows with the clients that did not
// move.
func BenchmarkQuietRound(b *testing.B) {
	for _, joined := range []int{0, 5000, 10000} {
		b.Run(fmt.Sprintf("new=%d%%", joined/100), func(b *testing.B) { benchQuietRound(b, 10000, joined) })
	}
	for _, clients := range []int{2500, 20000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) { benchQuietRound(b, clients, 0) })
	}
}

func benchQuietRound(b *testing.B, nClients, joined int) {
	const regions, drifted = 10, 100
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
	// refill queues each active client's row as it is: a client's first
	// request makes its record.
	refill := func() {
		rs.mu.Lock()
		defer rs.mu.Unlock()
		for _, i := range active {
			if c := rs.clients.byAddr[requests[i].ClientAddr]; c != nil {
				rs.clients.enqueue(c)
				c.queued = requests[i]
			} else if _, err := rs.clients.request(requests[i].ClientAddr, requests[i], rs.roundSeq); err != nil {
				b.Fatal(err)
			}
		}
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

// quietChainClients is the quiet chain's client count; the last client
// joins only in the departure round.
const quietChainClients = 30

// quietChain drives the steady-state chain the incremental round must keep
// bit for bit, calling check after each round with what it reported: a
// cold full round; dirty drift (shrinking the client about to leave and
// the one about to join); a departure with a newcomer, beside drift within
// DeltaEps; drift within DeltaEps beside one dirty client (rescaled clean
// rows on an incremental plan); drift within DeltaEps alone (a clean
// commit of rescaled rows); dirty drift against that clean commit's older
// install; a fully quiet round (a clean commit of the committed rows
// themselves); and the departed client's return. Each round's kind is
// checked, so the chain covers what it claims.
func quietChain(t *testing.T, f *fleet, check func(report *RoundReport)) {
	t.Helper()
	rs := f.replicas[0]
	ctx := context.Background()
	r := sim.NewRand(5)
	demands := make([]float64, quietChainClients)
	for i := range demands {
		demands[i] = r.Range(0.5, 3)
	}
	newcomer := quietChainClients - 1
	for _, step := range []struct {
		scale map[int]float64
		away  []int
		kind  string
	}{
		{away: []int{newcomer}, kind: "full"},
		{scale: map[int]float64{3: 1.15, 6: 0.1, 11: 1.15, 20: 0.85, newcomer: 0.1}, away: []int{newcomer}, kind: "incremental"},
		{scale: map[int]float64{12: 1 + 1e-4}, away: []int{6}, kind: "incremental"},
		{scale: map[int]float64{5: 1 + 4e-4, 17: 1 + 4e-4, 8: 0.9}, away: []int{6}, kind: "incremental"},
		{scale: map[int]float64{2: 1 - 3e-4, 9: 1 - 3e-4}, away: []int{6}, kind: "clean"},
		{scale: map[int]float64{14: 1.2, 22: 1 + 2e-4}, away: []int{6}, kind: "incremental"},
		{away: []int{6}, kind: "clean"},
		{kind: "incremental"},
	} {
		for i, s := range step.scale {
			demands[i] *= s
		}
		for i, cl := range f.clients {
			if slices.Contains(step.away, i) {
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
		kind := "full"
		if report.Incremental {
			kind = "incremental"
			if report.DirtyClients == 0 {
				kind = "clean"
			}
		}
		if kind != step.kind {
			t.Fatalf("round %d committed %s (dirty %d), want %s", report.Round, kind, report.DirtyClients, step.kind)
		}
		check(report)
	}
}

// quietChainFleet is the quiet chain's fleet on network: four replicas,
// incremental re-optimization armed and cohorting from two clients on.
func quietChainFleet(t *testing.T, network transport.Network, inproc *transport.InProcNetwork, tweak func(*ReplicaConfig)) *fleet {
	t.Helper()
	return newFleetOn(t, network, inproc, []float64{1, 10, 5, 3}, quietChainClients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
		cfg.CohortMinClients = 2
		if tweak != nil {
			tweak(cfg)
		}
	})
}

// TestQuietRoundGolden pins every observable of the quiet chain to one
// digest per round: the reported Assignment and Objective bits, the
// suppressed-notify count, every replica's installed MB for every client
// under the round, and the bytes of every allocation push, in recipient
// order (a client's own pushes keep their arrival order). Any slip in
// plan, gate, install or notify that moves one bit or one message moves
// a digest.
func TestQuietRoundGolden(t *testing.T) {
	golden := []string{
		"089d928593263f99b1af4b10221b1bf0731c79c6c3d1c93c0ce2f252d6f7384a",
		"201fe8b9aaca72d68922b40fae21b8ea1ce1812a1448e405478581da05b18ea5",
		"ff11e4ba788b68293b5c3b4d745b7e07e4fae2ed9b63f233f101077d0904a2a7",
		"2fe25f3ecbbeac790a40f9c3c2cbc8ee3944d27559db5044b56d266209690117",
		"59ec256f60346e55e0aab1dadf2c0475318613291fd9baa04021de603be503b6",
		"b19581f09a63e8a92f3c80211a2c60932ba2bed3b248ba0c202da05f6c327318",
		"b4d5df2a479f28a3a2f338395d843c50003d117bacaac37d5e22424e0b24c04f",
		"6abd7c62f1766a4057e59a2e61d89fe31827721f2f744c5d30c8e1816907502d",
	}
	net := &tapNet{InProcNetwork: transport.NewInProcNetwork()}
	f := quietChainFleet(t, net, net.InProcNetwork, nil)
	var got []string
	quietChain(t, f, func(report *RoundReport) {
		h := sha256.New()
		put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for _, row := range report.Assignment {
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
		put(math.Float64bits(report.Objective))
		put(uint64(report.SuppressedNotifies))
		for _, rs := range f.replicas {
			for _, cl := range f.clients {
				put(math.Float64bits(rs.Plan(report.Round, cl.Addr())))
			}
		}
		var pushes []tapped
		for _, m := range net.take() {
			if m.verb == MsgAllocation || m.verb == MsgCohortAllocation {
				pushes = append(pushes, m)
			}
		}
		sort.SliceStable(pushes, func(a, b int) bool { return pushes[a].to < pushes[b].to })
		for _, m := range pushes {
			fmt.Fprintf(h, "%s %s %d:", m.to, m.verb, len(m.body))
			h.Write(m.body)
		}
		got = append(got, hex.EncodeToString(h.Sum(nil)))
	})
	if !slices.Equal(got, golden) {
		t.Fatalf("quiet chain digests moved:\n got %q\nwant %q", got, golden)
	}
}

// installedChunks deep-copies the chunks of the serving plan rs installed
// for round (nil when it holds none).
func installedChunks(rs *ReplicaServer, round int) []transport.Pairs {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, ok := rs.rounds[round]
	if !ok || st.plan == nil {
		return nil
	}
	out := []transport.Pairs{}
	for _, chunk := range st.plan.chunks {
		out = append(out, slices.Clone(chunk))
	}
	return out
}

// A committed assignment's rows are never written after commit, though
// consecutive rounds share the rows a quiet round did not change: after
// the quiet chain and a degraded round, every report's Assignment and
// every plan a replica installed — chunk by chunk, deep-copied as its
// round returned — must read exactly as it did when its round returned.
func TestCommittedRowsNeverChange(t *testing.T) {
	inproc := transport.NewInProcNetwork()
	net := transport.NewFaultyNetwork(inproc, 1)
	f := quietChainFleet(t, net, inproc, func(cfg *ReplicaConfig) {
		cfg.RoundRetries = -1 // a failed round degrades at once
		cfg.SendRetries = -1
	})
	type snapshot struct {
		report     *RoundReport
		assignment [][]float64
		plans      [][]transport.Pairs // per replica, its chunks; nil where none is held
	}
	var kept []snapshot
	shared := 0
	record := func(report *RoundReport) {
		s := snapshot{report: report, assignment: make([][]float64, len(report.Assignment))}
		for i, row := range report.Assignment {
			s.assignment[i] = slices.Clone(row)
		}
		for _, rs := range f.replicas {
			s.plans = append(s.plans, installedChunks(rs, report.Round))
		}
		if len(kept) > 0 {
			last := kept[len(kept)-1].report.Assignment
			for _, row := range report.Assignment {
				for _, old := range last {
					if len(row) > 0 && &row[0] == &old[0] {
						shared++
					}
				}
			}
		}
		kept = append(kept, s)
	}
	quietChain(t, f, record)
	if shared == 0 {
		t.Fatal("no round shared a row with the round before it")
	}

	rs := f.replicas[0]
	net.Crash(f.replicas[len(f.replicas)-1].Addr())
	ctx := context.Background()
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, rs.Addr(), 1, classLatencies(f, i)); err != nil {
			t.Fatal(err)
		}
	}
	report, err := rs.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded {
		t.Fatal("a round with a crashed replica and no restarts did not degrade")
	}
	record(report)

	for _, s := range kept {
		for i, row := range s.report.Assignment {
			if !slices.EqualFunc(row, s.assignment[i], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("round %d: row %d reads %v, reported %v", s.report.Round, i, row, s.assignment[i])
			}
		}
		for j, r := range f.replicas {
			plan := installedChunks(r, s.report.Round)
			if plan == nil {
				continue // evicted, or never installed
			}
			if !slices.EqualFunc(plan, s.plans[j], func(a, b transport.Pairs) bool {
				return slices.EqualFunc(listOf(a), listOf(b), func(a, b clientMB) bool {
					return a.Client == b.Client && math.Float64bits(a.MB) == math.Float64bits(b.MB)
				})
			}) {
				t.Fatalf("round %d: replica %s's plan reads %v, installed %v", s.report.Round, r.Addr(), plan, s.plans[j])
			}
		}
	}
}

// A round shares a committed mask row only with a request that carries the
// very latency list the row was built from. After a quiet round the
// committed problem's mask rows, sparsity view and addresses are the very
// objects of the round before. A client that re-sends its full form with a
// latency now beyond T toward a replica serving it gets a fresh row, is
// dirty, and is assigned nothing on that replica. A client that departs and
// returns gets a fresh row too, though its list reads the same.
func TestSharedMaskRowsNeverStale(t *testing.T) {
	const nClients = 12
	f := newFleetCfg(t, []float64{1, 10, 5, 3}, nClients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
		cfg.CohortMinClients = 2
	})
	rs := f.replicas[0]
	ctx := context.Background()
	lats := make([]map[string]float64, nClients)
	for i := range lats {
		lats[i] = classLatencies(f, i)
	}
	demands := make([]float64, nClients)
	for i := range demands {
		demands[i] = 1 + float64(i%5)/2
	}
	round := func(away int) (*RoundReport, *lastGoodRound) {
		t.Helper()
		for i, cl := range f.clients {
			if i == away {
				// It stands by now, so it departs by withdrawing.
				if err := cl.Withdraw(ctx); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := cl.Submit(ctx, rs.Addr(), demands[i], lats[i]); err != nil {
				t.Fatal(err)
			}
		}
		report, err := rs.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return report, rs.committed()
	}
	// rowOf is client i's committed mask row, nil when lg lacks it.
	rowOf := func(lg *lastGoodRound, i int) []bool {
		k, ok := slices.BinarySearch(lg.clientAddrs, f.clients[i].Addr())
		if !ok {
			return nil
		}
		return lg.prob.Allowed()[k]
	}
	same := func(a, b []bool) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	_, first := round(-1)
	quiet, lg := round(-1)
	if !quiet.Incremental || quiet.DirtyClients != 0 {
		t.Fatalf("repeat round: incremental %v, dirty %d; want a clean commit", quiet.Incremental, quiet.DirtyClients)
	}
	if lg.prob.Sparsity() != first.prob.Sparsity() || &lg.clientAddrs[0] != &first.clientAddrs[0] {
		t.Fatal("the quiet round rebuilt the committed sparsity view or addresses")
	}
	for i := range f.clients {
		if !same(rowOf(lg, i), rowOf(first, i)) {
			t.Fatalf("the quiet round rebuilt client %d's mask row", i)
		}
	}

	// Client k re-sends in full: the replica serving it most is now beyond T.
	k, j := -1, -1
	for i, row := range lg.assignment {
		if feasible := slices.Index(lg.prob.Allowed()[i], false); feasible >= 0 {
			continue // keep k on three replicas at least
		}
		for col, v := range row {
			if k < 0 || v > lg.assignment[k][j] {
				k, j = i, col
			}
		}
	}
	if k < 0 || !(lg.assignment[k][j] > 0) {
		t.Fatal("no client reaching every replica is served")
	}
	moved := maps.Clone(lats[k])
	moved[f.replicas[j].Addr()] = 0.0050 // beyond T = 1.8 ms
	lats[k] = moved
	before := lg
	report, lg := round(-1)
	if !report.Incremental || report.DirtyClients == 0 {
		t.Fatalf("round with a changed mask row: incremental %v, dirty %d; want dirty rows", report.Incremental, report.DirtyClients)
	}
	if row := rowOf(lg, k); same(row, rowOf(before, k)) || row[j] {
		t.Fatalf("client %d's mask row after its full form: %v, shared %v", k, row, same(row, rowOf(before, k)))
	}
	if v := report.Assignment[k][j]; v != 0 {
		t.Fatalf("client %d assigned %g MB on replica %d, now beyond T", k, v, j)
	}
	if v := f.replicas[j].Plan(report.Round, f.clients[k].Addr()); v != 0 {
		t.Fatalf("replica %d installed %g MB for client %d, now beyond T", j, v, k)
	}
	for i := range f.clients {
		if i != k && !same(rowOf(lg, i), rowOf(before, i)) {
			t.Fatalf("client %d's unchanged mask row was rebuilt", i)
		}
	}

	// Client m departs for a round and returns with the same list.
	m := (k + 1) % nClients
	before = lg
	_, lg = round(m)
	if rowOf(lg, m) != nil {
		t.Fatalf("departed client %d holds a committed row", m)
	}
	_, lg = round(-1)
	if row := rowOf(lg, m); row == nil || same(row, rowOf(before, m)) || !slices.Equal(row, rowOf(before, m)) {
		t.Fatalf("returning client %d's mask row %v: shared with its old row %v", m, row, rowOf(before, m))
	}
}
