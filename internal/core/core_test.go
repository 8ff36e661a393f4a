package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

// fleet is a test deployment: replicas + clients on one fabric.
type fleet struct {
	net      *transport.InProcNetwork
	replicas []*ReplicaServer
	clients  []*Client
}

// newFleet builds nReplicas with the given prices and nClients on an
// in-process fabric. Replica i is named "replica<i+1>", client i
// "client<i+1>".
func newFleet(t *testing.T, prices []float64, nClients int, alg Algorithm) *fleet {
	t.Helper()
	return newFleetCfg(t, prices, nClients, alg, nil)
}

// newFleetCfg builds a fleet like newFleet, calling mutate (when non-nil)
// on replica i's config before the replica starts: tests that need
// incremental rounds, cohorting or other non-default settings use it.
func newFleetCfg(t *testing.T, prices []float64, nClients int, alg Algorithm, mutate func(i int, cfg *ReplicaConfig)) *fleet {
	t.Helper()
	inproc := transport.NewInProcNetwork()
	return newFleetOn(t, inproc, inproc, prices, nClients, alg, mutate)
}

// newFleetOn builds a fleet like newFleetCfg on network, a fabric that
// delivers through inproc (inproc itself, or a wrapper around it).
func newFleetOn(t testing.TB, network transport.Network, inproc *transport.InProcNetwork, prices []float64, nClients int, alg Algorithm, mutate func(i int, cfg *ReplicaConfig)) *fleet {
	t.Helper()
	f := &fleet{net: inproc}
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = replicaName(i)
	}
	for i, price := range prices {
		cfg := ReplicaConfig{
			Replica:   model.NewReplica(replicaName(i), price),
			Algorithm: alg,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		rs, err := NewReplicaServer(network, replicaName(i), names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		f.replicas = append(f.replicas, rs)
	}
	for i := 0; i < nClients; i++ {
		cl, err := NewClient(network, clientName(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

func replicaName(i int) string { return "replica" + string(rune('1'+i)) }
func clientName(i int) string  { return "client" + string(rune('1'+i)) }

// uniformLatencies gives every replica a feasible 0.5 ms latency.
func (f *fleet) uniformLatencies() map[string]float64 {
	m := make(map[string]float64, len(f.replicas))
	for _, r := range f.replicas {
		m[r.Addr()] = 0.0005
	}
	return m
}

// latencyList is uniformLatencies as a request body carries it: ascending
// by replica address.
func (f *fleet) latencyList() []Latency {
	out := make([]Latency, len(f.replicas))
	for j, r := range f.replicas {
		out[j] = Latency{r.Addr(), 0.0005}
	}
	return out
}

func TestAlgorithmString(t *testing.T) {
	if LDDM.String() != "LDDM" || CDPSM.String() != "CDPSM" || ADMM.String() != "ADMM" {
		t.Fatalf("names: %v %v %v", LDDM, CDPSM, ADMM)
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Fatal("unregistered algorithm accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{"LDDM": LDDM, "lddm": LDDM, "CDPSM": CDPSM, "cdpsm": CDPSM, "ADMM": ADMM, "admm": ADMM} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestRoundLDDMEndToEnd(t *testing.T) {
	f := newFleet(t, []float64{1, 10, 5}, 3, LDDM)
	ctx := context.Background()
	demands := []float64{30, 20, 25}
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.replicas[0].PendingRequests(); got != 3 {
		t.Fatalf("pending = %d", got)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Algorithm != "LDDM" {
		t.Fatalf("algorithm = %q", report.Algorithm)
	}
	if f.replicas[0].PendingRequests() != 0 {
		t.Fatal("pending not drained")
	}
	// The assignment satisfies demands and prefers the cheap replica.
	rows := opt.RowSums(report.Assignment)
	for i := range rows {
		// Row order follows the report's ClientAddrs, not submit order.
		var want float64
		for j, addr := range report.ClientAddrs {
			if addr == f.clients[i].Addr() {
				want = demands[i]
				_ = j
			}
		}
		_ = want
	}
	total := 0.0
	for _, r := range rows {
		total += r
	}
	if math.Abs(total-75) > 0.1 {
		t.Fatalf("total served = %g, want 75", total)
	}
	loads := opt.ColSums(report.Assignment)
	cheapCol := -1
	for j, addr := range report.ReplicaAddrs {
		if addr == f.replicas[0].Addr() {
			cheapCol = j
		}
	}
	for j := range loads {
		if j != cheapCol && loads[cheapCol] < loads[j] {
			t.Fatalf("cheap replica load %g below replica %d load %g", loads[cheapCol], j, loads[j])
		}
	}
	// Clients received allocations; downloads work.
	for _, cl := range f.clients {
		wctx, cancel := context.WithTimeout(ctx, time.Second)
		alloc, err := cl.WaitAllocation(wctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Algorithm != "LDDM" || alloc.Iterations <= 0 {
			t.Fatalf("alloc meta = %+v", alloc)
		}
		n, err := cl.Download(ctx, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatal("downloaded zero bytes")
		}
	}
}

func TestRoundCDPSMEndToEnd(t *testing.T) {
	f := newFleet(t, []float64{1, 8, 3}, 2, CDPSM)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[1].Addr(), 20, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[1].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Algorithm != "CDPSM" {
		t.Fatalf("algorithm = %q", report.Algorithm)
	}
	rows := opt.RowSums(report.Assignment)
	for i, r := range rows {
		if math.Abs(r-20) > 0.1 {
			t.Fatalf("client %d served %g, want 20", i, r)
		}
	}
	// Replica-to-replica estimate traffic happened.
	totalCoord := int64(0)
	for _, rs := range f.replicas {
		totalCoord += rs.Stats.CoordMessages.Value()
	}
	if totalCoord == 0 {
		t.Fatal("no replica coordination messages in CDPSM round")
	}
}

func TestRoundNoPending(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	if _, err := f.replicas[0].RunRound(context.Background()); err == nil {
		t.Fatal("round with no pending requests succeeded")
	}
}

func TestSubmitValidation(t *testing.T) {
	f := newFleet(t, []float64{1}, 1, LDDM)
	ctx := context.Background()
	err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), -5, f.uniformLatencies())
	if err == nil {
		t.Fatal("negative demand accepted")
	}
}

func TestRepeatSubmissionsAggregate(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 10, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.replicas[0].PendingRequests(); got != 1 {
		t.Fatalf("pending = %d, want 1 aggregated entry", got)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := opt.RowSums(report.Assignment)
	if math.Abs(rows[0]-30) > 0.1 {
		t.Fatalf("aggregated demand served %g, want 30", rows[0])
	}
}

// Repeat submissions whose replica sets differ — the same size with other
// replicas, then the same set again — queue one request whose latencies
// ascend by replica and hold each replica's newest figure.
func TestRepeatSubmissionsMergeLatencies(t *testing.T) {
	f := newFleet(t, []float64{1, 2, 3}, 1, LDDM)
	ctx := context.Background()
	r1, r2, r3 := f.replicas[0].Addr(), f.replicas[1].Addr(), f.replicas[2].Addr()
	for _, lat := range []map[string]float64{
		{r2: 1e-4, r1: 2e-4},
		{r3: 3e-4, r2: 4e-4},
		{r2: 5e-4, r3: 6e-4},
	} {
		if err := f.clients[0].Submit(ctx, r1, 10, lat); err != nil {
			t.Fatal(err)
		}
	}
	got := queuedRequest(f.replicas[0], f.clients[0].Addr())
	want := []Latency{{r1, 2e-4}, {r2, 5e-4}, {r3, 6e-4}}
	if got.DemandMB != 30 || !reflect.DeepEqual(got.LatencySec, want) {
		t.Fatalf("queued %g MB with latencies %v, want 30 MB with %v", got.DemandMB, got.LatencySec, want)
	}
}

// A repeat submission whose queued sum would overflow to +Inf is refused,
// naming the client, and the queued row stays as it was: the other
// clients' next round commits instead of failing on an infinite demand.
// The fleet is provisioned to serve any single finite demand (linear
// network energy, 1e308 MB/s a replica), so only the sum could fail it;
// a finite demand above capacity is admission's business, not this check's.
func TestRepeatSubmissionOverflowRefused(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 1, 1}, 6, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Replica.Bandwidth = 1e308
		cfg.Replica.Gamma = 1
	})
	ctx := context.Background()
	initiator := f.replicas[0]
	const huge = 9e307 // finite; twice it is not
	for i, cl := range f.clients {
		demand := 10.0
		if i == 0 {
			demand = huge
		}
		if err := cl.Submit(ctx, initiator.Addr(), demand, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	err := f.clients[0].Submit(ctx, initiator.Addr(), huge, f.uniformLatencies())
	if err == nil || !strings.Contains(err.Error(), f.clients[0].Addr()) {
		t.Fatalf("overflowing repeat: err = %v, want a refusal naming %s", err, f.clients[0].Addr())
	}
	if queued := queuedRequest(initiator, f.clients[0].Addr()).DemandMB; queued != huge {
		t.Fatalf("refused repeat left %g MB queued, want %g", queued, huge)
	}
	report, err := initiator.RunRound(ctx)
	if err != nil {
		t.Fatalf("round after a refused repeat failed: %v", err)
	}
	rows := opt.RowSums(report.Assignment)
	if len(rows) != len(f.clients) {
		t.Fatalf("round scheduled %d clients, want %d", len(rows), len(f.clients))
	}
	for i, got := range rows[1:] {
		if math.Abs(got-10) > 1e-6 {
			t.Fatalf("client %d served %g MB, want 10", i+1, got)
		}
	}
}

func TestRoundInfeasibleDemand(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	ctx := context.Background()
	// 500 MB demand over 200 MB/s total capacity.
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 500, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.replicas[0].RunRound(ctx); err == nil {
		t.Fatal("infeasible round succeeded")
	}
}

func TestRoundLatencyMaskFromClientView(t *testing.T) {
	f := newFleet(t, []float64{20, 1}, 1, LDDM)
	ctx := context.Background()
	// The client can only reach the expensive replica: despite prices the
	// whole demand must land there.
	lat := map[string]float64{f.replicas[0].Addr(): 0.0005}
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 30, lat); err != nil {
		t.Fatal(err)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for j, addr := range report.ReplicaAddrs {
		load := 0.0
		for i := range report.ClientAddrs {
			load += report.Assignment[i][j]
		}
		if addr == f.replicas[0].Addr() && math.Abs(load-30) > 0.1 {
			t.Fatalf("reachable replica served %g, want 30", load)
		}
		if addr == f.replicas[1].Addr() && load > 0.1 {
			t.Fatalf("unreachable replica served %g", load)
		}
	}
}

func TestRoundSurvivesReplicaFailure(t *testing.T) {
	f := newFleet(t, []float64{1, 2, 3}, 1, LDDM)
	ctx := context.Background()
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 30, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	// Kill replica3 before the round: the initiator discovers the death
	// during coordination, prunes it, and reschedules on the survivors.
	f.net.Crash(f.replicas[2].Addr())
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts == 0 {
		t.Fatal("round reported no restarts after member failure")
	}
	if len(report.ReplicaAddrs) != 2 {
		t.Fatalf("round used %d replicas, want 2 survivors", len(report.ReplicaAddrs))
	}
	if f.replicas[0].Ring().Contains(f.replicas[2].Addr()) {
		t.Fatal("dead replica still in initiator's ring")
	}
	// The other survivor was notified too.
	if f.replicas[1].Ring().Contains(f.replicas[2].Addr()) {
		t.Fatal("dead replica still in survivor's ring")
	}
	rows := opt.RowSums(report.Assignment)
	if math.Abs(rows[0]-30) > 0.1 {
		t.Fatalf("post-failure round served %g, want 30", rows[0])
	}
}

func TestRoundAllReplicasFailListedError(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	ctx := context.Background()
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 300, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	// Crash the only peer: demand 300 no longer fits in the survivor's
	// 100 MB/s, so the retry must surface an infeasibility error.
	f.net.Crash(f.replicas[1].Addr())
	if _, err := f.replicas[0].RunRound(ctx); err == nil {
		t.Fatal("round succeeded with insufficient surviving capacity")
	}
}

func TestPlanInstalledOnReplicas(t *testing.T) {
	f := newFleet(t, []float64{1, 9}, 1, LDDM)
	ctx := context.Background()
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 40, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, rs := range f.replicas {
		total += rs.Plan(report.Round, f.clients[0].Addr())
	}
	if math.Abs(total-40) > 0.1 {
		t.Fatalf("installed plans total %g, want 40", total)
	}
}

func TestRoundOverTCP(t *testing.T) {
	net := transport.NewTCPNetwork()
	// Bootstrap: bind replicas first to learn their addresses.
	var replicas []*ReplicaServer
	var addrs []string
	for i, price := range []float64{1, 6} {
		cfg := ReplicaConfig{Replica: model.NewReplica("r", price), Algorithm: LDDM, MaxIters: 120}
		rs, err := NewReplicaServer(net, "127.0.0.1:0", nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		replicas = append(replicas, rs)
		addrs = append(addrs, rs.Addr())
		_ = i
	}
	// Join the rings.
	for _, rs := range replicas {
		for _, addr := range addrs {
			rs.Ring().Add(addr)
		}
	}
	client, err := NewClient(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lat := map[string]float64{addrs[0]: 0.0005, addrs[1]: 0.0005}
	if err := client.Submit(ctx, addrs[0], 25, lat); err != nil {
		t.Fatal(err)
	}
	report, err := replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := opt.RowSums(report.Assignment)
	if math.Abs(rows[0]-25) > 0.1 {
		t.Fatalf("TCP round served %g, want 25", rows[0])
	}
	alloc, err := client.WaitAllocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := client.Download(ctx, alloc); err != nil || n <= 0 {
		t.Fatalf("download: n=%d err=%v", n, err)
	}
}

func TestCDPSMRoundOverTCP(t *testing.T) {
	net := transport.NewTCPNetwork()
	var replicas []*ReplicaServer
	var addrs []string
	for _, price := range []float64{2, 7, 4} {
		cfg := ReplicaConfig{Replica: model.NewReplica("r", price), Algorithm: CDPSM, MaxIters: 60}
		rs, err := NewReplicaServer(net, "127.0.0.1:0", nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		replicas = append(replicas, rs)
		addrs = append(addrs, rs.Addr())
	}
	for _, rs := range replicas {
		for _, addr := range addrs {
			rs.Ring().Add(addr)
		}
	}
	client, err := NewClient(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	lat := make(map[string]float64, 3)
	for _, a := range addrs {
		lat[a] = 0.0005
	}
	if err := client.Submit(ctx, addrs[2], 30, lat); err != nil {
		t.Fatal(err)
	}
	report, err := replicas[2].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := opt.RowSums(report.Assignment)
	if math.Abs(rows[0]-30) > 0.2 {
		t.Fatalf("TCP CDPSM round served %g, want 30", rows[0])
	}
}

func TestServeRoundsTimerLoop(t *testing.T) {
	f := newFleet(t, []float64{1, 4}, 1, LDDM)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports := make(chan *RoundReport, 4)
	go f.replicas[0].ServeRounds(ctx, 20*time.Millisecond,
		func(rep *RoundReport) { reports <- rep },
		func(err error) { t.Errorf("round error: %v", err) },
	)
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 12, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-reports:
		if rep.Algorithm != "LDDM" {
			t.Fatalf("algorithm = %q", rep.Algorithm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeRounds never ran a round")
	}
	// Idle ticks must not produce rounds or errors.
	select {
	case rep := <-reports:
		t.Fatalf("unexpected extra round %d", rep.Round)
	case <-time.After(100 * time.Millisecond):
	}
	// A second submission triggers a second round.
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 8, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-reports:
		if rep.Round != 2 {
			t.Fatalf("second round id = %d", rep.Round)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second round never ran")
	}
}
