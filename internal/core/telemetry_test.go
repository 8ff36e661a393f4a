package core

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"edr/internal/model"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// busRecorder collects events with a lock (handlers run on publisher
// goroutines).
type busRecorder struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (r *busRecorder) handle(e telemetry.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *busRecorder) snapshot() []telemetry.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]telemetry.Event(nil), r.events...)
}

// newTelemetryFleet is newFleet with a telemetry bus on every replica.
func newTelemetryFleet(t *testing.T, prices []float64, nClients int, alg Algorithm, bus *telemetry.Bus) *fleet {
	t.Helper()
	f := &fleet{net: transport.NewInProcNetwork()}
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = replicaName(i)
	}
	for i, price := range prices {
		cfg := ReplicaConfig{
			Replica:   model.NewReplica(replicaName(i), price),
			Algorithm: alg,
			Telemetry: bus,
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

func TestRoundPublishesCompletedEventWithTrajectory(t *testing.T) {
	bus := telemetry.NewBus()
	rec := &busRecorder{}
	defer bus.Subscribe(rec.handle)()
	f := newTelemetryFleet(t, []float64{1, 6}, 2, LDDM, bus)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), 20, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var completed *telemetry.RoundCompleted
	for _, e := range rec.snapshot() {
		if ev, ok := e.(telemetry.RoundCompleted); ok {
			completed = &ev
		}
	}
	if completed == nil {
		t.Fatal("no RoundCompleted event published")
	}
	if completed.Round != report.Round || completed.Algorithm != "LDDM" {
		t.Fatalf("event = %+v, report = %+v", completed, report)
	}
	if completed.Clients != 2 || completed.Replicas != 2 {
		t.Fatalf("participants = %d/%d, want 2/2", completed.Clients, completed.Replicas)
	}
	if completed.Duration <= 0 {
		t.Fatal("round duration not stamped")
	}
	// With an active bus the LDDM driver records per-iteration
	// trajectories, one entry per iteration.
	if len(completed.Residuals) != report.Iterations {
		t.Fatalf("residual trajectory has %d entries for %d iterations",
			len(completed.Residuals), report.Iterations)
	}
	if len(completed.Costs) != report.Iterations {
		t.Fatalf("cost trajectory has %d entries for %d iterations",
			len(completed.Costs), report.Iterations)
	}

	// The same report is retained for the admin plane.
	st := f.replicas[0].Status()
	if st.LastRound == nil || st.LastRound.Round != report.Round {
		t.Fatalf("Status.LastRound = %+v, want round %d", st.LastRound, report.Round)
	}
	if st.Degraded {
		t.Fatal("healthy round flagged degraded in status")
	}
	if len(st.Ring) != 2 || st.RoundsInitiated != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestUnobservedRoundRecordsNoTrajectory(t *testing.T) {
	// Without a bus (or with a bus nobody subscribed to) the round must
	// not spend time on trajectories — the zero-overhead contract.
	f := newFleet(t, []float64{1, 6}, 1, LDDM)
	ctx := context.Background()
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 20, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Residuals) != 0 || len(report.Costs) != 0 {
		t.Fatalf("unobserved round recorded trajectories: %d/%d entries",
			len(report.Residuals), len(report.Costs))
	}
}

func TestDegradedRoundPublishesDegradedEvents(t *testing.T) {
	bus := telemetry.NewBus()
	rec := &busRecorder{}
	defer bus.Subscribe(rec.handle)()
	net := transport.NewInProcNetwork()
	names := []string{"ra", "rb"}
	mk := func(name string, price float64) *ReplicaServer {
		rs, err := NewReplicaServer(net, name, names, ReplicaConfig{
			Replica:      model.NewReplica(name, price),
			Algorithm:    LDDM,
			Telemetry:    bus,
			SendRetries:  -1,
			RoundRetries: -1,
			RPCTimeout:   200 * time.Millisecond, // fail fast on the crashed peer
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		return rs
	}
	ra, _ := mk("ra", 1), mk("rb", 6)
	cl, err := NewClient(net, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	lat := map[string]float64{"ra": 0.0005, "rb": 0.0005}

	// Round 1 succeeds and becomes the last-known-good assignment.
	if err := cl.Submit(ctx, "ra", 10, lat); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	// Round 2: rb is gone and no retries are allowed → degraded fallback.
	net.Crash("rb")
	if err := cl.Submit(ctx, "ra", 10, lat); err != nil {
		t.Fatal(err)
	}
	report, err := ra.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded {
		t.Fatal("round did not degrade")
	}

	var completedDegraded, degradedEvent bool
	for _, e := range rec.snapshot() {
		switch ev := e.(type) {
		case telemetry.RoundCompleted:
			if ev.Degraded {
				completedDegraded = true
			}
		case telemetry.RoundDegraded:
			if ev.FailedMember != "rb" {
				t.Fatalf("RoundDegraded.FailedMember = %q, want rb", ev.FailedMember)
			}
			degradedEvent = true
		}
	}
	if !completedDegraded || !degradedEvent {
		t.Fatalf("degraded events missing: completed=%v degraded=%v", completedDegraded, degradedEvent)
	}
	if st := ra.Status(); !st.Degraded {
		t.Fatal("status does not flag the degraded round")
	}
}

// The growth gauges are read race-free while rounds run (the suite runs
// under -race, with a scraper beside the rounds), and stay bounded: after
// 3·roundStatesKept rounds every replica holds at most roundStatesKept
// round states, and the initiator's cohort registry one key per
// feasibility mask its rounds saw — here one.
func TestGrowthGaugesStayBounded(t *testing.T) {
	f := newFleetCfg(t, []float64{1, 3, 5}, 40, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.CohortMinClients = 2
	})
	ctx := context.Background()
	contact := f.replicas[0]
	regs := make([]*telemetry.Registry, len(f.replicas))
	for i, rs := range f.replicas {
		regs[i] = telemetry.NewRegistry()
		rs.RegisterMetrics(regs[i])
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			for _, reg := range regs {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	lat := f.uniformLatencies()
	for round := 1; round <= 3*roundStatesKept; round++ {
		for i, cl := range f.clients {
			if err := cl.Submit(ctx, contact.Addr(), float64(1+(i+round)%5), lat); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := contact.RunRound(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	scraper.Wait()
	for i, reg := range regs {
		if got := gaugeValue(t, reg, "edr_round_states"); got < 1 || got > roundStatesKept {
			t.Errorf("replica %d holds %g round states after %d rounds, want 1..%d", i, got, 3*roundStatesKept, roundStatesKept)
		}
	}
	if got := gaugeValue(t, regs[0], "edr_cohort_keys"); got != 1 {
		t.Errorf("the initiator's registry holds %g cohort keys for one feasibility mask", got)
	}
}
