package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"edr/internal/lddm"
	"edr/internal/transport"
)

// delivery is one message a handler received on a deadlineNet: who got it,
// which verb, and the deadline of the context it ran under, if any.
type delivery struct {
	to, verb string
	deadline time.Time
	bounded  bool
}

// deadlineNet wraps the in-process fabric, which runs a destination's
// handler under the sender's context, so every delivery's deadline is the
// deadline its send attempt ran under.
type deadlineNet struct {
	*transport.InProcNetwork
	mu   sync.Mutex
	seen []delivery
	// drop, when non-nil, is asked once per delivery; a delivery it
	// reports true for is black-holed until its attempt's deadline.
	drop func(d delivery) bool
}

func (n *deadlineNet) Listen(name string, h transport.Handler) (transport.Node, error) {
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		dl, ok := ctx.Deadline()
		d := delivery{to: name, verb: req.Type, deadline: dl, bounded: ok}
		n.mu.Lock()
		n.seen = append(n.seen, d)
		drop := n.drop != nil && n.drop(d)
		n.mu.Unlock()
		if drop {
			<-ctx.Done()
			return transport.Message{}, ctx.Err()
		}
		return h(ctx, req)
	})
}

// deliveries returns the deliveries of verb, in arrival order.
func (n *deadlineNet) deliveries(verb string) []delivery {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []delivery
	for _, d := range n.seen {
		if d.verb == verb {
			out = append(out, d)
		}
	}
	return out
}

// deadlineFleet builds an LDDM fleet on a deadlineNet, calling tweak on
// every replica's config, and queues every client's demand.
func deadlineFleet(t *testing.T, prices []float64, nClients int, tweak func(i int, cfg *ReplicaConfig)) (*fleet, *deadlineNet) {
	t.Helper()
	net := &deadlineNet{InProcNetwork: transport.NewInProcNetwork()}
	f := newFleetOn(t, net, net.InProcNetwork, prices, nClients, LDDM, tweak)
	ctx := context.Background()
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), float64(5+i), f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	return f, net
}

// checkWaves asserts that ds, one verb's deliveries, split into waves by
// deadline, and every wave reaches each of want exactly once: a wave's
// first attempts share one deadline, and distinct waves have their own.
func checkWaves(t *testing.T, verb string, ds []delivery, want []string) {
	t.Helper()
	if len(ds) == 0 {
		t.Fatalf("%s: no deliveries", verb)
	}
	waves := map[time.Time]map[string]int{}
	for _, d := range ds {
		if !d.bounded {
			t.Fatalf("%s to %s ran without a deadline", verb, d.to)
		}
		key := d.deadline.Round(0) // compare wall-and-monotonic instants by value
		if waves[key] == nil {
			waves[key] = map[string]int{}
		}
		waves[key][d.to]++
	}
	for dl, got := range waves {
		if len(got) != len(want) {
			t.Fatalf("%s: the wave with deadline %v reached %d peers, want %d: each send armed its own deadline", verb, dl, len(got), len(want))
		}
		for _, to := range want {
			if got[to] != 1 {
				t.Fatalf("%s: the wave with deadline %v reached %s %d times, want 1", verb, dl, to, got[to])
			}
		}
	}
	if len(ds) != len(waves)*len(want) {
		t.Fatalf("%s: %d deliveries in %d waves of %d", verb, len(ds), len(waves), len(want))
	}
}

// Every coordination wave of an LDDM round — info, round start, each
// iteration's local solves, install — arms one deadline that all its first
// attempts share.
func TestWaveDeadlineSharedByLDDMWaves(t *testing.T) {
	f, net := deadlineFleet(t, []float64{1, 3, 5, 7}, 4, func(_ int, cfg *ReplicaConfig) { cfg.MaxIters = 5 })
	report, err := f.replicas[0].RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations < 2 {
		t.Fatalf("round ran %d iterations, want several waves", report.Iterations)
	}
	for _, verb := range []string{MsgReplicaInfo, MsgRoundStart, lddm.MsgLocalSolve, MsgAssign} {
		checkWaves(t, verb, net.deliveries(verb), report.ReplicaAddrs)
	}
	if got := len(net.deliveries(lddm.MsgLocalSolve)); got != report.Iterations*len(report.ReplicaAddrs) {
		t.Fatalf("%d local solves over %d iterations", got, report.Iterations)
	}
}

// A round's notify is one wave: every pushed client sees the same
// deadline, on the per-client path and on the cohort-batched one. The
// checked round is the second: in the first, every client also gets the
// full form after its roster miss (TestRosterMissResendsFullForm).
func TestWaveDeadlineSharedByNotifyWave(t *testing.T) {
	for _, tc := range []struct {
		name, verb string
		cohorts    int
	}{
		{"per-client", MsgAllocation, 0},
		{"cohort", MsgCohortAllocation, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, net := deadlineFleet(t, []float64{1, 3, 5}, 12, func(_ int, cfg *ReplicaConfig) { cfg.CohortMinClients = tc.cohorts })
			ctx := context.Background()
			if _, err := f.replicas[0].RunRound(ctx); err != nil {
				t.Fatal(err)
			}
			for i, cl := range f.clients {
				if err := cl.Submit(ctx, f.replicas[0].Addr(), float64(5+i), f.uniformLatencies()); err != nil {
					t.Fatal(err)
				}
			}
			net.mu.Lock()
			net.seen = nil
			net.mu.Unlock()
			report, err := f.replicas[0].RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if (report.Cohorts > 0) != (tc.cohorts > 0) {
				t.Fatalf("round cohorts = %d", report.Cohorts)
			}
			checkWaves(t, tc.verb, net.deliveries(tc.verb), report.ClientAddrs)
		})
	}
}

// A first attempt black-holed past the wave's shared deadline is retried
// under a deadline of its own, and its peer is not pinned: the round
// commits on the full ring without a restart.
func TestWaveDeadlineRetryArmsItsOwn(t *testing.T) {
	const timeout = 50 * time.Millisecond
	f, net := deadlineFleet(t, []float64{1, 3, 5}, 3, func(_ int, cfg *ReplicaConfig) {
		cfg.RPCTimeout = timeout
		cfg.SendRetries = 2
		cfg.RetryBase = time.Millisecond
		cfg.MaxIters = 3
	})
	victim := f.replicas[1].Addr()
	dropped := false
	net.drop = func(d delivery) bool {
		if d.to == victim && d.verb == lddm.MsgLocalSolve && !dropped {
			dropped = true
			return true
		}
		return false
	}
	initiator := f.replicas[0]
	report, err := initiator.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts != 0 || report.Degraded || !initiator.Ring().Contains(victim) {
		t.Fatalf("a dropped first attempt pinned %s: restarts=%d degraded=%v", victim, report.Restarts, report.Degraded)
	}
	if got := initiator.Stats.SendRetried.Value(); got != 1 {
		t.Fatalf("retries = %d, want the dropped attempt's 1", got)
	}
	var wave []delivery // the first wave's deliveries, the retry included
	for _, d := range net.deliveries(lddm.MsgLocalSolve) {
		if len(wave) == len(report.ReplicaAddrs)+1 {
			break
		}
		wave = append(wave, d)
	}
	shared := wave[0].deadline
	var first, retry *delivery
	for i := range wave {
		if wave[i].to != victim {
			continue
		}
		if first == nil {
			first = &wave[i]
		} else {
			retry = &wave[i]
		}
	}
	if first == nil || retry == nil {
		t.Fatalf("first wave %v: want %s's dropped attempt and its retry", wave, victim)
	}
	if !first.deadline.Equal(shared) {
		t.Fatalf("dropped first attempt ran under %v, not the wave's %v", first.deadline, shared)
	}
	if !retry.deadline.After(shared) {
		t.Fatalf("retry ran under %v, not after the wave's %v: it must arm its own", retry.deadline, shared)
	}
}

// BenchmarkNotifyWave is one full round's notify to 10 000 in-process
// clients through the cohort-batched path: a wave of 10 000 pushes over
// fanOutWidth goroutines, the notify phase of a fleet-scale redraw round.
// Set-up runs one round up to and including its notify; each op repeats
// that notify.
func BenchmarkNotifyWave(b *testing.B) {
	const nClients = 10000
	inproc := transport.NewInProcNetwork()
	f := newFleetOn(b, inproc, inproc, []float64{1, 3, 5}, nClients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Replica.Bandwidth = 1e6
		cfg.CohortMinClients = 2
		cfg.MaxIters = 20
	})
	ctx := context.Background()
	near := f.uniformLatencies()
	far := f.uniformLatencies()
	far[f.replicas[2].Addr()] = 0.0050 // beyond T: a second feasibility mask
	for i, cl := range f.clients {
		lat := near
		if i%2 == 1 {
			lat = far
		}
		if err := cl.Submit(ctx, f.replicas[0].Addr(), float64(1+i%7), lat); err != nil {
			b.Fatal(err)
		}
	}
	r := f.replicas[0]
	a := &attempt{full: instance{requests: r.drainPending()}}
	if err := r.gather(ctx, a); err != nil {
		b.Fatal(err)
	}
	if err := r.build(a); err != nil {
		b.Fatal(err)
	}
	r.plan(a, false)
	if err := r.execute(ctx, a); err != nil {
		b.Fatal(err)
	}
	if a.grouping == nil {
		b.Fatal("round did not cohort its clients")
	}
	sent := r.Stats.CoordMessages.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.notify(ctx, a)
	}
	b.StopTimer()
	if got := r.Stats.CoordMessages.Value() - sent; got != int64(b.N)*nClients {
		b.Fatalf("%d pushes over %d notifies of %d clients", got, b.N, nClients)
	}
}
