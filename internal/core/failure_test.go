package core

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

func TestCDPSMRoundSurvivesReplicaFailure(t *testing.T) {
	f := newFleet(t, []float64{1, 4, 9}, 2, CDPSM)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), 25, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Crash(f.replicas[1].Addr())
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts == 0 {
		t.Fatal("no restart recorded after CDPSM member failure")
	}
	if len(report.ReplicaAddrs) != 2 {
		t.Fatalf("round used %d replicas, want 2 survivors", len(report.ReplicaAddrs))
	}
	rows := opt.RowSums(report.Assignment)
	for i, r := range rows {
		if math.Abs(r-25) > 0.2 {
			t.Fatalf("client %d served %g, want 25", i, r)
		}
	}
}

// roundSurvivesDeadClient pins the blast radius of a client that dies after
// submitting: clients take no part in any algorithm's iterations, so the
// round commits with both rows, the survivor gets its allocation, and only
// the dead client's notification is lost.
func roundSurvivesDeadClient(t *testing.T, alg Algorithm) {
	f := newFleet(t, []float64{1, 5}, 2, alg)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), 15, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Crash(f.clients[1].Addr())
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Degraded {
		t.Fatal("round degraded instead of committing")
	}
	if len(report.ClientAddrs) != 2 || len(report.Assignment) != 2 {
		t.Fatalf("round dropped a client row: %v", report.ClientAddrs)
	}
	wctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	alloc, err := f.clients[0].WaitAllocation(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Round != report.Round {
		t.Fatalf("survivor got round %d's allocation, want %d", alloc.Round, report.Round)
	}
}

// nanReplyNetwork is an in-process fabric on which one replica, while
// armed, overwrites every float of its replies to verb with NaN: it answers
// each wave on time, with a body no honest replica sends.
type nanReplyNetwork struct {
	*transport.InProcNetwork
	bad   string
	verb  string
	armed atomic.Bool
}

func (n *nanReplyNetwork) Listen(name string, h transport.Handler) (transport.Node, error) {
	if name != n.bad {
		return n.InProcNetwork.Listen(name, h)
	}
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		resp, err := h(ctx, req)
		if err != nil || req.Type != n.verb || !n.armed.Load() {
			return resp, err
		}
		body := slices.Clone(resp.Body)
		for end := len(body); end >= 8; end -= 8 {
			binary.LittleEndian.PutUint64(body[end-8:], math.Float64bits(math.NaN()))
		}
		resp.Body = body
		return resp, nil
	})
}

// A reply the initiator refuses is pinned on the replica that sent it, as
// an unreachable member is: with the default budget the round restarts
// without it and commits a finite split; with no restarts allowed the round
// degrades to the committed split, which stays the last good one.
func TestRefusedReplyPinnedOnSender(t *testing.T) {
	for _, tc := range []struct {
		name    string
		alg     Algorithm
		verb    string
		retries int
	}{
		{"restart", ADMM, MsgADMMProx, 0},
		{"degrade", ADMM, MsgADMMProx, -1},
		{"CDPSM-restart", CDPSM, MsgCDPSMStep, 0},
		{"CDPSM-degrade", CDPSM, MsgCDPSMStep, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &nanReplyNetwork{InProcNetwork: transport.NewInProcNetwork(), bad: "rb", verb: tc.verb}
			names := []string{"ra", "rb", "rc"}
			var replicas []*ReplicaServer
			for i, name := range names {
				rs, err := NewReplicaServer(net, name, names, ReplicaConfig{
					Replica:      model.NewReplica(name, []float64{1, 4, 9}[i]),
					Algorithm:    tc.alg,
					RoundRetries: tc.retries,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { rs.Close() })
				replicas = append(replicas, rs)
			}
			ra := replicas[0]
			var clients []*Client
			for _, name := range []string{"c1", "c2"} {
				cl, err := NewClient(net, name)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				clients = append(clients, cl)
			}
			ctx := context.Background()
			lat := map[string]float64{"ra": 0.0005, "rb": 0.0005, "rc": 0.0005}
			submit := func() {
				t.Helper()
				for _, cl := range clients {
					if err := cl.Submit(ctx, "ra", 20, lat); err != nil {
						t.Fatal(err)
					}
				}
			}

			var committed *lastGoodRound
			if tc.retries < 0 {
				// A clean round first, for the degraded round to fall back on.
				submit()
				if _, err := ra.RunRound(ctx); err != nil {
					t.Fatal(err)
				}
				committed = ra.committed()
			}
			net.armed.Store(true)
			submit()
			report, err := ra.RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(report.ReplicaAddrs, "rb") {
				t.Fatalf("round kept the refused replica: %v", report.ReplicaAddrs)
			}
			for i, row := range report.Assignment {
				sum := 0.0
				for _, v := range row {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("client %d's row %v is not finite", i, row)
					}
					sum += v
				}
				if math.Abs(sum-20) > 0.2 {
					t.Fatalf("client %d served %g, want 20", i, sum)
				}
			}
			if tc.retries < 0 {
				if !report.Degraded || report.Restarts != 0 {
					t.Fatalf("degraded %v after %d restarts, want a degraded round with none", report.Degraded, report.Restarts)
				}
				if ra.committed() != committed {
					t.Fatal("the degraded round replaced the last good one")
				}
				return
			}
			if report.Degraded || report.Restarts == 0 {
				t.Fatalf("degraded %v after %d restarts, want a committed restart", report.Degraded, report.Restarts)
			}
			if ra.Ring().Contains("rb") {
				t.Fatal("the refused replica is still in the ring")
			}
		})
	}
}

func TestRoundSurvivesClientFailureAfterSubmit(t *testing.T) { roundSurvivesDeadClient(t, CDPSM) }
func TestLDDMRoundSurvivesDeadClient(t *testing.T)           { roundSurvivesDeadClient(t, LDDM) }
func TestADMMRoundSurvivesDeadClient(t *testing.T)           { roundSurvivesDeadClient(t, ADMM) }

func TestConsecutiveRoundsIndependent(t *testing.T) {
	f := newFleet(t, []float64{2, 7}, 1, LDDM)
	ctx := context.Background()
	for round := 1; round <= 3; round++ {
		if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), float64(10*round), f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
		report, err := f.replicas[0].RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if report.Round != round {
			t.Fatalf("round id = %d, want %d", report.Round, round)
		}
		rows := opt.RowSums(report.Assignment)
		if math.Abs(rows[0]-float64(10*round)) > 0.1 {
			t.Fatalf("round %d served %g, want %d", round, rows[0], 10*round)
		}
		wctx, cancel := context.WithTimeout(ctx, time.Second)
		alloc, err := f.clients[0].WaitAllocation(wctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Round != round {
			t.Fatalf("allocation round = %d, want %d", alloc.Round, round)
		}
	}
}

func TestRoundStatsAccounting(t *testing.T) {
	f := newFleet(t, []float64{1, 3}, 2, LDDM)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), 20, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	init := &f.replicas[0].Stats
	if init.RequestsReceived.Value() != 2 {
		t.Fatalf("RequestsReceived = %d", init.RequestsReceived.Value())
	}
	if init.RoundsInitiated.Value() != 1 {
		t.Fatalf("RoundsInitiated = %d", init.RoundsInitiated.Value())
	}
	if init.CoordMessages.Value() == 0 {
		t.Fatal("initiator sent no coordination messages")
	}
	// Download accounting.
	for _, cl := range f.clients {
		wctx, cancel := context.WithTimeout(ctx, time.Second)
		alloc, err := cl.WaitAllocation(wctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Download(ctx, alloc); err != nil {
			t.Fatal(err)
		}
	}
	served := int64(0)
	for _, rs := range f.replicas {
		served += rs.Stats.DownloadsServed.Value()
	}
	if served == 0 {
		t.Fatal("no downloads served")
	}
}

func TestDownloadPayloadScale(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"ra", "rb"}
	cfg := ReplicaConfig{
		Replica:    modelReplica(1),
		Algorithm:  LDDM,
		BytesPerMB: 10, // tiny scale for the test
	}
	ra, err := NewReplicaServer(net, "ra", names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	cfgB := cfg
	cfgB.Replica = modelReplica(5)
	rb, err := NewReplicaServer(net, "rb", names, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	cl, err := NewClient(net, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	lat := map[string]float64{"ra": 0.0005, "rb": 0.0005}
	if err := cl.Submit(ctx, "ra", 12, lat); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	alloc, err := cl.WaitAllocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cl.Download(ctx, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// 12 MB at 10 bytes/MB ≈ 120 bytes (± rounding per replica split).
	if n < 100 || n > 130 {
		t.Fatalf("payload = %d bytes, want ≈120 at 10 B/MB", n)
	}
}

func TestReplicaRejectsUnknownMessageType(t *testing.T) {
	f := newFleet(t, []float64{1}, 1, LDDM)
	node, err := f.net.Listen("prober", func(ctx context.Context, m transport.Message) (transport.Message, error) {
		return transport.Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	_, err = node.Send(context.Background(), f.replicas[0].Addr(), transport.Message{Type: "bogus.type"})
	if err == nil {
		t.Fatal("bogus message type accepted")
	}
}

func TestClientRejectsUnknownMessageType(t *testing.T) {
	f := newFleet(t, []float64{1}, 1, LDDM)
	node, err := f.net.Listen("prober", func(ctx context.Context, m transport.Message) (transport.Message, error) {
		return transport.Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.Send(context.Background(), f.clients[0].Addr(), transport.Message{Type: "bogus"}); err == nil {
		t.Fatal("bogus message type accepted by client")
	}
}

func TestPingMeasuresLatency(t *testing.T) {
	f := newFleet(t, []float64{1}, 1, LDDM)
	d, err := f.clients[0].Ping(context.Background(), f.replicas[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Fatalf("negative latency %v", d)
	}
	if _, err := f.clients[0].Ping(context.Background(), "ghost"); err == nil {
		t.Fatal("ping to ghost succeeded")
	}
}

// modelReplica builds a minimal valid replica for config tests.
func modelReplica(price float64) model.Replica {
	return model.NewReplica("r", price)
}
