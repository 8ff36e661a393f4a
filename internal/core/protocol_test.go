package core

import (
	"context"
	"encoding"
	"fmt"
	"math"
	"strings"
	"testing"

	"edr/internal/cdpsm"
	"edr/internal/lddm"
	"edr/internal/transport"
)

// rawSeq disambiguates prober node names across sendRaw calls.
var rawSeq int

// nextRawName is the name of the prober node the next sendRaw of msgType
// sends from: a full-form client.request names its sender.
func nextRawName(msgType string) string { return fmt.Sprintf("raw-%d-%s", rawSeq+1, msgType) }

// sendRaw delivers an arbitrary message to a fleet member from a fresh
// prober node.
func sendRaw(t *testing.T, f *fleet, to string, msgType string, body encoding.BinaryMarshaler) (transport.Message, error) {
	t.Helper()
	name := nextRawName(msgType)
	rawSeq++
	node, err := f.net.Listen(name, func(ctx context.Context, m transport.Message) (transport.Message, error) {
		return transport.Message{Type: "ok"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	msg, err := transport.NewMessage(msgType, node.Name(), body)
	if err != nil {
		t.Fatal(err)
	}
	return node.Send(context.Background(), to, msg)
}

func TestProtocolRejectsMalformedBodies(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	addr := f.replicas[0].Addr()
	// A download whose payload would outgrow any frame, by one byte.
	overFrame := float64(transport.MaxFrameBytes+1) / float64(f.replicas[0].cfg.BytesPerMB)
	cases := []struct {
		msgType string
		body    encoding.BinaryMarshaler
	}{
		{MsgClientRequest, hostile("not an object")},
		{MsgClientRequest, hostile{}.u32(0).str("").f64(1).u32(0)}, // no addr
		{MsgClientRequest, RequestBody{Handle: 9}},                 // handle form, zero demand
		{MsgClientRequest, RequestBody{ClientAddr: "x"}},           // zero demand
		{MsgRoundStart, hostile("garbage")},                        // undecodable
		{MsgRoundStart, RoundSpec{Round: 1}},                       // empty spec
		{MsgLocalSolve, lddm.SolveBody{Round: 99}},                 // unknown round
		{cdpsm.MsgStep, cdpsm.StepBody{Round: 99}},                 // unknown round
		{cdpsm.MsgEstimate, nil},                                   // retired verb
		{cdpsm.MsgCommit, nil},                                     // retired verb
		{MsgAssign, AssignBody{Round: 99}},                         // unknown round
		{MsgDownload, DownloadBody{Round: 1, SizeMB: -5}},          // negative size
		{MsgDownload, DownloadBody{Round: 1, SizeMB: 1e308}},       // no slice that long
		{MsgDownload, DownloadBody{Round: 1, SizeMB: math.NaN()}},
		{MsgDownload, DownloadBody{Round: 1, SizeMB: math.Inf(1)}},
		{MsgDownload, DownloadBody{Round: 1, SizeMB: overFrame}},
		{MsgAllocation, nil}, // replicas don't take allocations
	}
	for _, tc := range cases {
		if req, ok := tc.body.(RequestBody); ok && req.ClientAddr != "" {
			req.ClientAddr = nextRawName(tc.msgType) // refused for its demand, not its name
			tc.body = req
		}
		_, err := sendRaw(t, f, addr, tc.msgType, tc.body)
		if err == nil {
			t.Errorf("%s with body %v accepted", tc.msgType, tc.body)
		} else if sender := fmt.Sprintf("raw-%d-", rawSeq); tc.msgType == MsgDownload && !strings.Contains(err.Error(), sender) {
			t.Errorf("%s with body %v: error %v does not name the sender %s…", tc.msgType, tc.body, err, sender)
		}
	}
	if n := f.replicas[0].Stats.DownloadsServed.Value(); n != 0 {
		t.Errorf("%d refused downloads counted as served", n)
	}
}

// One client submitting a non-finite demand or a non-finite or negative
// latency is refused with an error naming the sender, and queues nothing;
// the other clients' round still commits.
func TestClientRequestRefusesNonFiniteInput(t *testing.T) {
	f := newFleet(t, []float64{1, 10, 5}, 2, LDDM)
	contact := f.replicas[0]
	badLatency := func(l float64) []Latency {
		lat := f.latencyList()
		lat[1].Sec = l
		return lat
	}
	for _, body := range []RequestBody{
		{DemandMB: math.NaN(), LatencySec: f.latencyList()},
		{DemandMB: math.Inf(1), LatencySec: f.latencyList()},
		{DemandMB: math.Inf(-1), LatencySec: f.latencyList()},
		{DemandMB: 10, LatencySec: badLatency(math.NaN())},
		{DemandMB: 10, LatencySec: badLatency(math.Inf(1))},
		{DemandMB: 10, LatencySec: badLatency(math.Inf(-1))},
		{DemandMB: 10, LatencySec: badLatency(-1e-3)},
	} {
		body.ClientAddr = nextRawName(MsgClientRequest) // the hostile sender names itself
		_, err := sendRaw(t, f, contact.Addr(), MsgClientRequest, body)
		if sender := fmt.Sprintf("raw-%d-", rawSeq); err == nil || !strings.Contains(err.Error(), sender) {
			t.Errorf("demand %g, latencies %v: error %v, want a refusal naming %s…", body.DemandMB, body.LatencySec, err, sender)
		}
	}
	if n := contact.PendingRequests(); n != 0 {
		t.Fatalf("refused submissions left %d pending", n)
	}

	ctx := context.Background()
	demands := []float64{30, 20}
	submitAll(t, f, demands)
	report, err := contact.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ClientAddrs) != len(f.clients) {
		t.Fatalf("round committed %d clients, want %d", len(report.ClientAddrs), len(f.clients))
	}
	checkFeasibleReport(t, f, report, demands)
}

// A replica steps only from a consensus of one finite value per supported
// pair: any other mean is refused with an error naming the replica, so a
// faulty initiator's step is pinned where it was refused.
func TestCDPSMStepRefusesHostileMean(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, CDPSM)
	ctx := context.Background()
	if err := f.clients[0].Submit(ctx, f.replicas[0].Addr(), 10, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	// Run a legitimate round so round 1 state exists on replica 2.
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	target := f.replicas[1]
	st, err := target.lookupRound(1)
	if err != nil {
		t.Fatal(err)
	}
	nnz := st.eng.Prob.Sparsity().NNZ()
	resp, err := sendRaw(t, f, target.Addr(), cdpsm.MsgStep, cdpsm.StepBody{Round: 1, Step: cdpsm.DefaultStep, Mean: make([]float64, nnz)})
	var reply cdpsm.StepReply
	if err != nil || resp.DecodeBody(&reply) != nil || len(reply.Estimate) != nnz {
		t.Fatalf("a zero mean was not stepped from: %v", err)
	}
	nan := make([]float64, nnz)
	nan[0] = math.NaN()
	for _, mean := range [][]float64{nan, {math.Inf(1), 0}, make([]float64, nnz+1), nil} {
		_, err := sendRaw(t, f, target.Addr(), cdpsm.MsgStep, cdpsm.StepBody{Round: 1, Step: cdpsm.DefaultStep, Mean: mean})
		if err == nil || !strings.Contains(err.Error(), target.Addr()) {
			t.Errorf("step from mean %v: error %v, want a refusal naming %s", mean, err, target.Addr())
		}
	}
}

func TestLocalSolveMultiplierLengthChecked(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 2, LDDM)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), 10, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	// Round 1 had two clients; a 1-multiplier solve must be rejected.
	body := lddm.SolveBody{Round: 1, Mu: []float64{0}}
	if _, err := sendRaw(t, f, f.replicas[1].Addr(), MsgLocalSolve, body); err == nil {
		t.Error("short multiplier vector accepted")
	}
}

// A local solve dispatched through the replica's handler allocates only
// the reply's bytes once the round's state exists: the request reaches the
// LDDM server half, and its reply leaves under the ack name, unboxed.
func TestLocalSolveDispatchAllocatesOnlyItsReply(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := newFleet(t, []float64{1, 2}, 3, LDDM)
	ctx := context.Background()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), 10, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	req, err := transport.NewMessage(MsgLocalSolve, f.replicas[0].Addr(), lddm.SolveBody{Round: 1, Mu: []float64{-40, -3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	r := f.replicas[1]
	var resp transport.Message
	if n := testing.AllocsPerRun(100, func() {
		if resp, err = r.handle(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("a dispatched local solve allocates %v times, want at most 1", n)
	}
	var reply lddm.SolveReply
	if resp.Type != MsgLocalSolve+".ack" || resp.From != r.Addr() || resp.DecodeBody(&reply) != nil || reply.M != 3 {
		t.Fatalf("reply %q from %q decodes to %+v", resp.Type, resp.From, reply)
	}
}

func TestSpecProblemRejectsBadSpecs(t *testing.T) {
	good := RoundSpec{
		Round: 1,
		Replicas: []ReplicaInfo{
			{Addr: "a", Price: 1, Alpha: 1, Beta: 0.01, Gamma: 3, Bandwidth: 100},
		},
		ClientAddrs: []string{"c1"},
		Demands:     []float64{10},
		Feasible:    [][]bool{{true}},
	}
	if _, err := specProblem(&good); err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Replicas = nil
	if _, err := specProblem(&bad); err == nil {
		t.Error("empty replica list accepted")
	}

	bad = good
	bad.Demands = []float64{-1}
	if _, err := specProblem(&bad); err == nil {
		t.Error("negative demand accepted")
	}

	bad = good
	bad.Replicas = []ReplicaInfo{{Addr: "a", Price: 1, Alpha: 1, Beta: 0.01, Gamma: 0.5, Bandwidth: 100}}
	if _, err := specProblem(&bad); err == nil {
		t.Error("gamma < 1 accepted")
	}
}

func TestPlanUnknownRound(t *testing.T) {
	f := newFleet(t, []float64{1}, 1, LDDM)
	if got := f.replicas[0].Plan(42, "nobody"); got != 0 {
		t.Fatalf("Plan(unknown) = %g", got)
	}
}

func TestRoundStartForUnlistedReplicaRejected(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	spec := RoundSpec{
		Round: 7,
		Replicas: []ReplicaInfo{
			{Addr: "someone-else", Price: 1, Alpha: 1, Beta: 0.01, Gamma: 3, Bandwidth: 100},
		},
		ClientAddrs: []string{"c1"},
		Demands:     []float64{10},
		Feasible:    [][]bool{{true}},
	}
	if _, err := sendRaw(t, f, f.replicas[0].Addr(), MsgRoundStart, spec); err == nil {
		t.Error("round start without this replica in the column list accepted")
	}
}
