package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"edr/internal/cdpsm"
	"edr/internal/transport"
)

// rawSeq disambiguates prober node names across sendRaw calls.
var rawSeq int

// sendRaw delivers an arbitrary message to a fleet member, in the codec a
// current node would pick for the body.
func sendRaw(t *testing.T, f *fleet, to string, msgType string, body any) (transport.Message, error) {
	t.Helper()
	return sendRawWith(t, f, to, msgType, body, transport.NewMessage)
}

func sendRawWith(t *testing.T, f *fleet, to, msgType string, body any,
	build func(msgType, from string, v any) (transport.Message, error)) (transport.Message, error) {
	t.Helper()
	rawSeq++
	name := fmt.Sprintf("raw-%d-%s", rawSeq, msgType)
	node, err := f.net.Listen(name, func(ctx context.Context, m transport.Message) (transport.Message, error) {
		return transport.Message{Type: "ok"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	msg, err := build(msgType, node.Name(), body)
	if err != nil {
		t.Fatal(err)
	}
	return node.Send(context.Background(), to, msg)
}

func TestProtocolRejectsMalformedBodies(t *testing.T) {
	f := newFleet(t, []float64{1, 2}, 1, LDDM)
	addr := f.replicas[0].Addr()
	cases := []struct {
		msgType string
		body    any
	}{
		{MsgClientRequest, "not an object"},
		{MsgClientRequest, RequestBody{}},                 // empty addr/demand
		{MsgClientRequest, RequestBody{ClientAddr: "x"}},  // zero demand
		{MsgRoundStart, "garbage"},                        // undecodable
		{MsgRoundStart, RoundSpec{Round: 1}},              // empty spec
		{MsgLocalSolve, LocalSolveBody{Round: 99}},        // unknown round
		{MsgCDPSMStep, CDPSMStepBody{Round: 99}},          // unknown round
		{cdpsm.MsgEstimate, nil},                          // retired verb
		{cdpsm.MsgCommit, nil},                            // retired verb
		{MsgAssign, AssignBody{Round: 99}},                // unknown round
		{MsgDownload, DownloadBody{Round: 1, SizeMB: -5}}, // negative size
		{MsgAllocation, nil},                              // replicas don't take allocations
	}
	for _, tc := range cases {
		if _, err := sendRaw(t, f, addr, tc.msgType, tc.body); err == nil {
			t.Errorf("%s with body %v accepted", tc.msgType, tc.body)
		}
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
		{ClientAddr: "hostile", DemandMB: math.NaN(), LatencySec: f.latencyList()},
		{ClientAddr: "hostile", DemandMB: math.Inf(1), LatencySec: f.latencyList()},
		{ClientAddr: "hostile", DemandMB: math.Inf(-1), LatencySec: f.latencyList()},
		{ClientAddr: "hostile", DemandMB: 10, LatencySec: badLatency(math.NaN())},
		{ClientAddr: "hostile", DemandMB: 10, LatencySec: badLatency(math.Inf(1))},
		{ClientAddr: "hostile", DemandMB: 10, LatencySec: badLatency(math.Inf(-1))},
		{ClientAddr: "hostile", DemandMB: 10, LatencySec: badLatency(-1e-3)},
	} {
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
	resp, err := sendRaw(t, f, target.Addr(), MsgCDPSMStep, CDPSMStepBody{Round: 1, Step: cdpsm.DefaultStep, Mean: make([]float64, nnz)})
	var reply CDPSMStepReply
	if err != nil || resp.DecodeBody(&reply) != nil || len(reply.Estimate) != nnz {
		t.Fatalf("a zero mean was not stepped from: %v", err)
	}
	nan := make([]float64, nnz)
	nan[0] = math.NaN()
	for _, mean := range [][]float64{nan, {math.Inf(1), 0}, make([]float64, nnz+1), nil} {
		_, err := sendRaw(t, f, target.Addr(), MsgCDPSMStep, CDPSMStepBody{Round: 1, Step: cdpsm.DefaultStep, Mean: mean})
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
	body := LocalSolveBody{Round: 1, Mu: []float64{0}}
	if _, err := sendRaw(t, f, f.replicas[1].Addr(), MsgLocalSolve, body); err == nil {
		t.Error("short multiplier vector accepted")
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
