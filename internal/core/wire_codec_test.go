package core

import (
	"encoding/json"
	"strings"
	"testing"

	"edr/internal/transport"
)

// jsonMessage builds a message whose body is JSON whatever its type.
func jsonMessage(msgType, from string, v any) (transport.Message, error) {
	b, err := json.Marshal(v)
	return transport.Message{Type: msgType, From: from, Body: b}, err
}

// A body's type is its only codec: a JSON body sent to a binary verb is
// refused with an error naming the verb, and leaves no pending request, no
// round state and no installed plan behind — while its binary twin is
// served. replica.info, whose body is JSON, is still answered.
func TestBinaryVerbsRefuseJSONBodies(t *testing.T) {
	f := newFleet(t, []float64{1, 10, 5}, 1, LDDM)
	contact, target := f.replicas[0], f.replicas[1]

	spec := RoundSpec{
		Round:         900,
		ClientAddrs:   []string{"c1", "c2"},
		Demands:       []float64{10, 20},
		LatencySec:    [][]float64{{0.0005, 0.0005, 0.0005}, {0.0005, 0.0005, 0.0005}},
		MaxLatencySec: 0.0018,
	}
	for _, rs := range f.replicas {
		resp, err := sendRaw(t, f, rs.Addr(), MsgReplicaInfo, nil)
		if err != nil {
			t.Fatal(err)
		}
		var info ReplicaInfo
		if err := resp.DecodeBody(&info); err != nil || info.Addr != rs.Addr() {
			t.Fatalf("replica.info from %s: %+v, %v", rs.Addr(), info, err)
		}
		spec.Replicas = append(spec.Replicas, info)
	}

	refuse := func(to *ReplicaServer, verb string, body any) {
		t.Helper()
		_, err := sendRawWith(t, f, to.Addr(), verb, body, jsonMessage)
		if err == nil || !strings.Contains(err.Error(), verb) {
			t.Fatalf("JSON %s: error %v, want a refusal naming the verb", verb, err)
		}
	}
	serve := func(to *ReplicaServer, verb string, body any) {
		t.Helper()
		if _, err := sendRaw(t, f, to.Addr(), verb, body); err != nil {
			t.Fatalf("binary %s: %v", verb, err)
		}
	}

	request := RequestBody{ClientAddr: f.clients[0].Addr(), DemandMB: 30, LatencySec: f.uniformLatencies()}
	refuse(contact, MsgClientRequest, request)
	if n := contact.PendingRequests(); n != 0 {
		t.Fatalf("refused client.request left %d pending", n)
	}
	serve(contact, MsgClientRequest, request)
	if n := contact.PendingRequests(); n != 1 {
		t.Fatalf("binary client.request: %d pending, want 1", n)
	}

	refuse(target, MsgRoundStart, spec)
	if _, err := target.lookupRound(spec.Round); err == nil {
		t.Fatal("refused round.start installed round state")
	}
	serve(target, MsgRoundStart, spec)

	refuse(target, MsgLocalSolve, LocalSolveBody{Round: spec.Round, Iter: 1, Mu: []float64{-100, -80}})
	serve(target, MsgLocalSolve, LocalSolveBody{Round: spec.Round, Iter: 1, Mu: []float64{-100, -80}})
	refuse(target, MsgADMMProx, ADMMProxBody{Round: spec.Round, Iter: 1, Rho: 1, Target: []float64{4, 6}})
	serve(target, MsgADMMProx, ADMMProxBody{Round: spec.Round, Iter: 1, Rho: 1, Target: []float64{4, 6}})

	assign := AssignBody{Round: spec.Round, Column: []float64{4, 0}, ClientAddrs: spec.ClientAddrs}
	refuse(target, MsgAssign, assign)
	if got := target.Plan(spec.Round, "c1"); got != 0 {
		t.Fatalf("refused replica.assign installed %g MB for c1", got)
	}
	serve(target, MsgAssign, assign)
	if got := target.Plan(spec.Round, "c1"); got != 4 {
		t.Fatalf("binary replica.assign installed %g MB for c1, want 4", got)
	}
}
