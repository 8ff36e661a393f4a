package core

import (
	"encoding"
	"encoding/json"
	"strings"
	"testing"

	"edr/internal/admm"
	"edr/internal/lddm"
)

// Every verb takes its body in its one binary layout. The same body as
// JSON text, which a peer of an older version sends, or with one byte past
// its last field is refused with an error naming the verb, and leaves no
// pending request, no round state and no installed plan behind, while the
// body itself is served.
func TestBinaryVerbsRefuseJSONBodies(t *testing.T) {
	f := newFleet(t, []float64{1, 10, 5}, 1, LDDM)
	contact, target := f.replicas[0], f.replicas[1]

	spec := RoundSpec{
		Round:       900,
		ClientAddrs: []string{"c1", "c2"},
		Demands:     []float64{10, 20},
		Feasible:    [][]bool{{true, true, true}, {true, true, true}},
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

	refuse := func(to *ReplicaServer, verb string, body encoding.BinaryMarshaler) {
		t.Helper()
		js, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := body.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, foreign := range []hostile{js, append(bin, 0)} {
			if _, err := sendRaw(t, f, to.Addr(), verb, foreign); err == nil || !strings.Contains(err.Error(), verb) {
				t.Fatalf("%s body %q: error %v, want a refusal naming the verb", verb, foreign, err)
			}
		}
	}
	serve := func(to *ReplicaServer, verb string, body encoding.BinaryMarshaler) {
		t.Helper()
		if _, err := sendRaw(t, f, to.Addr(), verb, body); err != nil {
			t.Fatalf("binary %s: %v", verb, err)
		}
	}

	request := RequestBody{ClientAddr: f.clients[0].Addr(), DemandMB: 30, LatencySec: f.latencyList()}
	refuse(contact, MsgClientRequest, request)
	if n := contact.PendingRequests(); n != 0 {
		t.Fatalf("refused client.request left %d pending", n)
	}
	request.ClientAddr = nextRawName(MsgClientRequest) // a full form names its sender
	serve(contact, MsgClientRequest, request)
	if n := contact.PendingRequests(); n != 1 {
		t.Fatalf("binary client.request: %d pending, want 1", n)
	}

	refuse(target, MsgRoundStart, spec)
	if _, err := target.lookupRound(spec.Round); err == nil {
		t.Fatal("refused round.start installed round state")
	}
	serve(target, MsgRoundStart, spec)

	refuse(target, MsgLocalSolve, lddm.SolveBody{Round: spec.Round, Mu: []float64{-100, -80}})
	serve(target, MsgLocalSolve, lddm.SolveBody{Round: spec.Round, Mu: []float64{-100, -80}})
	refuse(target, MsgADMMProx, admm.ProxBody{Round: spec.Round, Rho: 1, Target: []float64{4, 6}})
	serve(target, MsgADMMProx, admm.ProxBody{Round: spec.Round, Rho: 1, Target: []float64{4, 6}})

	assign := assignOf(spec.Round, 0, []clientMB{{"c1", 4}})
	refuse(target, MsgAssign, assign)
	if got := target.Plan(spec.Round, "c1"); got != 0 {
		t.Fatalf("refused replica.assign installed %g MB for c1", got)
	}
	serve(target, MsgAssign, assign)
	if got := target.Plan(spec.Round, "c1"); got != 4 {
		t.Fatalf("binary replica.assign installed %g MB for c1, want 4", got)
	}

	refuse(contact, MsgAllocationPull, PullBody{ClientAddr: "c1"})
	serve(contact, MsgAllocationPull, PullBody{ClientAddr: "c1"})
	download := DownloadBody{Round: spec.Round, SizeMB: 4}
	refuse(target, MsgDownload, download)
	if n := target.Stats.DownloadsServed.Value(); n != 0 {
		t.Fatalf("refused download.request served %d downloads", n)
	}
	serve(target, MsgDownload, download)
}
