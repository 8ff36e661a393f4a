package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edr/internal/opt"
	"edr/internal/transport"
)

// Core never emits JSON on a round's path but still accepts it: hand-built
// JSON client.request, round.start, replica.localsolve and replica.assign
// messages (a hand-written tool, an older client) are answered in JSON and
// leave a binary fleet in the same state as their binary twins.
func TestJSONRequestsInteroperateWithBinaryFleet(t *testing.T) {
	f := newFleet(t, []float64{1, 10, 5}, 2, LDDM)
	ctx := context.Background()
	contact := f.replicas[0].Addr()
	isJSON := func(m transport.Message) bool { return len(m.Bin) == 0 }

	// client.request: a JSON submission is acked in JSON and scheduled in
	// the same round as a binary one.
	jsonClient, binClient := f.clients[0], f.clients[1]
	resp, err := sendRawJSON(t, f, contact, MsgClientRequest,
		RequestBody{ClientAddr: jsonClient.Addr(), DemandMB: 30, LatencySec: f.uniformLatencies()})
	if err != nil {
		t.Fatal(err)
	}
	var ack RequestAck
	if err := resp.DecodeBody(&ack); err != nil || !isJSON(resp) || !ack.Accepted || ack.Pending != 1 {
		t.Fatalf("JSON client.request ack = %+v (json %v, err %v)", ack, isJSON(resp), err)
	}
	if err := binClient.Submit(ctx, contact, 20, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.RowSums(report.Assignment); len(got) != 2 || math.Abs(got[0]-30) > 0.1 || math.Abs(got[1]-20) > 0.1 {
		t.Fatalf("row sums = %v, want [30 20]", got)
	}

	// round.start, an iteration verb and replica.assign: the same bodies
	// under two round ids, one sent as JSON and one as binary.
	spec := RoundSpec{
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
		if err := resp.DecodeBody(&info); err != nil {
			t.Fatal(err)
		}
		spec.Replicas = append(spec.Replicas, info)
	}
	target := f.replicas[1]
	const jsonRound, binRound = 900, 901
	columns := make(map[int][]float64)
	for _, tc := range []struct {
		round int
		send  func(*testing.T, *fleet, string, string, any) (transport.Message, error)
	}{{jsonRound, sendRawJSON}, {binRound, sendRaw}} {
		wantJSON := tc.round == jsonRound
		spec.Round = tc.round
		steps := []struct {
			verb string
			body any
		}{
			{MsgRoundStart, spec},
			{MsgLocalSolve, LocalSolveBody{Round: tc.round, Iter: 1, Mu: []float64{-100, -80}}},
			{MsgAssign, AssignBody{Round: tc.round, Column: []float64{4, 0}, ClientAddrs: spec.ClientAddrs}},
		}
		for _, step := range steps {
			resp, err := tc.send(t, f, target.Addr(), step.verb, step.body)
			if err != nil {
				t.Fatalf("round %d %s: %v", tc.round, step.verb, err)
			}
			// The install acks carry no body; what must never happen is a
			// body in the codec the caller did not speak.
			if (wantJSON && len(resp.Bin) > 0) || (!wantJSON && len(resp.Body) > 0) {
				t.Errorf("round %d %s: ack does not mirror the request's codec (JSON request: %v)", tc.round, step.verb, wantJSON)
			}
			if step.verb == MsgLocalSolve {
				// Both clients are within reach, so the reply's support is
				// the whole roster; rebuild the column from the demands.
				var reply LocalSolveReply
				if err := resp.DecodeBody(&reply); err != nil {
					t.Fatal(err)
				}
				col := opt.NewMatrix(len(spec.Demands), 1)
				if err := reply.Unpack([]int{0, 1}, spec.Demands, col, 0); err != nil {
					t.Fatal(err)
				}
				columns[tc.round] = opt.RowSums(col)
			}
		}
	}
	if len(columns[jsonRound]) != 2 || !reflect.DeepEqual(columns[jsonRound], columns[binRound]) {
		t.Errorf("local solve over JSON = %v, over binary = %v", columns[jsonRound], columns[binRound])
	}
	if got := columns[binRound]; got[0] != spec.Demands[0] || got[1] == 0 || got[1] == spec.Demands[1] {
		t.Errorf("local solve column %v: want client c1 served whole and c2 in part", got)
	}
	for _, addr := range spec.ClientAddrs {
		if j, b := target.Plan(jsonRound, addr), target.Plan(binRound, addr); j != b {
			t.Errorf("plan for %s: %g installed over JSON, %g over binary", addr, j, b)
		}
	}
	if got := target.Plan(jsonRound, "c1"); got != 4 {
		t.Errorf("plan for c1 = %g, want 4", got)
	}
}
