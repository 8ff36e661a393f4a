package donar

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"edr/internal/transport"
)

// donarFleet wires mapping nodes and client sinks on an in-process fabric.
type donarFleet struct {
	net     *transport.InProcNetwork
	nodes   []*MappingNode
	clients map[string]*allocSink
}

// allocSink records allocations a client receives and holds the client's
// transport endpoint for submitting requests.
type allocSink struct {
	submitNode transport.Node
	mu         sync.Mutex
	allocs     []AllocationBody
}

func (s *allocSink) handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	if req.Type != MsgAllocation {
		return transport.Message{Type: "ok"}, nil
	}
	var body AllocationBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	s.mu.Lock()
	s.allocs = append(s.allocs, body)
	s.mu.Unlock()
	return transport.NewMessage(MsgAllocation+".ack", "", nil)
}

func (s *allocSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.allocs)
}

func (s *allocSink) total() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := 0.0
	for _, a := range s.allocs {
		for _, mb := range a.PerReplicaMB {
			sum += mb
		}
	}
	return sum
}

func newDonarFleet(t *testing.T, mappingNodes int, clientNames []string) *donarFleet {
	t.Helper()
	f := &donarFleet{net: transport.NewInProcNetwork(), clients: map[string]*allocSink{}}
	for m := 0; m < mappingNodes; m++ {
		node, err := NewMappingNode(f.net, nodeName(m))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		f.nodes = append(f.nodes, node)
	}
	for _, name := range clientNames {
		sink := &allocSink{}
		node, err := f.net.Listen(name, sink.handle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		sink.submitNode = node
		f.clients[name] = sink
	}
	return f
}

func nodeName(m int) string { return "mapping" + string(rune('1'+m)) }

func TestDonarRuntimeEndToEnd(t *testing.T) {
	clients := []string{"dc1", "dc2", "dc3", "dc4"}
	f := newDonarFleet(t, 3, clients)
	replicas := []ReplicaSpec{
		{Addr: "replicaA", BandwidthMBps: 100},
		{Addr: "replicaB", BandwidthMBps: 100},
	}
	lat := map[string]float64{"replicaA": 0.0004, "replicaB": 0.0009}
	ctx := context.Background()
	demand := map[string]float64{"dc1": 30, "dc2": 20, "dc3": 25, "dc4": 10}
	for i, name := range clients {
		sink := f.clients[name]
		if err := SubmitRequest(ctx, sink.submitNode, f.nodes[i%3].Addr(), demand[name], lat); err != nil {
			t.Fatal(err)
		}
	}
	peers := []string{f.nodes[1].Addr(), f.nodes[2].Addr()}
	report, err := f.nodes[0].RunEpoch(ctx, peers, replicas, 5)
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 4 {
		t.Fatalf("epoch saw %d requests, want 4", report.Requests)
	}
	// Every client got exactly one allocation totalling its demand.
	for name, sink := range f.clients {
		if sink.count() != 1 {
			t.Fatalf("client %s received %d allocations", name, sink.count())
		}
		if got := sink.total(); math.Abs(got-demand[name]) > 1e-9 {
			t.Fatalf("client %s allocated %g, want %g", name, got, demand[name])
		}
	}
	// Aggregate loads account for all demand, under capacity.
	total := 0.0
	for j, l := range report.Loads {
		if l > replicas[j].BandwidthMBps+1e-9 {
			t.Fatalf("replica %d over capacity: %g", j, l)
		}
		total += l
	}
	if math.Abs(total-85) > 1e-9 {
		t.Fatalf("total load %g, want 85", total)
	}
	// Low-latency replica carries more.
	if report.Loads[0] <= report.Loads[1] {
		t.Fatalf("latency preference missing: loads %v", report.Loads)
	}
	// Queues drained.
	for _, node := range f.nodes {
		if node.Pending() != 0 {
			t.Fatalf("node %s still has pending requests", node.Addr())
		}
	}
}

func TestDonarRuntimeEmptyEpoch(t *testing.T) {
	f := newDonarFleet(t, 2, nil)
	ctx := context.Background()
	if _, err := f.nodes[0].RunEpoch(ctx, []string{f.nodes[1].Addr()}, []ReplicaSpec{{Addr: "r", BandwidthMBps: 100}}, 3); err == nil {
		t.Fatal("empty epoch succeeded")
	}
}

// A request the epoch could not place is refused at admission, so it never
// fails the epoch that would have collected it alongside valid ones.
func TestDonarRuntimeRejectsBadRequests(t *testing.T) {
	f := newDonarFleet(t, 1, []string{"dc1"})
	ctx := context.Background()
	sink := f.clients["dc1"]
	lat := map[string]float64{"r": 0.0005}
	for _, tc := range []struct {
		name   string
		demand float64
		lat    map[string]float64
	}{
		{"negative demand", -1, lat},
		{"NaN demand", math.NaN(), lat},
		{"infinite demand", math.Inf(1), lat},
		{"NaN latency", 10, map[string]float64{"r": math.NaN()}},
	} {
		if err := SubmitRequest(ctx, sink.submitNode, f.nodes[0].Addr(), tc.demand, tc.lat); err == nil || !strings.Contains(err.Error(), "bad request") {
			t.Fatalf("%s: error %v, want the request refused", tc.name, err)
		}
	}
	msg, _ := transport.NewMessage("donar.bogus", "dc1", nil)
	if _, err := sink.submitNode.Send(ctx, f.nodes[0].Addr(), msg); err == nil {
		t.Fatal("bogus type accepted")
	}
	if n := f.nodes[0].Pending(); n != 0 {
		t.Fatalf("%d refused requests queued", n)
	}

	if err := SubmitRequest(ctx, sink.submitNode, f.nodes[0].Addr(), 10, lat); err != nil {
		t.Fatal(err)
	}
	report, err := f.nodes[0].RunEpoch(ctx, nil, []ReplicaSpec{{Addr: "r", BandwidthMBps: 100}}, 3)
	if err != nil {
		t.Fatalf("epoch over the valid request: %v", err)
	}
	if report.Requests != 1 || sink.count() != 1 || math.Abs(sink.total()-10) > 1e-9 {
		t.Fatalf("epoch placed %d requests; the client got %d allocations of %g MB in all", report.Requests, sink.count(), sink.total())
	}
}

func TestDonarRuntimeCapacityPressure(t *testing.T) {
	clients := []string{"dc1", "dc2"}
	f := newDonarFleet(t, 2, clients)
	replicas := []ReplicaSpec{
		{Addr: "near", BandwidthMBps: 50},
		{Addr: "far", BandwidthMBps: 100},
	}
	lat := map[string]float64{"near": 0.0002, "far": 0.0012}
	ctx := context.Background()
	for i, name := range clients {
		if err := SubmitRequest(ctx, f.clients[name].submitNode, f.nodes[i].Addr(), 60, lat); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.nodes[0].RunEpoch(ctx, []string{f.nodes[1].Addr()}, replicas, 8)
	if err != nil {
		t.Fatal(err)
	}
	if report.Loads[0] > 50+1e-9 {
		t.Fatalf("near replica over its 50 MB cap: %g", report.Loads[0])
	}
	if math.Abs(report.Loads[0]+report.Loads[1]-120) > 1e-9 {
		t.Fatalf("loads %v don't cover demand 120", report.Loads)
	}
}

func TestDonarRuntimeUnplaceable(t *testing.T) {
	f := newDonarFleet(t, 1, []string{"dc1"})
	ctx := context.Background()
	// Demand exceeds total capacity.
	lat := map[string]float64{"r": 0.0005}
	if err := SubmitRequest(ctx, f.clients["dc1"].submitNode, f.nodes[0].Addr(), 200, lat); err != nil {
		t.Fatal(err)
	}
	_, err := f.nodes[0].RunEpoch(ctx, nil, []ReplicaSpec{{Addr: "r", BandwidthMBps: 100}}, 3)
	if err == nil {
		t.Fatal("unplaceable demand succeeded")
	}
}

// RunEpoch refuses a local-solve reply whose shape does not fit the epoch,
// naming the node that sent it, instead of storing it: a short Loads used
// to panic the initiator where it summed the epoch's loads.
func TestRunEpochRefusesMisshapenReplies(t *testing.T) {
	replicas := []ReplicaSpec{{Addr: "replicaA", BandwidthMBps: 100}, {Addr: "replicaB", BandwidthMBps: 100}}
	one := []map[string]float64{{"replicaA": 10}}
	for _, tc := range []struct {
		name  string
		reply localSolveReply
		want  string // what the refusal names
	}{
		{"short loads", localSolveReply{Assignments: one, Loads: []float64{10}}, "load"},
		{"long loads", localSolveReply{Assignments: one, Loads: []float64{10, 0, 0}}, "load"},
		{"NaN load", localSolveReply{Assignments: one, Loads: []float64{math.NaN(), 0}}, "load"},
		{"infinite load", localSolveReply{Assignments: one, Loads: []float64{math.Inf(1), 0}}, "load"},
		{"negative load", localSolveReply{Assignments: one, Loads: []float64{10, -1}}, "load"},
		{"no placements", localSolveReply{Loads: []float64{10, 0}}, "placement"},
		{"extra placement", localSolveReply{Assignments: append(one, one...), Loads: []float64{10, 0}}, "placement"},
		{"NaN placement", localSolveReply{Assignments: []map[string]float64{{"replicaA": math.NaN()}}, Loads: []float64{10, 0}}, "placement"},
		{"infinite placement", localSolveReply{Assignments: []map[string]float64{{"replicaA": math.Inf(1)}}, Loads: []float64{10, 0}}, "placement"},
		{"zero placement", localSolveReply{Assignments: []map[string]float64{{"replicaA": 10, "replicaB": 0}}, Loads: []float64{10, 0}}, "placement"},
		{"placement outside the epoch", localSolveReply{Assignments: []map[string]float64{{"replicaC": 10}}, Loads: []float64{10, 0}}, "placement"},
		{"short placement", localSolveReply{Assignments: []map[string]float64{{"replicaA": 6}}, Loads: []float64{10, 0}}, "placement"},
		{"long placement", localSolveReply{Assignments: []map[string]float64{{"replicaA": 10, "replicaB": 5}}, Loads: []float64{10, 0}}, "placement"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDonarFleet(t, 1, nil)
			fake, err := f.net.Listen("fakepeer", func(_ context.Context, req transport.Message) (transport.Message, error) {
				switch req.Type {
				case MsgCollect:
					return transport.NewMessage(MsgCollect+".ack", "fakepeer", requests{{ClientAddr: "dc1", DemandMB: 10}})
				case MsgLocalSolve:
					return transport.NewMessage(MsgLocalSolve+".ack", "fakepeer", tc.reply)
				}
				return transport.NewMessage(req.Type+".ack", "fakepeer", nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fake.Close()
			_, err = f.nodes[0].RunEpoch(context.Background(), []string{"fakepeer"}, replicas, 2)
			if err == nil || !strings.Contains(err.Error(), "fakepeer") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunEpoch on a %s reply: error %v, want one naming fakepeer and the %s", tc.name, err, tc.want)
			}
		})
	}
}
