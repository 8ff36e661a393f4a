package donar

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"edr/internal/netsim"
	"edr/internal/transport"
)

// Live DONAR runtime: mapping-node servers over a message fabric,
// mirroring the deployment of Wendell et al. Clients submit requests to
// their assigned mapping node; an epoch (triggered on any node) runs the
// decomposition as real message exchanges — every node re-solves its
// clients' placement given the other nodes' gossiped per-replica
// aggregates, Gauss-Seidel style — and each node then delivers the
// allocations to its own clients. This is the system measured against the
// full EDR runtime in Fig 9.

// Message types of the DONAR wire protocol.
const (
	// MsgRequest is client → mapping node: submit a demand.
	MsgRequest = "donar.request"
	// MsgCollect is initiator → mapping node: snapshot pending requests.
	MsgCollect = "donar.collect"
	// MsgLocalSolve is initiator → mapping node: re-place your clients
	// given the other nodes' aggregate loads.
	MsgLocalSolve = "donar.localsolve"
	// MsgNotify is initiator → mapping node: deliver allocations to your
	// clients.
	MsgNotify = "donar.notify"
	// MsgAllocation is mapping node → client: the final split.
	MsgAllocation = "donar.allocation"
)

// ReplicaSpec describes one backend replica to the mapping layer. DONAR
// needs only capacity — it is energy-oblivious by design.
type ReplicaSpec struct {
	Addr          string
	BandwidthMBps float64
}

// requestBody is the MsgRequest payload.
type requestBody struct {
	ClientAddr string
	DemandMB   float64
	LatencySec map[string]float64
}

// check refuses a request the epoch could not place: a demand that is not
// positive and finite, or a latency that is not finite and non-negative.
func (b *requestBody) check() error {
	if b.ClientAddr == "" || !(b.DemandMB > 0) || math.IsInf(b.DemandMB, 1) {
		return fmt.Errorf("client %q demands %g MB", b.ClientAddr, b.DemandMB)
	}
	for rep, sec := range b.LatencySec {
		if !(sec >= 0) || math.IsInf(sec, 1) {
			return fmt.Errorf("latency %g s to %s", sec, rep)
		}
	}
	return nil
}

// requests is a node's pending requests: the MsgCollect reply.
type requests []requestBody

// localSolveBody carries the peers' aggregate loads per replica (column
// order of the epoch's replica list).
type localSolveBody struct {
	Epoch      int
	Replicas   []ReplicaSpec
	OtherLoads []float64
	Requests   requests
}

// localSolveReply returns the node's per-client placements and its own
// aggregate contribution.
type localSolveReply struct {
	// Assignments[i] maps replica address → MB for request i.
	Assignments []map[string]float64
	// Loads is this node's per-replica aggregate (column order).
	Loads []float64
}

// check refuses a reply that does not fit the epoch: one finite,
// non-negative load per replica, and per request sent one placement that
// splits its demand over the epoch's replicas in finite, positive shares.
func (r *localSolveReply) check(replicas []ReplicaSpec, sent requests) error {
	if len(r.Loads) != len(replicas) {
		return fmt.Errorf("%d loads for %d replicas", len(r.Loads), len(replicas))
	}
	for j, load := range r.Loads {
		if !(load >= 0) || math.IsInf(load, 1) {
			return fmt.Errorf("load %g on replica %d", load, j)
		}
	}
	if len(r.Assignments) != len(sent) {
		return fmt.Errorf("%d placements for %d requests", len(r.Assignments), len(sent))
	}
	for i, row := range r.Assignments {
		total := 0.0
		for addr, mb := range row {
			inEpoch := slices.ContainsFunc(replicas, func(rep ReplicaSpec) bool { return rep.Addr == addr })
			if !inEpoch || !(mb > 0) || math.IsInf(mb, 1) {
				return fmt.Errorf("placement %d puts %g MB on %q: not a positive, finite share of a replica of the epoch", i, mb, addr)
			}
			total += mb
		}
		if d := sent[i].DemandMB; !(math.Abs(total-d) <= 1e-9*math.Max(d, 1)) {
			return fmt.Errorf("placement %d places %g MB of a %g MB request", i, total, d)
		}
	}
	return nil
}

// notifyBody asks a node to push allocations to its clients.
type notifyBody struct {
	Epoch       int
	ClientAddrs []string
	Allocations []map[string]float64
}

// AllocationBody is what a client receives.
type AllocationBody struct {
	Epoch        int
	PerReplicaMB map[string]float64
}

// MappingNode is one DONAR coordinator.
type MappingNode struct {
	node  transport.Node
	kappa float64

	mu      sync.Mutex
	pending requests
}

// NewMappingNode binds a mapping node on the fabric.
func NewMappingNode(network transport.Network, addr string) (*MappingNode, error) {
	m := &MappingNode{kappa: 1e-4}
	node, err := network.Listen(addr, m.handle)
	if err != nil {
		return nil, err
	}
	m.node = node
	return m, nil
}

// Addr returns the node's fabric address.
func (m *MappingNode) Addr() string { return m.node.Name() }

// Close releases the endpoint.
func (m *MappingNode) Close() error { return m.node.Close() }

// Pending reports the queue depth.
func (m *MappingNode) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

func (m *MappingNode) handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	switch req.Type {
	case MsgRequest:
		var body requestBody
		if err := req.DecodeBody(&body); err != nil {
			return transport.Message{}, err
		}
		if err := body.check(); err != nil {
			return transport.Message{}, fmt.Errorf("donar: bad request from %s: %w", req.From, err)
		}
		m.mu.Lock()
		m.pending = append(m.pending, body)
		m.mu.Unlock()
		return transport.NewMessage(MsgRequest+".ack", m.Addr(), nil)
	case MsgCollect:
		m.mu.Lock()
		out := m.pending
		m.pending = nil
		m.mu.Unlock()
		return transport.NewMessage(MsgCollect+".ack", m.Addr(), out)
	case MsgLocalSolve:
		var body localSolveBody
		if err := req.DecodeBody(&body); err != nil {
			return transport.Message{}, err
		}
		reply, err := m.localSolve(&body)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgLocalSolve+".ack", m.Addr(), reply)
	case MsgNotify:
		var body notifyBody
		if err := req.DecodeBody(&body); err != nil {
			return transport.Message{}, err
		}
		for i, addr := range body.ClientAddrs {
			alloc := AllocationBody{Epoch: body.Epoch, PerReplicaMB: body.Allocations[i]}
			msg, err := transport.NewMessage(MsgAllocation, m.Addr(), alloc)
			if err != nil {
				return transport.Message{}, err
			}
			// Client failures don't fail the epoch.
			_, _ = m.node.Send(ctx, addr, msg)
		}
		return transport.NewMessage(MsgNotify+".ack", m.Addr(), nil)
	default:
		return transport.Message{}, fmt.Errorf("donar: mapping node %s: unknown message %q", m.Addr(), req.Type)
	}
}

// localSolve re-places this node's requests greedily at the lowest
// marginal latency + load-penalty cost — the same local rule as the
// in-process Solver, given the gossiped aggregate state.
func (m *MappingNode) localSolve(body *localSolveBody) (*localSolveReply, error) {
	n := len(body.Replicas)
	if len(body.OtherLoads) != n {
		return nil, fmt.Errorf("donar: %d aggregates for %d replicas", len(body.OtherLoads), n)
	}
	load := make([]float64, n)
	copy(load, body.OtherLoads)
	reply := &localSolveReply{
		Assignments: make([]map[string]float64, len(body.Requests)),
		Loads:       make([]float64, n),
	}
	const chunks = 20
	for i, req := range body.Requests {
		assignment := make(map[string]float64, n)
		remaining := req.DemandMB
		chunk := remaining / chunks
		for remaining > 1e-12 {
			take := chunk
			if take > remaining {
				take = remaining
			}
			best := -1
			bestCost := 0.0
			for j, rep := range body.Replicas {
				lat, ok := req.LatencySec[rep.Addr]
				if !ok || lat > netsim.DefaultMaxLatency.Seconds() {
					continue
				}
				if rep.BandwidthMBps-load[j] < take-1e-12 {
					continue
				}
				cost := lat + 2*m.kappa*load[j]/rep.BandwidthMBps
				if best == -1 || cost < bestCost {
					best, bestCost = j, cost
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("donar: request from %s has %g MB unplaceable", req.ClientAddr, remaining)
			}
			assignment[body.Replicas[best].Addr] += take
			load[best] += take
			reply.Loads[best] += take
			remaining -= take
		}
		reply.Assignments[i] = assignment
	}
	return reply, nil
}

// EpochReport summarizes one completed DONAR epoch.
type EpochReport struct {
	Epoch    int
	Rounds   int
	Requests int
	// Loads is the final per-replica aggregate (column order of Replicas).
	Replicas []ReplicaSpec
	Loads    []float64
}

// RunEpoch drives one decomposition epoch from this node across all
// mapping nodes: collect pending requests everywhere, run `rounds`
// Gauss-Seidel passes of local re-solves with aggregate gossip, then have
// every node notify its clients.
func (m *MappingNode) RunEpoch(ctx context.Context, peers []string, replicas []ReplicaSpec, rounds int) (*EpochReport, error) {
	if rounds <= 0 {
		rounds = 10
	}
	all := append([]string{m.Addr()}, peers...)
	n := len(replicas)

	// 1. Collect each node's pending requests.
	perNode := make([]requests, len(all))
	total := 0
	for i, addr := range all {
		msg, err := transport.NewMessage(MsgCollect, m.Addr(), nil)
		if err != nil {
			return nil, err
		}
		resp, err := m.node.Send(ctx, addr, msg)
		if err != nil {
			return nil, fmt.Errorf("donar: collect from %s: %w", addr, err)
		}
		if err := resp.DecodeBody(&perNode[i]); err != nil {
			return nil, err
		}
		total += len(perNode[i])
	}
	if total == 0 {
		return nil, fmt.Errorf("donar: no pending requests")
	}

	// 2. Gauss-Seidel rounds: each node re-solves given the others' loads.
	nodeLoads := make([][]float64, len(all))
	nodeAssignments := make([][]map[string]float64, len(all))
	for i := range nodeLoads {
		nodeLoads[i] = make([]float64, n)
	}
	epoch := 1
	for round := 0; round < rounds; round++ {
		for i, addr := range all {
			if len(perNode[i]) == 0 {
				continue
			}
			others := make([]float64, n)
			for k := range all {
				if k == i {
					continue
				}
				for j := 0; j < n; j++ {
					others[j] += nodeLoads[k][j]
				}
			}
			body := localSolveBody{Epoch: epoch, Replicas: replicas, OtherLoads: others, Requests: perNode[i]}
			msg, err := transport.NewMessage(MsgLocalSolve, m.Addr(), body)
			if err != nil {
				return nil, err
			}
			resp, err := m.node.Send(ctx, addr, msg)
			if err != nil {
				return nil, fmt.Errorf("donar: local solve on %s: %w", addr, err)
			}
			var reply localSolveReply
			if err := resp.DecodeBody(&reply); err != nil {
				return nil, err
			}
			if err := reply.check(replicas, perNode[i]); err != nil {
				return nil, fmt.Errorf("donar: local solve on %s: %w", addr, err)
			}
			nodeLoads[i] = reply.Loads
			nodeAssignments[i] = reply.Assignments
		}
	}

	// 3. Deliver allocations through each owning node.
	for i, addr := range all {
		if len(perNode[i]) == 0 {
			continue
		}
		clients := make([]string, len(perNode[i]))
		for k, req := range perNode[i] {
			clients[k] = req.ClientAddr
		}
		body := notifyBody{Epoch: epoch, ClientAddrs: clients, Allocations: nodeAssignments[i]}
		msg, err := transport.NewMessage(MsgNotify, m.Addr(), body)
		if err != nil {
			return nil, err
		}
		if _, err := m.node.Send(ctx, addr, msg); err != nil {
			return nil, fmt.Errorf("donar: notify via %s: %w", addr, err)
		}
	}

	report := &EpochReport{Epoch: epoch, Rounds: rounds, Requests: total, Replicas: replicas, Loads: make([]float64, n)}
	for i := range all {
		for j := 0; j < n; j++ {
			report.Loads[j] += nodeLoads[i][j]
		}
	}
	return report, nil
}

// SubmitRequest is the client-side helper: send a demand to a mapping
// node from the given client endpoint.
func SubmitRequest(ctx context.Context, client transport.Node, mappingNode string, demandMB float64, latencies map[string]float64) error {
	body := requestBody{ClientAddr: client.Name(), DemandMB: demandMB, LatencySec: latencies}
	msg, err := transport.NewMessage(MsgRequest, client.Name(), body)
	if err != nil {
		return err
	}
	if _, err := client.Send(ctx, mappingNode, msg); err != nil {
		return fmt.Errorf("donar: submit to %s: %w", mappingNode, err)
	}
	return nil
}
