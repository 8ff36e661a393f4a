package experiments

import (
	"context"
	"fmt"
	"time"

	"edr/internal/core"
	"edr/internal/donar"
	"edr/internal/model"
	"edr/internal/sim"
	"edr/internal/telemetry"
	"edr/internal/trace"
	"edr/internal/transport"
)

// Fig9 regenerates the system performance comparison: response time as the
// request count scales from 24 to 192 (step 24), EDR (3 replicas, LDDM)
// versus DONAR (3 mapping nodes). Both systems run LIVE over the same
// in-process fabric with identical injected link delays — EDR as the full
// core runtime (submission, round start, distributed LDDM iterations,
// assignment installation, allocation delivery),
// DONAR as its real mapping-node runtime (internal/donar: submission,
// Gauss-Seidel decomposition epoch with aggregate gossip, allocation
// delivery). Expected shape: response time grows close to linearly with
// the request count and the two systems stay within a small factor of
// each other, as in the paper ("the performance of EDR is very close to
// DONAR"); absolute values land in the paper's sub-300 ms range.
func Fig9(seed uint64) (*Result, error) {
	r := sim.NewRand(seed)
	counts := []int{24, 48, 72, 96, 120, 144, 168, 192}
	prices := []float64{3, 7, 12}

	tab := trace.NewTable("fig9-response-scaling", "request_count", "edr_ms", "donar_ms")
	var edrSeries, donarSeries []float64
	for _, count := range counts {
		edrMS, err := measureEDR(r.Split(), count, prices)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9 EDR at %d requests: %w", count, err)
		}
		donarMS, _, err := measureDONAR(r.Split(), count, prices, 3)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9 DONAR at %d requests: %w", count, err)
		}
		if err := tab.AddRow(count, edrMS, donarMS); err != nil {
			return nil, err
		}
		edrSeries = append(edrSeries, edrMS)
		donarSeries = append(donarSeries, donarMS)
	}

	// The paper's closing argument for Fig 9: DONAR's communication is
	// O(|C|·|N|·|M|) versus EDR's O(|C|·|N|), so "with the increasing
	// system size |M|, EDR will eventually outperform DONAR". Sweep the
	// mapping-node count at a fixed request count to show the trend, both
	// in wall-clock time and in the epoch's mapping-plane messages counted
	// on the fabric (the deterministic form of the argument).
	mTab := trace.NewTable("fig9b-mapping-node-scaling", "mapping_nodes", "donar_ms", "donar_mapping_msgs", "edr_ms_constant")
	edrAt96, err := measureEDR(r.Split(), 96, prices)
	if err != nil {
		return nil, err
	}
	var donarAtM, msgsAtM []float64
	for _, m := range []int{3, 6, 9, 12} {
		ms, msgs, err := measureDONAR(r.Split(), 96, prices, m)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9 DONAR at %d mapping nodes: %w", m, err)
		}
		if err := mTab.AddRow(m, ms, msgs, edrAt96); err != nil {
			return nil, err
		}
		donarAtM = append(donarAtM, ms)
		msgsAtM = append(msgsAtM, float64(msgs))
	}

	res := &Result{
		ID:     "fig9",
		Tables: []*trace.Table{tab, mTab},
		Notes: []string{
			"EDR: 3 replicas running distributed LDDM over the message fabric (live latency tuning: 12 iterations per round); DONAR: 3 mapping nodes, latency-cost decomposition with full per-round mapping-plane traffic.",
			"Response time covers the full batch: submission through allocation delivery.",
			"Expected shape: near-linear growth with request count for both systems (paper Fig 9); fig9b shows DONAR's cost growing with |M| while EDR's is independent of it — the paper's O(|C|·|N|·|M|) vs O(|C|·|N|) argument.",
		},
	}
	res.addSummary("edr_ms_at_24", edrSeries[0])
	res.addSummary("edr_ms_at_192", edrSeries[len(edrSeries)-1])
	res.addSummary("donar_ms_at_24", donarSeries[0])
	res.addSummary("donar_ms_at_192", donarSeries[len(donarSeries)-1])
	res.addSummary("edr_growth_factor", edrSeries[len(edrSeries)-1]/edrSeries[0])
	res.addSummary("donar_growth_factor", donarSeries[len(donarSeries)-1]/donarSeries[0])
	res.addSummary("edr_vs_donar_at_192", edrSeries[len(edrSeries)-1]/donarSeries[len(donarSeries)-1])
	res.addSummary("donar_m_growth_factor", donarAtM[len(donarAtM)-1]/donarAtM[0])
	res.addSummary("donar_m_message_growth_factor", msgsAtM[len(msgsAtM)-1]/msgsAtM[0])
	return res, nil
}

// measureEDR times one full EDR round over the in-process fabric with
// `count` requests from `count` clients.
// linkDelay is the one-way per-message fabric delay injected into both
// systems' measurements: a fast-LAN 20µs hop, so message counts — not Go
// scheduling noise — dominate the comparison, as they would on a network.
const linkDelay = 20 * time.Microsecond

func measureEDR(r *sim.Rand, count int, prices []float64) (float64, error) {
	net := transport.NewInProcNetwork()
	net.Delay = func(from, to string) time.Duration { return linkDelay }
	names := make([]string, len(prices))
	for j := range prices {
		names[j] = fmt.Sprintf("replica%d", j+1)
	}
	var replicas []*core.ReplicaServer
	for j, price := range prices {
		cfg := core.ReplicaConfig{
			Replica:   model.NewReplica(names[j], price),
			Algorithm: core.LDDM,
			// Live rounds favor latency: a short iteration budget with a
			// loose stop; the final assignment is feasibility-repaired
			// regardless, trading a few percent of optimality for
			// paper-scale response times.
			MaxIters: 12,
			Tol:      0.2,
		}
		rs, err := core.NewReplicaServer(net, names[j], names, cfg)
		if err != nil {
			return 0, err
		}
		defer rs.Close()
		replicas = append(replicas, rs)
	}
	latencies := make(map[string]float64, len(names))
	for _, n := range names {
		latencies[n] = 0.0005
	}
	ctx := context.Background()
	var clients []*core.Client
	for i := 0; i < count; i++ {
		cl, err := core.NewClient(net, fmt.Sprintf("client%d", i+1))
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		clients = append(clients, cl)
	}

	begin := time.Now()
	for _, cl := range clients {
		// DFS-sized requests, kept well inside aggregate capacity.
		if err := cl.Submit(ctx, replicas[0].Addr(), 1.0, latencies); err != nil {
			return 0, err
		}
	}
	if _, err := replicas[0].RunRound(ctx); err != nil {
		return 0, err
	}
	return float64(time.Since(begin)) / float64(time.Millisecond), nil
}

// measureDONAR times the live DONAR runtime (internal/donar mapping-node
// servers) on an equivalent batch over the same fabric: submission,
// decomposition epoch with per-node local solves and aggregate gossip,
// and allocation delivery. It also returns the epoch's mapping-plane
// messages — the collect, local-solve and notify sends to mapping nodes —
// as counted on the fabric.
func measureDONAR(r *sim.Rand, count int, prices []float64, mappingNodes int) (float64, int64, error) {
	inproc := transport.NewInProcNetwork()
	inproc.Delay = func(from, to string) time.Duration { return linkDelay }
	reg := telemetry.NewRegistry()
	net := transport.NewInstrumented(inproc, reg, nil)

	nodes := make([]*donar.MappingNode, mappingNodes)
	for m := 0; m < mappingNodes; m++ {
		node, err := donar.NewMappingNode(net, fmt.Sprintf("mapping%d", m+1))
		if err != nil {
			return 0, 0, err
		}
		defer node.Close()
		nodes[m] = node
	}
	// Clients: allocation sinks with their own endpoints.
	sink := func(ctx context.Context, req transport.Message) (transport.Message, error) {
		return transport.Message{Type: req.Type + ".ack"}, nil
	}
	clients := make([]transport.Node, count)
	for i := 0; i < count; i++ {
		node, err := net.Listen(fmt.Sprintf("dclient%d", i+1), sink)
		if err != nil {
			return 0, 0, err
		}
		defer node.Close()
		clients[i] = node
	}
	// Replica fleet as capacity specs (DONAR is energy-oblivious: prices
	// exist but never reach it).
	specs := make([]donar.ReplicaSpec, len(prices))
	latencies := make(map[string]float64, len(prices))
	for j := range prices {
		addr := fmt.Sprintf("replica%d", j+1)
		specs[j] = donar.ReplicaSpec{Addr: addr, BandwidthMBps: 100}
		latencies[addr] = 0.0005
	}

	ctx := context.Background()
	begin := time.Now()
	for i, cl := range clients {
		if err := donar.SubmitRequest(ctx, cl, nodes[i%mappingNodes].Addr(), 1.0, latencies); err != nil {
			return 0, 0, err
		}
	}
	peers := make([]string, 0, mappingNodes-1)
	for m := 1; m < mappingNodes; m++ {
		peers = append(peers, nodes[m].Addr())
	}
	if _, err := nodes[0].RunEpoch(ctx, peers, specs, 10); err != nil {
		return 0, 0, err
	}
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	var msgs int64
	for _, node := range nodes {
		for _, verb := range []string{donar.MsgCollect, donar.MsgLocalSolve, donar.MsgNotify} {
			msgs += reg.Counter("edr_transport_messages_total", "", telemetry.Labels{"peer": node.Addr(), "verb": verb}).Value()
		}
	}
	return ms, msgs, nil
}
