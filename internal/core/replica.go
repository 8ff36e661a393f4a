package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"edr/internal/cohort"
	"edr/internal/engine"
	"edr/internal/membership"
	"edr/internal/metrics"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/ring"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// ReplicaServer is one EDR replica: it listens for client requests
// (ClientListener role), exchanges solution state with peer replicas
// (ReplicaListener role), serves downloads (FileDownload role), initiates
// scheduling rounds over its pending requests, and participates in the
// ring fault-tolerance protocol.
type ReplicaServer struct {
	cfg    ReplicaConfig
	alg    *engine.Registration // the registration of cfg.Algorithm
	node   transport.Node
	ring   *ring.Ring
	mon    *ring.Monitor
	member *membership.Manager

	mu         sync.Mutex
	pending    map[string]*RequestBody // keyed by client address, demand aggregated
	spare      map[string]*RequestBody // the queue the last round drained, emptied for reuse
	rounds     map[int]*roundState     // participant-side state, keyed by round id
	roundOrder []int                   // ids of rounds, oldest first (see roundStatesKept)
	roundSeq   int
	drains     int                    // how many times a round drained pending
	latencies  *latencyTable          // the latency lists clients resubmit by version
	lastGood   *lastGoodRound         // fallback assignment for degraded rounds
	lastReport *RoundReport           // most recent completed round (admin /status)
	infoCache  map[string]ReplicaInfo // model parameters of every replica ever seen in a round
	pool       *opt.Pool              // recycles initiator-side round scratch
	registry   *cohort.Registry       // stable cross-round cohort identity (initiator side)
	// startsSinceInstall counts the round.start waves this initiator sent
	// since it last committed an install: once it reaches roundStatesKept
	// the members may have pruned the delta-install base.
	startsSinceInstall atomic.Int32

	// Stats are exported runtime counters.
	Stats ReplicaStats
}

// ReplicaStats aggregates a replica's runtime activity.
type ReplicaStats struct {
	RequestsReceived  metrics.Counter
	RoundsInitiated   metrics.Counter
	RoundsRestarted   metrics.Counter
	RoundsDegraded    metrics.Counter // rounds served from the stale fallback
	RoundsIncremental metrics.Counter // rounds solved over the dirty subset only
	RoundsEscalated   metrics.Counter // incremental attempts the gate sent to a full solve
	DownloadsServed   metrics.Counter
	MBServed          metrics.Counter // whole MB, rounded down per download
	CoordMessages     metrics.Counter // coordination messages this node sent
	SendRetried       metrics.Counter // coordination RPC retry attempts

	// SubsolveUnconverged counts the escalations caused by an incremental
	// sub-solve reaching its iteration bound without its gap certificate.
	SubsolveUnconverged metrics.Counter
}

// lastGoodRound caches the initiator's view of its latest successful
// round: the participating replicas' models and the final assignment
// (rows follow clientAddrs, columns follow infos). Degraded rounds
// renormalize it over whichever replicas are still reachable.
type lastGoodRound struct {
	// round is the committed round id. Clean incremental commits advance
	// it too (they commit a round without installing anything), so it is
	// the watermark MsgAllocationPull callers compare against.
	round       int
	infos       []ReplicaInfo
	clientAddrs []string
	assignment  [][]float64
	// mus holds the round's final per-client dual values, aligned with
	// clientAddrs, when the algorithm reported them (engine.DualReporter);
	// the next warm start seeds the dual from here.
	mus []float64
	// prob is the full per-client problem the assignment solved
	// (rows follow clientAddrs, columns follow infos); the incremental
	// path diffs the next round against it.
	prob *opt.Problem
	// installed is the assignment actually fanned out to replica round
	// state, and installedRound the round id it was installed under.
	// Usually identical to assignment, but a clean incremental commit
	// rescales rows without re-installing anything, so the
	// two can drift apart; the delta install diffs against installed —
	// what replicas really hold — never against assignment.
	installed      [][]float64
	installedRound int
	// kktGap is opt.KKTGap(prob, assignment) when gapKnown: an incremental
	// commit records the gate's, which measured the same matrix on the
	// same problem. Full and clean commits leave it unknown, and the next
	// plan computes it.
	kktGap   float64
	gapKnown bool
}

// roundStatesKept bounds the participant-side round states a replica
// holds: round.start evicts the oldest beyond it. It counts states, not
// round-id distance — clean commits advance the initiator's round id
// without creating state, and the base of a delta install must survive any
// run of them.
const roundStatesKept = 8

// roundState is the participant-side view of one round: the engine's
// ServerRound (problem, column, lazily-built per-algorithm state) plus the
// installed serving plan.
type roundState struct {
	eng *engine.ServerRound

	// plan is the installed serving plan: the MB to serve each client with
	// a positive share, in strictly ascending client order. Nil until the
	// round's replica.assign arrives.
	plan []ClientMB
}

// NewReplicaServer binds a replica server on the given network address.
// members must include this replica's own address; it seeds the ring.
func NewReplicaServer(network transport.Network, addr string, members []string, cfg ReplicaConfig) (*ReplicaServer, error) {
	if err := cfg.Replica.Validate(); err != nil {
		return nil, err
	}
	r := &ReplicaServer{
		cfg:       cfg.withDefaults(),
		pending:   make(map[string]*RequestBody),
		rounds:    make(map[int]*roundState),
		latencies: newLatencyTable(),
		infoCache: make(map[string]ReplicaInfo),
		pool:      &opt.Pool{},
		registry:  cohort.NewRegistry(),
	}
	var ok bool
	if r.alg, ok = engine.Lookup(string(r.cfg.Algorithm)); !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q", r.cfg.Algorithm)
	}
	node, err := network.Listen(addr, r.handle)
	if err != nil {
		return nil, err
	}
	r.node = node
	all := append([]string{}, members...)
	all = append(all, node.Name())
	r.ring = ring.New(all)
	r.ring.Bus = r.cfg.Telemetry
	r.member = membership.NewManager(node.Name(), r.ring, node, r.cfg.Telemetry)
	r.member.Timeout = r.cfg.RPCTimeout
	r.mon = &ring.Monitor{
		Self:    node.Name(),
		Ring:    r.ring,
		Node:    node,
		Bus:     r.cfg.Telemetry,
		Drained: r.member.IsDrained,
	}
	return r, nil
}

// Addr returns the replica's transport address.
func (r *ReplicaServer) Addr() string { return r.node.Name() }

// Ring returns the replica's membership view.
func (r *ReplicaServer) Ring() *ring.Ring { return r.ring }

// Monitor returns the ring heartbeat monitor so owners can Start/Stop it
// or drive Beat manually in tests.
func (r *ReplicaServer) Monitor() *ring.Monitor { return r.mon }

// Membership returns the replica's epoch-based membership manager, through
// which owners propose joins, drains, and removals.
func (r *ReplicaServer) Membership() *membership.Manager { return r.member }

// activeMembers is the roster a new round runs over: the live ring minus
// drained members. Drained replicas keep heartbeating and serving their
// installed plans but take no new load.
func (r *ReplicaServer) activeMembers() []string {
	members := r.ring.Members()
	out := make([]string, 0, len(members))
	for _, m := range members {
		if !r.member.IsDrained(m) {
			out = append(out, m)
		}
	}
	return out
}

// AutoScale feeds the latest completed round into the energy-aware
// elasticity policy and applies its verdict through the membership layer:
// PowerDown drains the priciest active replica, PowerUp undrains the
// cheapest drained one. It returns the policy's decision and whether an
// epoch change was actually proposed (a Hold, a missing report, or an
// inapplicable target proposes nothing). Call it once per scheduling
// window — the policy's hysteresis counters assume regular samples.
func (r *ReplicaServer) AutoScale(ctx context.Context, p *membership.Policy) (membership.Decision, bool, error) {
	r.mu.Lock()
	report := r.lastReport
	cache := make(map[string]ReplicaInfo, len(r.infoCache))
	for addr, info := range r.infoCache {
		cache[addr] = info
	}
	r.mu.Unlock()
	if report == nil {
		return membership.Decision{}, false, nil
	}
	load := 0.0
	for _, row := range report.Assignment {
		for _, v := range row {
			load += v
		}
	}
	cur := r.member.Current()
	sample := membership.Sample{
		LoadMB:     load,
		CapacityMB: make(map[string]float64, len(cache)),
		Prices:     make(map[string]float64, len(cache)),
		Active:     r.member.Active(),
		Drained:    append([]string{}, cur.Drained...),
	}
	for addr, info := range cache {
		sample.CapacityMB[addr] = info.Bandwidth
		sample.Prices[addr] = info.Price
	}
	d := p.Evaluate(sample)
	switch d.Action {
	case membership.PowerDown:
		_, err := r.member.ProposeChange(ctx, membership.OpDrain, d.Target)
		return d, true, err
	case membership.PowerUp:
		_, err := r.member.ProposeChange(ctx, membership.OpUndrain, d.Target)
		return d, true, err
	}
	return d, false, nil
}

// Close shuts the replica down.
func (r *ReplicaServer) Close() error {
	r.mon.Stop()
	return r.node.Close()
}

// PendingRequests reports the current queue depth.
func (r *ReplicaServer) PendingRequests() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// RegisterMetrics exposes the replica's own gauges on an admin registry:
// edr_pending_requests, the queue depth the next round drains;
// edr_latency_versions, how many clients' latency lists it holds for
// demand-only resubmissions; and the two stores that grow with the rounds
// and are bounded only by their pruning — edr_round_states, the
// participant round states held (at most roundStatesKept), and
// edr_cohort_keys, the cohort masks the initiator's registry interned
// (pruned only on a membership change).
func (r *ReplicaServer) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("edr_pending_requests",
		"Client requests queued for this replica's next round.", nil,
		func() float64 { return float64(r.PendingRequests()) })
	locked := func(n func() int) func() float64 {
		return func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(n())
		}
	}
	reg.Gauge("edr_latency_versions",
		"Client latency lists this replica holds for demand-only resubmissions.", nil,
		locked(func() int { return r.latencies.len() }))
	reg.Gauge("edr_round_states",
		"Participant round states this replica holds.", nil,
		locked(func() int { return len(r.rounds) }))
	reg.Gauge("edr_cohort_keys",
		"Cohort keys interned by this replica's cohort registry.", nil,
		func() float64 { return float64(r.registry.Keys()) })
}

// LastReport returns the most recent completed round this replica
// initiated (nil before the first), degraded rounds included.
func (r *ReplicaServer) LastReport() *RoundReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastReport
}

// Status is the admin plane's /status document: a live snapshot of
// membership, suspicion, queue depth, cumulative counters, and the last
// completed round (including its assignment matrix).
type Status struct {
	Addr              string       `json:"addr"`
	Algorithm         string       `json:"algorithm"`
	Ring              []string     `json:"ring"`
	Epoch             int          `json:"epoch"`
	Drained           []string     `json:"drained,omitempty"`
	Suspect           string       `json:"suspect,omitempty"`
	SuspectMisses     int          `json:"suspect_misses,omitempty"`
	Pending           int          `json:"pending"`
	RequestsReceived  int64        `json:"requests_received"`
	RoundsInitiated   int64        `json:"rounds_initiated"`
	RoundsRestarted   int64        `json:"rounds_restarted"`
	RoundsDegraded    int64        `json:"rounds_degraded"`
	RoundsIncremental int64        `json:"rounds_incremental,omitempty"`
	RoundsEscalated   int64        `json:"rounds_escalated,omitempty"`
	DownloadsServed   int64        `json:"downloads_served"`
	SendRetried       int64        `json:"send_retried"`
	Degraded          bool         `json:"degraded"` // last round fell back
	LastRound         *RoundReport `json:"last_round,omitempty"`

	// TCP is the process's connection-pool counters (all zero on the
	// in-process fabric).
	TCP transport.TCPStats `json:"tcp"`

	// SubsolveUnconverged is the share of RoundsEscalated caused by an
	// uncertified incremental sub-solve (the rest failed the gate).
	SubsolveUnconverged int64 `json:"subsolve_unconverged,omitempty"`
}

// Status snapshots the replica's runtime state for the admin plane.
func (r *ReplicaServer) Status() Status {
	suspect, misses := r.mon.Suspicion()
	epoch := r.member.Current()
	s := Status{
		Addr:              r.Addr(),
		Algorithm:         r.cfg.Algorithm.String(),
		Ring:              r.ring.Members(),
		Epoch:             epoch.Seq,
		Drained:           epoch.Drained,
		Suspect:           suspect,
		SuspectMisses:     misses,
		Pending:           r.PendingRequests(),
		RequestsReceived:  r.Stats.RequestsReceived.Value(),
		RoundsInitiated:   r.Stats.RoundsInitiated.Value(),
		RoundsRestarted:   r.Stats.RoundsRestarted.Value(),
		RoundsDegraded:    r.Stats.RoundsDegraded.Value(),
		RoundsIncremental: r.Stats.RoundsIncremental.Value(),
		RoundsEscalated:   r.Stats.RoundsEscalated.Value(),
		DownloadsServed:   r.Stats.DownloadsServed.Value(),
		SendRetried:       r.Stats.SendRetried.Value(),
		TCP:               transport.TCPPoolStats(),

		SubsolveUnconverged: r.Stats.SubsolveUnconverged.Value(),
	}
	s.LastRound = r.LastReport()
	if s.LastRound != nil {
		s.Degraded = s.LastRound.Degraded
	}
	return s
}

// handle routes every incoming message. Runtime verbs have their own
// cases; any algorithm-owned iteration verb resolves through the engine
// registry to the registered server half, so a new algorithm needs no
// edit here.
func (r *ReplicaServer) handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	switch req.Type {
	case MsgClientRequest:
		return r.handleClientRequest(req)
	case MsgReplicaInfo:
		return r.handleReplicaInfo(req)
	case MsgRoundStart:
		return r.handleRoundStart(req)
	case MsgAssign:
		return r.handleAssign(req)
	case MsgAllocationPull:
		return r.handleAllocationPull(req)
	case MsgDownload:
		return r.handleDownload(req)
	case ring.HeartbeatType:
		return r.mon.HandleHeartbeat(req)
	case ring.DeathType:
		return r.mon.HandleDeath(req)
	case membership.EpochType:
		return r.member.HandleEpoch(req)
	case membership.ProposeType:
		return r.member.HandlePropose(ctx, req)
	default:
		if reg, ok := engine.ServerFor(req.Type); ok && reg.Server != nil {
			return r.handleEngine(ctx, reg, req)
		}
		return transport.Message{}, fmt.Errorf("core: replica %s: unknown message type %q", r.Addr(), req.Type)
	}
}

// handleEngine dispatches an algorithm verb to its registered server
// half. Every algorithm body leads with the round id (transport.BinaryRound),
// which locates the participant state the server half operates on. A body
// that is not the verb's binary one is refused naming the verb: by the
// round lookup, or by the server half's decoder (transport.DecodeBody).
func (r *ReplicaServer) handleEngine(ctx context.Context, reg *engine.Registration, req transport.Message) (transport.Message, error) {
	round, err := transport.BinaryRound(req)
	if err != nil {
		return transport.Message{}, err
	}
	st, err := r.lookupRound(round)
	if err != nil {
		return transport.Message{}, fmt.Errorf("core: %s: %w", req.Type, err)
	}
	body, err := reg.Server.Handle(ctx, req.Type, msgReply{req}, st.eng)
	if err != nil {
		return transport.Message{}, err
	}
	return r.newMessage(req.Type+".ack", body)
}

// newMessage builds a request or reply from this node: binary for every
// body that has a binary codec, JSON for the rest.
func (r *ReplicaServer) newMessage(msgType string, v any) (transport.Message, error) {
	return transport.NewMessage(msgType, r.Addr(), v)
}

// handleClientRequest queues a client's demand (ClientListener role).
// Repeat submissions from the same client before a round runs are
// aggregated into one row, as one scheduling window would see them; a
// repeat whose sum would not be finite is refused, leaving the queued row
// as it was — an infinite row would fail every round, and every round puts
// all its drained requests back. A list sent in full is stored and acked
// with a fresh version; a demand-only resubmission is queued with the list
// its version names, so what follows sees the request the client would
// have sent in full, or, when the version is not held, queues nothing and
// acks version 0.
func (r *ReplicaServer) handleClientRequest(req transport.Message) (transport.Message, error) {
	var body RequestBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	if err := checkRequest(&body); err != nil {
		return transport.Message{}, fmt.Errorf("core: bad request from %s: %w", req.From, err)
	}
	r.mu.Lock()
	ack := RequestAck{Round: r.roundSeq, LatencyVersion: body.LatencyVersion}
	if body.LatencyVersion != 0 {
		lat, ok := r.latencies.resolve(body.ClientAddr, body.LatencyVersion, r.drains)
		if !ok {
			r.mu.Unlock()
			return r.newMessage(MsgClientRequest+".ack", RequestAck{Round: ack.Round})
		}
		body.LatencySec, body.LatencyVersion = lat, 0
	}
	queued := &body
	if existing, ok := r.pending[body.ClientAddr]; ok {
		if sum := existing.DemandMB + body.DemandMB; math.IsInf(sum, 1) {
			r.mu.Unlock()
			return transport.Message{}, fmt.Errorf("core: bad request from %s: client %s queued demand %g MB plus %g MB is not finite", req.From, body.ClientAddr, existing.DemandMB, body.DemandMB)
		}
		existing.DemandMB += body.DemandMB
		existing.LatencySec = mergeLatencies(existing.LatencySec, body.LatencySec)
		queued = existing
	} else {
		r.pending[body.ClientAddr] = &body
	}
	if ack.LatencyVersion == 0 {
		ack.LatencyVersion = r.latencies.store(body.ClientAddr, body.LatencySec, r.drains)
	}
	ack.QueuedMB = queued.DemandMB
	r.mu.Unlock()
	r.Stats.RequestsReceived.Inc(1)
	return r.newMessage(MsgClientRequest+".ack", ack)
}

// checkRequest refuses a submission no client can mean: no address, a
// demand that is not positive and finite, or a latency that is not finite
// and non-negative.
func checkRequest(body *RequestBody) error {
	if body.ClientAddr == "" {
		return fmt.Errorf("no client address")
	}
	if !(body.DemandMB > 0) || math.IsInf(body.DemandMB, 1) {
		return fmt.Errorf("client %s demand %g MB is not positive and finite", body.ClientAddr, body.DemandMB)
	}
	for _, l := range body.LatencySec {
		if !(l.Sec >= 0) || math.IsInf(l.Sec, 1) {
			return fmt.Errorf("client %s latency %g s to %s is not finite and non-negative", body.ClientAddr, l.Sec, l.Replica)
		}
	}
	return nil
}

// mergeLatencies merges a repeat submission's latencies into the queued
// ones. Both lists ascend strictly by replica, and so does the result; a
// replica measured twice keeps the newer figure.
func mergeLatencies(queued, newer []Latency) []Latency {
	out := make([]Latency, 0, len(queued)+len(newer))
	i := 0
	for _, l := range newer {
		for i < len(queued) && queued[i].Replica < l.Replica {
			out = append(out, queued[i])
			i++
		}
		if i < len(queued) && queued[i].Replica == l.Replica {
			i++
		}
		out = append(out, l)
	}
	return append(out, queued[i:]...)
}

// handleAllocationPull serves a client's row of the last committed round.
// This is the pull half of change-suppressed fan-out: quiet rounds push
// nothing, so a non-persistent client retrieves its (unchanged) split here.
// The row comes from the committed assignment — always ordered by the
// committed clientAddrs, which ascend, so the row is a binary search away —
// not the install history, whose row order can predate a clean commit.
func (r *ReplicaServer) handleAllocationPull(req transport.Message) (transport.Message, error) {
	var body PullBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	reply := AllocationBody{Algorithm: r.cfg.Algorithm.String()}
	r.mu.Lock()
	if lg := r.lastGood; lg != nil {
		reply.Round = lg.round
		if i, ok := slices.BinarySearch(lg.clientAddrs, body.ClientAddr); ok {
			per := make(map[string]float64, len(lg.infos))
			for j, info := range lg.infos {
				if lg.assignment[i][j] > 0 {
					per[info.Addr] = lg.assignment[i][j]
				}
			}
			reply.PerReplicaMB = per
		}
	}
	r.mu.Unlock()
	return r.newMessage(MsgAllocationPull+".ack", reply)
}

// handleReplicaInfo reports this replica's model parameters.
func (r *ReplicaServer) handleReplicaInfo(req transport.Message) (transport.Message, error) {
	rep := r.cfg.Replica
	return transport.NewMessage(MsgReplicaInfo+".ack", r.Addr(), ReplicaInfo{
		Addr:      r.Addr(),
		Price:     rep.Price,
		Alpha:     rep.Alpha,
		Beta:      rep.Beta,
		Gamma:     rep.Gamma,
		Bandwidth: rep.Bandwidth,
	})
}

// specProblem reconstructs the optimization instance a RoundSpec describes.
// The spec's feasibility mask is primed as the problem's own: latency enters
// the optimization only through it, so no latency value is needed.
func specProblem(spec *RoundSpec) (*opt.Problem, error) {
	replicas := make([]model.Replica, len(spec.Replicas))
	for j, info := range spec.Replicas {
		replicas[j] = model.Replica{
			Name:      info.Addr,
			Price:     info.Price,
			Alpha:     info.Alpha,
			Beta:      info.Beta,
			Gamma:     info.Gamma,
			Bandwidth: info.Bandwidth,
			Base:      info.BaseMB,
		}
	}
	sys, err := model.NewSystem(replicas)
	if err != nil {
		return nil, err
	}
	prob := &opt.Problem{System: sys, Demands: spec.Demands}
	prob.PrimeMask(spec.Feasible, nil)
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return prob, nil
}

// handleRoundStart installs a round's problem (participant side).
func (r *ReplicaServer) handleRoundStart(req transport.Message) (transport.Message, error) {
	var spec RoundSpec
	if err := req.DecodeBody(&spec); err != nil {
		return transport.Message{}, err
	}
	prob, err := specProblem(&spec)
	if err != nil {
		return transport.Message{}, err
	}
	myCol := -1
	for j, info := range spec.Replicas {
		if info.Addr == r.Addr() {
			myCol = j
			break
		}
	}
	if myCol < 0 {
		return transport.Message{}, fmt.Errorf("core: replica %s not listed in round %d", r.Addr(), spec.Round)
	}
	// Algorithm-specific participant state is built lazily by each server
	// half on first use (engine.ServerRound.State), so a round pays only
	// for the algorithm actually driven over it.
	st := &roundState{eng: &engine.ServerRound{
		Round:        spec.Round,
		Prob:         prob,
		Col:          myCol,
		Self:         r.Addr(),
		ReplicaAddrs: addrsOf(spec.Replicas),
	}}
	r.mu.Lock()
	if _, held := r.rounds[spec.Round]; !held {
		r.roundOrder = append(r.roundOrder, spec.Round)
	}
	r.rounds[spec.Round] = st
	for len(r.roundOrder) > roundStatesKept {
		delete(r.rounds, r.roundOrder[0])
		r.roundOrder = r.roundOrder[1:]
	}
	r.mu.Unlock()
	return r.newMessage(MsgRoundStart+".ack", nil)
}

// lookupRound fetches participant state.
func (r *ReplicaServer) lookupRound(round int) (*roundState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.rounds[round]
	if !ok {
		return nil, fmt.Errorf("core: replica %s has no state for round %d", r.Addr(), round)
	}
	return st, nil
}

// handleAssign installs the final serving plan: a full install's updates
// are the plan as decoded, a delta is applied to an earlier round's
// installed plan (see AssignBody).
func (r *ReplicaServer) handleAssign(req transport.Message) (transport.Message, error) {
	var body AssignBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	st, err := r.lookupRound(body.Round)
	if err != nil {
		return transport.Message{}, err
	}
	plan := body.Updates
	if body.BaseRound > 0 {
		base, err := r.lookupRound(body.BaseRound)
		if err != nil {
			return transport.Message{}, fmt.Errorf("core: delta assign round %d: %w", body.Round, err)
		}
		r.mu.Lock()
		basePlan := base.plan
		r.mu.Unlock()
		if basePlan == nil {
			return transport.Message{}, fmt.Errorf("core: delta assign round %d: round %d has no installed plan", body.Round, body.BaseRound)
		}
		plan = applyUpdates(basePlan, body.Updates)
	} else if plan == nil {
		plan = []ClientMB{} // installed, serving no client
	}
	r.mu.Lock()
	st.plan = plan
	r.mu.Unlock()
	return r.newMessage(MsgAssign+".ack", nil)
}

// applyUpdates is a delta install: one merge of the base plan with the
// updates, both ascending by client. An update replaces its client's entry,
// or removes it when not positive. On a client in both the entry keeps the
// base plan's string, so the plan does not pin the update list's names.
// The base plan is only read.
func applyUpdates(base, updates []ClientMB) []ClientMB {
	plan := make([]ClientMB, 0, len(base)+len(updates))
	i := 0
	for _, u := range updates {
		for i < len(base) && base[i].Client < u.Client {
			plan = append(plan, base[i])
			i++
		}
		if i < len(base) && base[i].Client == u.Client {
			u.Client = base[i].Client
			i++
		}
		if u.MB > 0 {
			plan = append(plan, u)
		}
	}
	return append(plan, base[i:]...)
}

// Plan returns the MB this replica was assigned to serve to the given
// client in the given round (0 when none).
func (r *ReplicaServer) Plan(round int, clientAddr string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.rounds[round]
	if !ok {
		return 0
	}
	k, found := slices.BinarySearchFunc(st.plan, clientAddr, func(e ClientMB, addr string) int { return strings.Compare(e.Client, addr) })
	if !found {
		return 0
	}
	return st.plan[k].MB
}

// handleDownload serves the FileDownload role: synthetic payload bytes,
// BytesPerMB per requested MB.
func (r *ReplicaServer) handleDownload(req transport.Message) (transport.Message, error) {
	var body DownloadBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	if body.SizeMB < 0 {
		return transport.Message{}, fmt.Errorf("core: download of %g MB", body.SizeMB)
	}
	size := int(body.SizeMB * float64(r.cfg.BytesPerMB))
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.Stats.DownloadsServed.Inc(1)
	r.Stats.MBServed.Inc(int64(body.SizeMB))
	return transport.NewMessage(MsgDownload+".ack", r.Addr(), DownloadReply{Payload: payload})
}
