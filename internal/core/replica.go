package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
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
	clients    *clientTable        // the clients this replica is the contact of
	rounds     map[int]*roundState // participant-side state, keyed by round id
	roundOrder []int               // ids of rounds, oldest first (see roundStatesKept)
	roundSeq   int
	lastGood   *lastGoodRound         // fallback assignment for degraded rounds
	lastReport *RoundReport           // most recent completed round (admin /status)
	infoCache  map[string]ReplicaInfo // model parameters of every replica ever seen in a round
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
	StandingLapses    metrics.Counter // standing clients dropped unrenewed

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
	// lats[i] is the latency list row i of prob's mask was built from: the
	// next round shares that row with a request that carries the same list.
	lats       [][]Latency
	assignment [][]float64
	// mus holds the round's final per-client dual values, aligned with
	// clientAddrs, when the algorithm reported them (engine.DualReporter);
	// the next warm start seeds the dual from here.
	mus []float64
	// prob is the full per-client problem the assignment solved (rows
	// follow clientAddrs, columns follow infos; nil after commitEmpty): the
	// incremental path diffs the next round against it.
	prob *opt.Problem
	// installed is the assignment actually fanned out to replica round
	// state, and installedRound the round id it was installed under.
	// Usually identical to assignment, but a clean incremental commit
	// rescales rows without re-installing anything, so the
	// two can drift apart; the delta install diffs against installed —
	// what replicas really hold — never against assignment.
	installed      [][]float64
	installedRound int
	// audit is the assignment's carried audit state on prob, and kktGap
	// its KKT gap, bit for bit prob.Audit(assignment).KKTGap: incremental
	// and clean commits carry both forward from the audit of the matrix
	// they commit. A full commit leaves audit nil; the next incremental plan
	// builds both in one pass (opt.Problem.AuditCarried). A carry reuses
	// the state's arrays, so like the duals overlay (settleDuals) it rests
	// on rounds running one at a time.
	audit  *opt.AuditState
	kktGap float64
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

	// plan is the installed serving plan. Nil until the round's
	// replica.assign arrives.
	plan *servingPlan
}

// NewReplicaServer binds a replica server on the given network address.
// members must include this replica's own address; it seeds the ring.
func NewReplicaServer(network transport.Network, addr string, members []string, cfg ReplicaConfig) (*ReplicaServer, error) {
	if err := cfg.Replica.Validate(); err != nil {
		return nil, err
	}
	r := &ReplicaServer{
		cfg:       cfg.withDefaults(),
		clients:   &clientTable{byAddr: make(map[string]*clientRecord), byHandle: make(map[uint32]*clientRecord)},
		rounds:    make(map[int]*roundState),
		infoCache: make(map[string]ReplicaInfo),
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

// PendingRequests reports how many clients queued something since the
// last drain: a request, a withdrawal, or a failed round's row put back.
// Standing clients that sent nothing are not counted (StandingClients).
func (r *ReplicaServer) PendingRequests() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients.touched
}

// StandingClients reports how many clients stood at the last drain: the
// next drain queues each of them that sends nothing again.
func (r *ReplicaServer) StandingClients() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients.standing
}

// RegisterMetrics exposes the replica's own gauges on an admin registry:
// edr_pending_requests, the clients that queued something since the last
// drain; edr_standing_clients, those standing at the last drain, and
// edr_standing_lapses_total, the standing clients dropped because they
// stopped renewing; edr_latency_versions, how many clients' handles and
// latency lists it holds for handle-form requests; and the two stores
// that grow with the rounds and are bounded only by their pruning —
// edr_round_states, the participant round states held (at most
// roundStatesKept), and edr_cohort_keys, the cohort masks the initiator's
// registry interned (pruned only on a membership change).
func (r *ReplicaServer) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("edr_pending_requests",
		"Clients that queued a request or a withdrawal at this replica since its last drain, or whose row a failed round put back; standing clients that sent nothing are not counted.", nil,
		func() float64 { return float64(r.PendingRequests()) })
	reg.Gauge("edr_standing_clients",
		"Clients whose unchanged request stood at this replica's last drain: the next drain queues each of them again without a request.", nil,
		func() float64 { return float64(r.StandingClients()) })
	reg.CounterFunc("edr_standing_lapses_total",
		"Standing clients this replica dropped after roundStatesKept drains without a request from them.", nil,
		func() float64 { return float64(r.Stats.StandingLapses.Value()) })
	locked := func(n func() int) func() float64 {
		return func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(n())
		}
	}
	reg.Gauge("edr_latency_versions",
		"Client handles and latency lists this replica holds for handle-form requests; each is dropped roundStatesKept drains after its last use.", nil,
		locked(func() int { return len(r.clients.byHandle) }))
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
	case MsgClientWithdraw:
		return r.handleWithdraw(req)
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
		if reg, ok := engine.ServerFor(req.Type); ok {
			return r.handleEngine(ctx, reg, req)
		}
		return transport.Message{}, fmt.Errorf("core: replica %s: unknown message type %q", r.Addr(), req.Type)
	}
}

// handleEngine dispatches an algorithm verb to its registered server
// half. Every algorithm body leads with the round id (transport.BinaryRound),
// which locates the participant state the server half operates on. A body
// that is not the verb's binary one is refused naming the verb: by the
// round lookup, or by the server half's decoder (engine.Reply.Decode). Both
// messages pass as values: a dispatch allocates only the reply's bytes.
func (r *ReplicaServer) handleEngine(ctx context.Context, reg *engine.Registration, req transport.Message) (transport.Message, error) {
	round, err := transport.BinaryRound(req)
	if err != nil {
		return transport.Message{}, err
	}
	st, err := r.lookupRound(round)
	if err != nil {
		return transport.Message{}, fmt.Errorf("core: %s: %w", req.Type, err)
	}
	body, err := reg.Server.Handle(ctx, req.Type, engine.Reply{Verb: req.Type, Body: req.Body}, st.eng)
	if err != nil {
		return transport.Message{}, err
	}
	return transport.Message{Type: reg.Ack, From: r.Addr(), Body: body}, nil
}

// handleClientRequest queues a client's demand (ClientListener role) in its
// record (clientTable.request). Like handleEngine it builds its messages
// itself, where DecodeBody and NewMessage would put the body and the ack
// on the heap through their interface arguments, and a new row is carved
// from a slab (clientTable.carve): an unchanged resubmission costs the
// ack's 16 bytes and nothing else.
func (r *ReplicaServer) handleClientRequest(req transport.Message) (transport.Message, error) {
	var body RequestBody
	if err := body.UnmarshalBinary(req.Body); err != nil {
		return transport.Message{}, fmt.Errorf("core: decode %s body: %w", req.Type, err)
	}
	r.mu.Lock()
	ack, err := r.clients.request(req.From, &body, r.roundSeq)
	r.mu.Unlock()
	if err != nil {
		return transport.Message{}, fmt.Errorf("core: bad request from %s: %w", req.From, err)
	}
	if ack.Handle != 0 { // handle 0 is a miss: nothing was queued
		r.Stats.RequestsReceived.Inc(1)
	}
	b, err := ack.MarshalBinary()
	if err != nil {
		return transport.Message{}, err
	}
	return transport.Message{Type: MsgClientRequest + ".ack", From: r.Addr(), Body: b}, nil
}

// handleWithdraw takes a client's withdrawal (clientTable.withdraw), acked
// whether or not the contact holds the handle for the sender.
func (r *ReplicaServer) handleWithdraw(req transport.Message) (transport.Message, error) {
	var body WithdrawBody
	if err := body.UnmarshalBinary(req.Body); err != nil {
		return transport.Message{}, fmt.Errorf("core: decode %s body: %w", req.Type, err)
	}
	r.mu.Lock()
	r.clients.withdraw(body.Handle, req.From)
	r.mu.Unlock()
	return transport.Message{Type: MsgClientWithdraw + ".ack", From: r.Addr()}, nil
}

// checkRequest refuses a submission from no client can mean: a full form
// naming another client, a demand that is not positive and finite, or a
// latency that is not finite and non-negative. The decoder already refused
// a full form with no address.
func checkRequest(body *RequestBody, from string) error {
	if body.Handle == 0 && body.ClientAddr != from {
		return fmt.Errorf("a full form names client %s, not its sender", body.ClientAddr)
	}
	if !(body.DemandMB > 0) || math.IsInf(body.DemandMB, 1) {
		return fmt.Errorf("demand %g MB is not positive and finite", body.DemandMB)
	}
	for _, l := range body.LatencySec {
		if !(l.Sec >= 0) || math.IsInf(l.Sec, 1) {
			return fmt.Errorf("latency %g s to %s is not finite and non-negative", l.Sec, l.Replica)
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
			reply.Replicas = addrsOf(lg.infos)
			reply.PerReplicaMB = make([]float64, len(lg.infos))
			for j, v := range lg.assignment[i] {
				if v > 0 {
					reply.PerReplicaMB[j] = v
				}
			}
		}
	}
	r.mu.Unlock()
	return transport.NewMessage(MsgAllocationPull+".ack", r.Addr(), reply)
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
	return transport.NewMessage(MsgRoundStart+".ack", r.Addr(), nil)
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

// handleAssign installs the final serving plan: the updates merged into an
// earlier round's installed plan, or for a full install into the empty
// plan (see AssignBody). The plan is built from the body's bytes, copied
// once, and no client's name becomes a Go string.
func (r *ReplicaServer) handleAssign(req transport.Message) (transport.Message, error) {
	var body AssignBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	st, err := r.lookupRound(body.Round)
	if err != nil {
		return transport.Message{}, err
	}
	base := &servingPlan{}
	if body.BaseRound > 0 {
		held, err := r.lookupRound(body.BaseRound)
		if err != nil {
			return transport.Message{}, fmt.Errorf("core: delta assign round %d: %w", body.Round, err)
		}
		r.mu.Lock()
		base = held.plan
		r.mu.Unlock()
		if base == nil {
			return transport.Message{}, fmt.Errorf("core: delta assign round %d: round %d has no installed plan", body.Round, body.BaseRound)
		}
	}
	plan := base.apply(body.Updates)
	r.mu.Lock()
	st.plan = &plan
	r.mu.Unlock()
	return transport.NewMessage(MsgAssign+".ack", r.Addr(), nil)
}

// planChunk is about how many entries a serving plan's chunk holds: a run
// of more than 2·planChunk entries is carved into chunks of planChunk, the
// last taking the rest.
const planChunk = 32

// servingPlan is an installed serving plan: the MB to serve each client
// with a positive share, in strictly ascending client order, held as
// chunks of entries in their wire encoding that each ascend and that
// ascend one after another, so a plan holds one pointer per chunk and none
// per client. No chunk is empty, none holds more than 2·planChunk entries,
// and none is written once installed: a delta install merges the chunks
// its updates fall in into new ones and shares every other one with its
// base, so the round states a replica keeps (roundStatesKept) hold one
// copy of what their plans have in common.
type servingPlan struct {
	chunks []transport.Pairs
}

// carve appends entries, which ascend past the plan's last entry, as
// chunks over their backing array, each one's capacity ending at its
// length.
func (p *servingPlan) carve(entries transport.Pairs) {
	for len(entries) > 0 {
		end, off := len(entries), 0
		for k := 1; k <= 2*planChunk && off < len(entries); k++ {
			if _, _, off = entries.At(off); k == planChunk {
				end = off
			}
		}
		if off == len(entries) {
			end = off // at most 2·planChunk entries left: one chunk
		}
		p.chunks = append(p.chunks, entries[:end:end])
		entries = entries[end:]
	}
}

// apply is an install: the plan with updates, which ascend by client,
// merged in; a full install is one into the empty plan. A chunk owns the
// updates from its first client up to the next chunk's first client (the
// first chunk also those before it, the last those after it), and a
// binary search over the chunks' first clients finds the owner of each run
// of updates. A chunk that owns none is shared; each other one is merged
// with its run into one allocation and carved again. The receiver is only
// read.
func (p *servingPlan) apply(updates transport.Pairs) servingPlan {
	// Carving a chunk merged with a run of r updates makes at most
	// 2 + r/planChunk chunks of it.
	n := updates.Len()
	out := servingPlan{chunks: make([]transport.Pairs, 0, len(p.chunks)+min(len(p.chunks), n)+n/planChunk+1)}
	if len(p.chunks) == 0 {
		out.carve(merge(nil, updates))
		return out
	}
	next := 0 // the first chunk not yet in out
	for off := 0; off < len(updates); {
		addr, _, _ := updates.At(off)
		rest := p.chunks[next:]
		k := next + max(sort.Search(len(rest), func(k int) bool { first, _, _ := rest[k].At(0); return string(first) > string(addr) })-1, 0)
		end := len(updates)
		if k+1 < len(p.chunks) {
			bound, _, _ := p.chunks[k+1].At(0)
			end = seek(updates, off, bound)
		}
		out.chunks = append(out.chunks, p.chunks[next:k]...)
		out.carve(merge(p.chunks[k], updates[off:end]))
		off, next = end, k+1
	}
	out.chunks = append(out.chunks, p.chunks[next:]...)
	return out
}

// merge is chunk with run merged in, both ascending by client: an update
// replaces its client's entry, or removes it when not positive, and adds
// its client when positive and absent. The result is one allocation with
// room for every entry of both, or nil when no entry is left; it is
// copied span by span, so a full install is one copy of its run.
func merge(chunk, run transport.Pairs) (merged transport.Pairs) {
	keep := func(e []byte) {
		if len(e) > 0 && merged == nil {
			merged = make(transport.Pairs, 0, len(chunk)+len(run))
		}
		merged = append(merged, e...)
	}
	i, kept := 0, 0 // chunk[:i] is merged, run[kept:u] is pending
	for u := 0; u < len(run); {
		addr, mb, next := run.At(u)
		if j := seek(chunk, i, addr); j > i {
			keep(run[kept:u])
			keep(chunk[i:j])
			i, kept = j, u
		}
		if i < len(chunk) {
			if held, _, after := chunk.At(i); string(held) == string(addr) {
				i = after
			}
		}
		if !(mb > 0) {
			keep(run[kept:u])
			kept = next
		}
		u = next
	}
	keep(run[kept:])
	keep(chunk[i:])
	return merged
}

// seek is the offset of the first entry of e at or past off whose client
// does not sort before client.
func seek(e transport.Pairs, off int, client []byte) int {
	for off < len(e) {
		held, _, next := e.At(off)
		if string(held) >= string(client) {
			break
		}
		off = next
	}
	return off
}

// lookup is the MB the plan serves client (0 when none): a binary search
// over the chunks' first clients, then a scan of the chunk.
func (p *servingPlan) lookup(client string) float64 {
	k := sort.Search(len(p.chunks), func(k int) bool { first, _, _ := p.chunks[k].At(0); return string(first) > client }) - 1
	for off := 0; k >= 0 && off < len(p.chunks[k]); {
		addr, mb, next := p.chunks[k].At(off)
		if string(addr) >= client {
			// Entries ascend: past client's place, it holds none.
			if string(addr) == client {
				return mb
			}
			return 0
		}
		off = next
	}
	return 0
}

// Plan returns the MB this replica was assigned to serve to the given
// client in the given round (0 when none).
func (r *ReplicaServer) Plan(round int, clientAddr string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.rounds[round]
	if !ok || st.plan == nil {
		return 0
	}
	return st.plan.lookup(clientAddr)
}

// handleDownload serves the FileDownload role: synthetic payload bytes,
// BytesPerMB per requested MB.
func (r *ReplicaServer) handleDownload(req transport.Message) (transport.Message, error) {
	var body DownloadBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	// NaN, ±Inf and a size whose payload no frame carries are refused
	// before anything is allocated for them.
	size := body.SizeMB * float64(r.cfg.BytesPerMB)
	if !(body.SizeMB >= 0 && size <= transport.MaxFrameBytes) {
		return transport.Message{}, fmt.Errorf("core: download of %g MB from %s", body.SizeMB, req.From)
	}
	payload := make([]byte, int(size))
	for i := range payload {
		payload[i] = byte(i)
	}
	r.Stats.DownloadsServed.Inc(1)
	r.Stats.MBServed.Inc(int64(body.SizeMB))
	return transport.Message{Type: MsgDownload + ".ack", From: r.Addr(), Body: payload}, nil
}
