package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"edr/internal/cohort"
	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/transport"
)

// roundKind is the plan one attempt executes over the shared stage
// sequence gather → build → plan → reduce → warm → start → solve → expand
// → install → notify → commit. The kind is data: each stage exists once
// and reads it to decide how much of itself applies.
type roundKind int

const (
	// kindFull solves every row through the distributed engine, at cohort
	// granularity when the roster compresses.
	kindFull roundKind = iota
	// kindIncremental re-solves only the dirty rows, centrally, against the
	// capacity the clean rows leave over.
	kindIncremental
	// kindClean re-commits the rescaled committed assignment: nothing
	// drifted, so nothing is fanned out.
	kindClean
	// kindDegraded republishes the last-known-good split renormalized over
	// the reachable members after coordination kept failing; it is chosen
	// by RunRound, not by the plan stage.
	kindDegraded
)

// instance is one optimization instance in wire and solver form: requests
// × infos stated as a RoundSpec (rows in request order, columns in info
// order) and the opt.Problem it describes.
type instance struct {
	requests []*RequestBody
	infos    []ReplicaInfo
	spec     *RoundSpec
	prob     *opt.Problem
}

// addrsOf lists the replicas' addresses in column order.
func addrsOf(infos []ReplicaInfo) []string {
	addrs := make([]string, len(infos))
	for j, info := range infos {
		addrs[j] = info.Addr
	}
	return addrs
}

// attempt is the state of one pass over the stage sequence. RunRound fills
// restarts, full.requests and — for a degraded round — kind and failed; the
// stages fill the rest in order.
type attempt struct {
	restarts int
	// failed is the member a degraded round must route around.
	failed string
	kind   roundKind
	round  int
	// full is the round's whole per-client instance; sub is the rows the
	// solve covers — full itself except on incremental plans, where it is
	// the dirty rows against residual capacity.
	full, sub instance
	// inc is the diff against the committed round with the merged-matrix
	// scaffold (incremental and clean plans only).
	inc *incrementalPlan
	// grouping folds sub into cohorts; solveSpec/solveProb are what the
	// participants and the solver see (sub's, or the cohort-reduced form).
	grouping  *cohort.Grouping
	solveSpec *RoundSpec
	solveProb *opt.Problem
	warmMu    []float64
	trace     roundTrace
	// solved is the solve's output, rows of solveSpec × columns; duals are
	// its rows' final dual values (nil when the method reports none).
	solved     [][]float64
	iterations int
	duals      []float64
	// subGap is the duality gap the incremental plan's central sub-solve
	// stopped on: its certified distance from the sub-instance's optimum.
	subGap float64
	// x is the round's result, rows × columns of full; mus the per-client
	// duals kept for the next warm start; suppressed the clients whose
	// allocation push was withheld because their row did not move.
	x          [][]float64
	mus        map[string]float64
	suppressed int
}

// row maps a row of sub to its row of full.
func (a *attempt) row(idx int) int {
	if a.kind == kindIncremental {
		return a.inc.delta.DirtyClients[idx]
	}
	return idx
}

// members lists the rows of sub that solve row k stands for.
func (a *attempt) members(k int) []int {
	if a.grouping == nil {
		return []int{k}
	}
	return a.grouping.Members(k)
}

// verdict turns a local (non-network) failure of a solve-side stage into
// the attempt's outcome: an incremental plan escalates to a full solve,
// any other plan surfaces the error.
func (a *attempt) verdict(err error) error {
	if a.kind == kindIncremental {
		return errEscalateFull
	}
	return err
}

// committed returns the last committed round (nil before the first).
func (r *ReplicaServer) committed() *lastGoodRound {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastGood
}

// runAttempt executes one attempt over the current ring membership and
// commits it. When the incremental gate rejects its result the attempt is
// re-planned as a full solve on the spot — escalation is a second pass over
// the same gathered instance, not a round restart.
func (r *ReplicaServer) runAttempt(ctx context.Context, a *attempt) (*RoundReport, error) {
	// Stages draw scratch from the pool; nothing pooled outlives the attempt.
	defer r.pool.Release()
	if err := r.gather(ctx, a); err != nil {
		return nil, err
	}
	if err := r.build(a); err != nil {
		return nil, err
	}
	if a.kind != kindDegraded {
		r.plan(a, r.cfg.Incremental)
	}
	err := r.execute(ctx, a)
	if errors.Is(err, errEscalateFull) {
		r.Stats.RoundsEscalated.Inc(1)
		r.plan(a, false)
		err = r.execute(ctx, a)
	}
	if err != nil {
		return nil, err
	}
	return r.commit(a), nil
}

// execute runs the planned attempt's fan-out and solve stages.
func (r *ReplicaServer) execute(ctx context.Context, a *attempt) error {
	if a.kind == kindClean {
		// The committed assignment (rescaled within epsilon) is already
		// optimal for this round's problem: no round-start, install or
		// notify at all — the replicas keep serving their installed plans.
		a.x, a.mus, a.suppressed = a.inc.base, a.inc.lg.mus, len(a.full.requests)
		return nil
	}
	a.sub, a.solveSpec, a.solveProb, a.grouping = a.full, a.full.spec, a.full.prob, nil
	solves := a.kind != kindDegraded
	if solves {
		if err := r.reduce(a); err != nil {
			return a.verdict(err)
		}
	}
	r.warm(a)
	if err := r.start(ctx, a); err != nil {
		return err
	}
	if solves {
		if err := r.solve(ctx, a); err != nil {
			return a.verdict(err)
		}
		if err := r.expand(a); err != nil {
			return a.verdict(err)
		}
		r.settleDuals(a)
	}
	if err := r.install(ctx, a); err != nil {
		return err
	}
	r.notify(ctx, a)
	return nil
}

// gather fixes the round's columns: every active ring member's model
// parameters (drained members keep heartbeating and serving installed
// plans, but take no new load), or for a degraded round the committed
// columns minus the failed and drained members — the failed one is
// unreachable right now, though possibly still alive.
func (r *ReplicaServer) gather(ctx context.Context, a *attempt) error {
	if a.kind == kindDegraded {
		lg := r.committed()
		if lg == nil {
			return fmt.Errorf("core: replica %s: no committed round to degrade to", r.Addr())
		}
		for _, info := range lg.infos {
			if info.Addr != a.failed && r.ring.Contains(info.Addr) && !r.member.IsDrained(info.Addr) {
				a.full.infos = append(a.full.infos, info)
			}
		}
		if len(a.full.infos) == 0 {
			return fmt.Errorf("core: replica %s: no committed replica is reachable", r.Addr())
		}
		return nil
	}
	members := r.activeMembers()
	if len(members) == 0 {
		return fmt.Errorf("core: replica %s: no active ring members", r.Addr())
	}
	infos := make([]ReplicaInfo, len(members))
	if err := engine.FanOut(ctx, len(members), func(ctx context.Context, i int) error {
		resp, err := r.sendReplica(ctx, members[i], MsgReplicaInfo, nil)
		if err != nil {
			return err
		}
		return resp.DecodeBody(&infos[i])
	}); err != nil {
		return err
	}
	// Deterministic column order, mirroring the request-row sort: byte
	// keys in the cohort registry and row/column maps in the incremental
	// diff stay aligned across rounds of a stable roster.
	sort.Slice(infos, func(i, j int) bool { return infos[i].Addr < infos[j].Addr })
	a.full.infos = infos
	return nil
}

// build draws the round id and states the full per-client instance.
func (r *ReplicaServer) build(a *attempt) error {
	r.mu.Lock()
	r.roundSeq++
	a.round = r.roundSeq
	r.mu.Unlock()
	return r.instantiate(a.round, &a.full)
}

// instantiate fills in.spec and in.prob from in.requests × in.infos.
// Latencies a client did not measure are treated as beyond the bound (the
// replica is not a candidate for that client).
func (r *ReplicaServer) instantiate(round int, in *instance) error {
	in.spec = &RoundSpec{Round: round, Replicas: in.infos, MaxLatencySec: r.cfg.MaxLatencySec}
	for _, req := range in.requests {
		in.spec.ClientAddrs = append(in.spec.ClientAddrs, req.ClientAddr)
		in.spec.Demands = append(in.spec.Demands, req.DemandMB)
		row := make([]float64, len(in.infos))
		for j, info := range in.infos {
			if l, ok := req.LatencySec[info.Addr]; ok {
				row[j] = l
			} else {
				row[j] = cohort.InfeasibleLatency(r.cfg.MaxLatencySec)
			}
		}
		in.spec.LatencySec = append(in.spec.LatencySec, row)
	}
	var err error
	in.prob, err = specProblem(in.spec)
	return err
}

// plan chooses the attempt's kind. With incremental re-optimization armed
// and a committed round covering this roster, the round is diffed against
// it: nothing dirty re-commits outright, a dirty minority is re-solved on
// its own, and anything else — no usable history, a roster change, a dirty
// majority — is a full solve.
func (r *ReplicaServer) plan(a *attempt, allowIncremental bool) {
	a.kind, a.inc = kindFull, nil
	if !allowIncremental {
		return
	}
	if a.inc = r.planIncremental(&a.full); a.inc == nil {
		return
	}
	a.kind = kindClean
	if a.inc.delta.Dirty() {
		a.kind = kindIncremental
	}
}

// reduce settles what the solve runs over. An incremental plan narrows to
// the dirty rows: columns keep this round's order but carry residual
// capacity and the frozen base load, so the solver optimizes the true
// global objective restricted to those rows (the frozen part contributes a
// constant). At client scale the rows are then merged into cohorts —
// clients sharing a feasibility mask and latency class become one virtual
// client. The objective depends on an assignment only through per-replica
// column sums, so the reduced optimum matches the ungrouped one and
// expanding it loses nothing (see internal/cohort). Grouping goes through
// the cross-round registry, which keeps cohort identity stable while the
// dirty subset varies, and is skipped when it would not compress.
func (r *ReplicaServer) reduce(a *attempt) error {
	if a.kind == kindIncremental {
		dirty := a.inc.delta.DirtyClients
		a.sub = instance{requests: make([]*RequestBody, len(dirty)), infos: make([]ReplicaInfo, len(a.full.infos))}
		for idx, i := range dirty {
			a.sub.requests[idx] = a.full.requests[i]
		}
		for j, info := range a.full.infos {
			info.Bandwidth, info.BaseMB = a.inc.residual[j], a.inc.frozen[j]
			a.sub.infos[j] = info
		}
		if err := r.instantiate(a.round, &a.sub); err != nil {
			return err
		}
		a.solveSpec, a.solveProb = a.sub.spec, a.sub.prob
	}
	if n := r.cfg.CohortMinClients; n > 0 && len(a.sub.requests) >= n {
		g, _, err := r.registry.Group(a.sub.prob, cohort.Options{
			Quantum:    r.cfg.CohortQuantumSec,
			MaxCohorts: r.cfg.CohortMax,
		})
		if err == nil && g.K() < a.sub.prob.C() {
			a.grouping = g
			a.solveProb = g.Reduced()
			a.solveSpec = &RoundSpec{
				Round:         a.round,
				Replicas:      a.sub.infos,
				MaxLatencySec: r.cfg.MaxLatencySec,
				RawClients:    len(a.sub.requests),
				Demands:       a.solveProb.Demands,
				LatencySec:    a.solveProb.Latency,
				ClientAddrs:   make([]string, g.K()),
			}
			// A cohort's row is named after its first member; cohorts are
			// disjoint, so the names are distinct.
			for k := range a.solveSpec.ClientAddrs {
				a.solveSpec.ClientAddrs[k] = a.sub.spec.ClientAddrs[g.Members(k)[0]]
			}
		}
	}
	// An incremental plan fails here when the clean majority pinned the
	// cheap columns and the dirty demand no longer fits what is left.
	return opt.CheckFeasible(a.solveProb)
}

// warm seeds the solve from the committed assignment renormalized over
// this round's roster (opt.Renormalize), so every solver starts from a
// demand-conserving point near the previous optimum — what makes epoch
// changes (join, drain, departure) cheap. A round with no committed
// history has nothing to warm from and starts cold, from the uniform split.
// Cohorted solves fold the per-client history into cohort rows (and
// per-client duals into demand-weighted cohort duals). For a degraded
// round the renormalized history is not a seed but the result.
func (r *ReplicaServer) warm(a *attempt) {
	if a.kind == kindDegraded {
		a.x, _ = r.warmStart(&a.full)
		return
	}
	warm, mu := r.warmStart(&a.sub)
	if g := a.grouping; g != nil && warm != nil {
		// Packed fold: gather the per-client history straight into the
		// cohorts' CSR slots, then scatter once into a pooled |K|×|N|
		// matrix for the spec. No dense |C|×|N| intermediate, and the
		// pooled buffers are done being read before the attempt releases
		// them (the spec is marshaled by start, the seed consumed by solve).
		_, redSp := g.Sparse()
		warmPk := g.AggregateRowsPacked(warm, r.pool.Vector(redSp.NNZ()))
		warm = r.pool.Matrix(g.K(), a.sub.prob.N())
		redSp.Scatter(warm, warmPk)
		if mu != nil {
			mu = g.AggregateDualsInto(mu, r.pool.Vector(g.K()))
		}
	}
	a.solveSpec.Warm, a.warmMu = warm, mu
}

// warmStart builds the instance's warm-start matrix (and, when the
// committed round reported duals, the per-client dual seed) from the
// last-known-good assignment: old columns are aligned to the new roster by
// replica address and old rows to the new request set by client address,
// then the whole matrix is renormalized so every row conserves its demand
// within this round's capacity and latency constraints. Returns nils when
// there is no history to warm from.
func (r *ReplicaServer) warmStart(in *instance) ([][]float64, []float64) {
	lg := r.committed()
	if lg == nil {
		return nil, nil
	}
	colOf := make(map[string]int, len(lg.infos))
	for j, info := range lg.infos {
		colOf[info.Addr] = j
	}
	rowOf := make(map[string]int, len(lg.clientAddrs))
	for i, addr := range lg.clientAddrs {
		rowOf[addr] = i
	}
	// Pooled scratch: Renormalize allocates its own output, so weights is
	// dead once it returns.
	weights := r.pool.Matrix(len(in.requests), len(in.infos))
	var newCols []int
	for j, info := range in.infos {
		if _, ok := colOf[info.Addr]; !ok {
			newCols = append(newCols, j)
		}
	}
	for i, req := range in.requests {
		row, ok := rowOf[req.ClientAddr]
		if !ok {
			continue // new client: Renormalize spreads it uniformly
		}
		total, kept := 0.0, 0.0
		for _, v := range lg.assignment[row] {
			total += v
		}
		for j, info := range in.infos {
			if oj, ok := colOf[info.Addr]; ok {
				weights[i][j] = lg.assignment[row][oj]
				kept += weights[i][j]
			}
		}
		// Mass that lived on departed columns seeds the joined ones: on a
		// swap (drain one member, join another) the new optimum tends to
		// hand the newcomer roughly the departed member's share, so
		// inheriting it lands the seed much closer than spreading the
		// loss over the incumbents.
		if lost := total - kept; lost > 0 && len(newCols) > 0 {
			for _, j := range newCols {
				weights[i][j] = lost / float64(len(newCols))
			}
		}
	}
	caps := make([]float64, len(in.infos))
	for j, info := range in.infos {
		caps[j] = info.Bandwidth
	}
	var warmMu []float64
	if lg.mus != nil {
		warmMu = make([]float64, len(in.requests))
		for i, req := range in.requests {
			warmMu[i] = lg.mus[req.ClientAddr] // zero for new clients
		}
	}
	return opt.Renormalize(weights, in.prob.Demands, caps, in.prob.Allowed()), warmMu
}

// toReplicas sends msg(j) to every column's replica in one wave. A
// failure is pinned on the member so RunRound can prune it and restart —
// except on a degraded round, which is best-effort: a replica it cannot
// reach keeps its previous plan, exactly the fallback being republished.
func (r *ReplicaServer) toReplicas(ctx context.Context, a *attempt, msg func(j int) (transport.Message, error)) error {
	return engine.FanOut(ctx, len(a.full.infos), func(ctx context.Context, j int) error {
		req, err := msg(j)
		if err != nil {
			return err
		}
		if a.kind == kindDegraded {
			_, _ = r.sendMsgRetry(ctx, a.full.infos[j].Addr, req)
			return nil
		}
		_, err = r.sendReplicaMsg(ctx, a.full.infos[j].Addr, req)
		return err
	})
}

// start creates the round's state on every replica — the reduced spec
// when cohorting is active; participants never see raw client rows. The
// engine iterates over that state, and install needs it to exist even
// when no iteration traffic follows (incremental and degraded rounds).
// Every replica gets the same spec, so it is marshaled once.
func (r *ReplicaServer) start(ctx context.Context, a *attempt) error {
	r.startsSinceInstall.Add(1)
	req, err := r.newMessage(MsgRoundStart, a.solveSpec)
	if err != nil {
		return err
	}
	return r.toReplicas(ctx, a, func(int) (transport.Message, error) { return req, nil })
}

// solve produces the assignment at solve-row granularity. A full plan
// drives the registered algorithm through the solver engine: the algorithm
// supplies the per-iteration exchanges and the convergence test, the
// shared driver owns fan-out, cancellation, and iteration accounting.
// Trajectories are recorded only when someone is listening on the
// telemetry bus — the extra per-iteration objective evaluations stay off
// the unobserved path.
//
// An incremental plan solves its sub-instance centrally with the
// conditional-gradient method instead: the initiator already holds every
// parameter of the sub-instance (it built it), the instance is small —
// O(dirty) rows, and a handful of cohorts once reduced — and a distributed
// solve would pay per-iteration fan-out latency on a problem that no longer
// needs distribution. The solve starts from the warm seed and stops on its
// duality-gap certificate; running into the iteration bound without one
// escalates rather than installing an uncertified plan. The gate in expand
// then vets the merged result exactly as it would a distributed one.
func (r *ReplicaServer) solve(ctx context.Context, a *attempt) error {
	a.duals = nil
	if a.kind == kindIncremental {
		res, err := opt.FrankWolfeFrom(a.solveProb, a.solveSpec.Warm, opt.FWOptions{})
		if err != nil {
			return err
		}
		a.solved, a.iterations, a.subGap = res.X, res.Iterations, res.Gap
		if !res.Converged {
			r.Stats.SubsolveUnconverged.Inc(1)
			return errEscalateFull
		}
		return nil
	}
	reg, ok := engine.Lookup(string(r.cfg.Algorithm))
	if !ok {
		return fmt.Errorf("core: unknown algorithm %q", r.cfg.Algorithm)
	}
	a.trace = roundTrace{observe: r.cfg.Telemetry.Active()}
	driver := &engine.Driver{
		Transport: roundTransport{r},
		Observe:   a.trace.observe,
		OnIterate: func(_ int, residual, cost float64) { a.trace.add(residual, cost) },
	}
	rd := &engine.Round{
		Seq:          a.round,
		Prob:         a.solveProb,
		ReplicaAddrs: addrsOf(a.full.infos),
		MaxIters:     r.cfg.MaxIters,
		Tol:          r.cfg.Tol,
		Warm:         a.solveSpec.Warm,
		WarmMu:       a.warmMu,
		Pool:         r.pool,
	}
	alg := reg.New()
	var err error
	if a.solved, a.iterations, err = driver.Run(ctx, alg, rd); err != nil {
		return err
	}
	if dr, ok := alg.(engine.DualReporter); ok {
		if duals := dr.Duals(); len(duals) == len(a.solveSpec.ClientAddrs) {
			a.duals = duals
		}
	}
	return nil
}

// expand turns the solved rows into the round's per-client result.
// Cohorted rows disaggregate packed (slot to slot through the paired
// sparsity views) and scatter straight into their result rows, so the only
// dense |C|×|N| matrix built is the one the report and the warm-start
// history need anyway. On an incremental plan the result is the scaffold —
// the rescaled committed assignment — with the dirty rows filled in, and
// must pass the gate before anything is installed.
func (r *ReplicaServer) expand(a *attempt) error {
	switch {
	case a.kind == kindIncremental:
		a.x = a.inc.base
	case a.grouping == nil:
		a.x = a.solved
		return nil
	default:
		a.x = opt.NewMatrix(a.full.prob.C(), a.full.prob.N()) // escapes into the report
	}
	if g := a.grouping; g != nil {
		_, redSp := g.Sparse()
		packed, err := g.DisaggregatePacked(redSp.Gather(nil, a.solved), nil)
		if err != nil {
			return err
		}
		for idx := range a.sub.requests {
			g.ScatterMember(a.x[a.row(idx)], packed, idx)
		}
	} else {
		for idx, row := range a.solved {
			copy(a.x[a.row(idx)], row)
		}
	}
	if a.kind == kindIncremental {
		return a.inc.gate(a.full.prob, a.x)
	}
	return nil
}

// settleDuals fixes the per-client duals the next warm start seeds from.
// μ is a per-unit congestion price: every member of a cohort inherits its
// cohort's dual, so the duals cover the full client set either way. An
// incremental plan's central solve reports none, so clean clients keep
// their committed μ and each solved row gets a first-order estimate — the
// highest marginal cost among the columns now serving it. That overlay is
// skipped when the committed round carried no duals: a partial one would
// hand the next warm start zeros for every clean client.
//
// The overlay writes the committed map in place, as a clean plan aliases
// it: rounds run one at a time and nothing else reads it, so a quiet round
// pays for its solved rows, not for |C|. The map is rebuilt from this
// round's clients only once it holds more entries than there are clients,
// which keeps departed clients' duals from piling up.
func (r *ReplicaServer) settleDuals(a *attempt) {
	a.mus = nil
	if a.kind == kindIncremental {
		if a.mus = a.inc.lg.mus; a.mus == nil {
			return
		}
		if len(a.mus) > len(a.full.requests) {
			kept := make(map[string]float64, len(a.full.requests))
			for _, req := range a.full.requests {
				if v, ok := a.mus[req.ClientAddr]; ok {
					kept[req.ClientAddr] = v
				}
			}
			a.mus = kept
		}
		prob := a.full.prob
		price := opt.ColSums(a.x)
		for j, load := range price {
			price[j] = prob.System.Replicas[j].MarginalCost(load)
		}
		a.duals = make([]float64, len(a.solveSpec.ClientAddrs))
		for k := range a.duals {
			i := a.row(a.members(k)[0])
			for j, v := range a.x[i] {
				if v > 1e-9*math.Max(1, prob.Demands[i]) && price[j] > a.duals[k] {
					a.duals[k] = price[j]
				}
			}
		}
	} else if a.duals != nil {
		a.mus = make(map[string]float64, len(a.full.requests))
	}
	for k, v := range a.duals {
		for _, c := range a.members(k) {
			a.mus[a.sub.spec.ClientAddrs[c]] = v
		}
	}
}

// install puts the result on the replicas, each getting its own column.
// When the committed round's install is still addressable on every member
// an incremental plan sends a delta against it — O(dirty) entries instead
// of the full |C| column.
func (r *ReplicaServer) install(ctx context.Context, a *attempt) error {
	clients := a.full.spec.ClientAddrs
	// The delta's base state must still be among the roundStatesKept newest
	// on every member: it is, unless that many rounds were started since it
	// was installed (a long outage served by degraded rounds).
	var base [][]float64
	if a.kind == kindIncremental && r.startsSinceInstall.Load() < roundStatesKept {
		base = a.inc.instPrev
	}
	return r.toReplicas(ctx, a, func(j int) (transport.Message, error) {
		if base == nil {
			col := make([]float64, len(clients))
			for i := range col {
				col[i] = a.x[i][j]
			}
			return r.newMessage(MsgAssign, AssignBody{Round: a.round, Column: col, ClientAddrs: clients})
		}
		updates := make(map[string]float64)
		for i, addr := range clients {
			if base[i] == nil || a.x[i][j] != base[i][j] {
				updates[addr] = a.x[i][j]
			}
		}
		for _, addr := range a.inc.departed {
			updates[addr] = 0
		}
		return r.newMessage(MsgAssign, AssignBody{Round: a.round, BaseRound: a.inc.lg.installedRound, Updates: updates})
	})
}

// notify tells the clients their allocations. On an incremental plan the
// fan-out is change-suppressed: a client is told only when some entry of
// its row moved beyond DeltaEps of its demand against what it was last
// told (clients with no committed row always are); the rest pull on
// demand. A full cohorted round batches instead: every member of a cohort
// receives the same prebuilt message — the cohort's per-unit split over
// its feasible replicas — and scales it by its own submitted demand, so
// the phase costs |K| marshals + |C| sends rather than |C| marshals of
// |N|-entry maps. Client failures never abort a round: the other clients'
// allocations stand, and client.allocation.pull is the recovery path.
func (r *ReplicaServer) notify(ctx context.Context, a *attempt) {
	clients, infos := a.full.spec.ClientAddrs, a.full.infos
	tell := make([]int, 0, len(clients))
	for i := range clients {
		moved := a.kind != kindIncremental || a.inc.prev[i] == nil
		if !moved {
			tol := r.cfg.DeltaEps * math.Max(a.full.prob.Demands[i], 1e-12)
			for j, v := range a.x[i] {
				if math.Abs(v-a.inc.prev[i][j]) > tol {
					moved = true
					break
				}
			}
		}
		if moved {
			tell = append(tell, i)
		}
	}
	a.suppressed = len(clients) - len(tell)

	var batched []transport.Message
	if g := a.grouping; g != nil && a.kind == kindFull {
		_, redSp := g.Sparse()
		batched = make([]transport.Message, g.K())
		for k := range batched {
			cols := redSp.ColIdx[redSp.RowStart[k]:redSp.RowStart[k+1]]
			body := CohortAllocationBody{
				Round:      a.round,
				Algorithm:  r.cfg.Algorithm.String(),
				Iterations: a.iterations,
				Replicas:   make([]string, len(cols)),
				UnitMB:     make([]float64, len(cols)),
			}
			sum := 0.0
			for t, j := range cols {
				body.Replicas[t] = infos[j].Addr
				body.UnitMB[t] = math.Max(a.solved[k][j], 0)
				sum += body.UnitMB[t]
			}
			for t := range body.UnitMB {
				if sum > 0 {
					body.UnitMB[t] /= sum
				} else {
					body.UnitMB[t] = 1 / float64(len(cols))
				}
			}
			// A body that fails to marshal leaves its members to pull.
			batched[k], _ = r.newMessage(MsgCohortAllocation, body)
		}
	}
	_ = engine.FanOut(ctx, len(tell), func(ctx context.Context, t int) error {
		i := tell[t]
		if batched != nil {
			if msg := batched[a.grouping.CohortOf(i)]; msg.Type != "" {
				_, _ = r.sendMsgRetry(ctx, clients[i], msg)
			}
			return nil
		}
		per := make(map[string]float64, len(infos))
		for j, info := range infos {
			if a.x[i][j] > 0 {
				per[info.Addr] = a.x[i][j]
			}
		}
		body := AllocationBody{
			Round:        a.round,
			PerReplicaMB: per,
			Algorithm:    r.cfg.Algorithm.String(),
			Iterations:   a.iterations,
		}
		_, _ = r.sendRetry(ctx, clients[i], MsgAllocation, body)
		return nil
	})
}

// commit records the attempt's outcome and reports it. It is the only
// writer of the committed round: the fallback for degraded rounds, the
// seed of the next warm start, the reference of the next incremental diff
// and what client.allocation.pull serves. A degraded round reports without
// committing — its stale split must not displace the last optimized one.
func (r *ReplicaServer) commit(a *attempt) *RoundReport {
	report := &RoundReport{
		Round:              a.round,
		Algorithm:          r.cfg.Algorithm.String(),
		Iterations:         a.iterations,
		Restarts:           a.restarts,
		ReplicaAddrs:       addrsOf(a.full.infos),
		ClientAddrs:        a.full.spec.ClientAddrs,
		Assignment:         a.x,
		Objective:          a.full.prob.Cost(a.x),
		Degraded:           a.kind == kindDegraded,
		WarmStarted:        a.solveSpec != nil && a.solveSpec.Warm != nil,
		Incremental:        a.kind == kindIncremental || a.kind == kindClean,
		SuppressedNotifies: a.suppressed,
		Residuals:          a.trace.residuals,
		Costs:              a.trace.costs,
	}
	if a.grouping != nil {
		report.Cohorts = a.grouping.K()
		report.CohortRatio = a.grouping.Ratio()
	}
	if a.kind == kindDegraded {
		r.Stats.RoundsDegraded.Inc(1)
		return report
	}
	if report.Incremental {
		r.Stats.RoundsIncremental.Inc(1)
	}
	if a.kind == kindIncremental {
		report.DirtyClients = len(a.sub.requests)
		report.SubsolveGap = a.subGap
	}
	lg := &lastGoodRound{
		round:          a.round,
		infos:          a.full.infos,
		clientAddrs:    report.ClientAddrs,
		assignment:     a.x,
		mus:            a.mus,
		prob:           a.full.prob,
		installed:      a.x,
		installedRound: a.round,
	}
	if a.kind == kindClean {
		// The fleet still serves the last installed plan — nothing was
		// fanned out this round — so the install reference carries over.
		lg.installed, lg.installedRound = a.inc.lg.installed, a.inc.lg.installedRound
	} else {
		r.startsSinceInstall.Store(0)
	}
	r.mu.Lock()
	r.lastGood = lg
	// Cache each participant's model parameters for the autoscaler's
	// pricing signal.
	for _, info := range a.full.infos {
		r.infoCache[info.Addr] = info
	}
	r.mu.Unlock()
	return report
}
