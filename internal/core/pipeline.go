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
// order) and the opt.Problem it describes. Requests ascend strictly by
// client address and infos by replica address, so every per-client or
// per-replica join on the round path is a merge of sorted lists.
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
	// warm and warmMu seed the solve (nil when cold); warm is packed over
	// solveProb's sparsity in CSR order.
	warm   []float64
	warmMu []float64
	trace  roundTrace
	// solved is the solve's output, packed like warm; duals are its rows'
	// final dual values (nil when the method reports none).
	solved     []float64
	iterations int
	duals      []float64
	// subGap is the duality gap the incremental plan's central sub-solve
	// stopped on: its certified distance from the sub-instance's optimum.
	subGap float64
	// x is the round's result, rows × columns of full; mus the per-client
	// duals kept for the next warm start; suppressed the clients whose
	// allocation push was withheld because their row did not move.
	x          [][]float64
	mus        []float64
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
		a.x, a.mus, a.suppressed = a.inc.base, a.inc.mus(), len(a.full.requests)
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
	req, err := r.newMessage(MsgReplicaInfo, nil)
	if err != nil {
		return err
	}
	infos := make([]ReplicaInfo, len(members))
	if err := engine.FanOut(ctx, len(members), r.cfg.RPCTimeout, func(ctx context.Context, i int) error {
		resp, err := r.sendReplicaMsg(ctx, members[i], req)
		if err != nil {
			return err
		}
		return resp.DecodeBody(&infos[i])
	}); err != nil {
		return err
	}
	// Deterministic column order, mirroring the request-row sort: byte
	// keys in the cohort registry stay aligned across rounds of a stable
	// roster, and instantiate, the incremental diff and the warm start join
	// columns by merging sorted addresses.
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

// instantiate fills in.spec and in.prob from in.requests × in.infos: each
// request's latency list is merged with the infos, both ascending by
// replica address, into one row of the feasibility mask, carved from one
// backing array; a replica the client did not measure, or measured beyond
// the bound, is not a candidate. No latency value goes further.
func (r *ReplicaServer) instantiate(round int, in *instance) error {
	for j := 1; j < len(in.infos); j++ {
		if in.infos[j].Addr <= in.infos[j-1].Addr {
			return fmt.Errorf("core: round %d: replica %s does not ascend past %s", round, in.infos[j].Addr, in.infos[j-1].Addr)
		}
	}
	c, n := len(in.requests), len(in.infos)
	in.spec = &RoundSpec{
		Round:       round,
		Replicas:    in.infos,
		ClientAddrs: make([]string, c),
		Demands:     make([]float64, c),
		Feasible:    make([][]bool, c),
	}
	cells := make([]bool, c*n)
	for i, req := range in.requests {
		in.spec.ClientAddrs[i], in.spec.Demands[i] = req.ClientAddr, req.DemandMB
		row, lat := cells[i*n:(i+1)*n:(i+1)*n], req.LatencySec
		in.spec.Feasible[i] = row
		for j, info := range in.infos {
			// Mostly the lists match entry for entry, so test equality first.
			for len(lat) > 0 {
				if lat[0].Replica == info.Addr {
					row[j], lat = lat[0].Sec <= r.cfg.MaxLatencySec, lat[1:]
					break
				}
				if lat[0].Replica > info.Addr {
					break
				}
				lat = lat[1:] // a replica outside the round
			}
		}
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
// clients sharing a feasibility mask become one virtual client. The objective depends on an assignment only through per-replica
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
		g, _, err := r.registry.Group(a.sub.prob, cohort.Options{})
		if err == nil && g.K() < a.sub.prob.C() {
			a.grouping = g
			a.solveProb = g.Reduced()
			a.solveSpec = &RoundSpec{
				Round:       a.round,
				Replicas:    a.sub.infos,
				Demands:     a.solveProb.Demands,
				Feasible:    a.solveProb.Allowed(),
				ClientAddrs: make([]string, g.K()),
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
// The seed is packed over the solve's support: cohorted solves fold the
// per-client history straight into the cohorts' slots (and per-client
// duals into demand-weighted cohort duals). For a degraded round the
// renormalized history is not a seed but the result. The seed stays on the
// initiator, which holds every algorithm's iterate; its pooled buffers are
// done being read before the attempt releases them, once the solve has
// consumed it.
func (r *ReplicaServer) warm(a *attempt) {
	if a.kind == kindDegraded {
		a.x, _ = r.warmStart(&a.full)
		return
	}
	warm, mu := r.warmStart(&a.sub)
	a.warm, a.warmMu = nil, mu
	sp := a.solveProb.Sparsity()
	switch g := a.grouping; {
	case warm == nil:
	case g != nil:
		a.warm = g.AggregateRowsPacked(warm, r.pool.Vector(sp.NNZ()))
		if mu != nil {
			a.warmMu = g.AggregateDualsInto(mu, r.pool.Vector(g.K()))
		}
	default:
		a.warm = sp.Gather(r.pool.Vector(sp.NNZ()), warm)
	}
}

// warmStart builds the instance's warm-start matrix (and, when the
// committed round reported duals, the per-client dual seed) from the
// last-known-good assignment: old columns are aligned to the new roster by
// replica address and old rows to the new request set by client address
// (merges of sorted addresses, see align), then the whole matrix is
// renormalized so every row conserves its demand within this round's
// capacity and latency constraints. Returns nils when there is no history
// to warm from.
func (r *ReplicaServer) warmStart(in *instance) ([][]float64, []float64) {
	lg := r.committed()
	if lg == nil {
		return nil, nil
	}
	colMap := align(addrsOf(in.infos), addrsOf(lg.infos), nil)
	rowMap := align(in.spec.ClientAddrs, lg.clientAddrs, nil)
	// Pooled scratch: Renormalize allocates its own output, so weights is
	// dead once it returns.
	weights := r.pool.Matrix(len(in.requests), len(in.infos))
	var newCols []int
	for j, oj := range colMap {
		if oj < 0 {
			newCols = append(newCols, j)
		}
	}
	for i, row := range rowMap {
		if row < 0 {
			continue // new client: Renormalize spreads it uniformly
		}
		total, kept := 0.0, 0.0
		for _, v := range lg.assignment[row] {
			total += v
		}
		for j, oj := range colMap {
			if oj >= 0 {
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
		for i, row := range rowMap {
			if row >= 0 {
				warmMu[i] = lg.mus[row] // new clients start from zero
			}
		}
	}
	return opt.Renormalize(weights, in.prob.Demands, caps, in.prob.Allowed()), warmMu
}

// toReplicas sends msg(j) to every column's replica in one wave. A
// failure is pinned on the member so RunRound can prune it and restart —
// except on a degraded round, which is best-effort: a replica it cannot
// reach keeps its previous plan, exactly the fallback being republished.
func (r *ReplicaServer) toReplicas(ctx context.Context, a *attempt, msg func(j int) (transport.Message, error)) error {
	return engine.FanOut(ctx, len(a.full.infos), r.cfg.RPCTimeout, func(ctx context.Context, j int) error {
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
		// The central sub-solve is the one dense step: the seed scatters
		// into it and its answer is gathered back out.
		sp := a.solveProb.Sparsity()
		x0 := r.pool.Matrix(sp.C, sp.N) // all zeros, an infeasible start, when cold
		if a.warm != nil {
			sp.Scatter(x0, a.warm)
		}
		res, err := opt.FrankWolfeFrom(a.solveProb, x0, opt.FWOptions{})
		if err != nil {
			return err
		}
		a.solved = sp.Gather(r.pool.Vector(sp.NNZ()), res.X)
		a.iterations, a.subGap = res.Iterations, res.Gap
		if !res.Converged {
			r.Stats.SubsolveUnconverged.Inc(1)
			return errEscalateFull
		}
		return nil
	}
	a.trace = roundTrace{observe: r.cfg.Telemetry.Active()}
	driver := &engine.Driver{
		Transport: roundTransport{r},
		Timeout:   r.cfg.RPCTimeout,
		Observe:   a.trace.observe,
		OnIterate: func(_ int, residual, cost float64) { a.trace.add(residual, cost) },
	}
	rd := &engine.Round{
		Seq:          a.round,
		Prob:         a.solveProb,
		ReplicaAddrs: addrsOf(a.full.infos),
		MaxIters:     r.cfg.MaxIters,
		Tol:          r.cfg.Tol,
		Warm:         a.warm,
		WarmMu:       a.warmMu,
		Pool:         r.pool,
	}
	alg := r.alg.New()
	var err error
	if a.solved, a.iterations, err = driver.Run(ctx, alg, rd); err != nil {
		// A refused reply is the sender's failure: RunRound restarts
		// without it, or degrades, as it would for an unreachable member.
		var refused *engine.RefusedReplyError
		if errors.As(err, &refused) {
			return &failedMemberError{addr: refused.Addr, err: err}
		}
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
// sparsity views); each result row is then filled from its packed
// segment, so the only dense |C|×|N| matrix built is the one the report
// and the warm-start history need anyway. On an incremental plan the
// result is the scaffold — the rescaled committed assignment — with the
// dirty rows filled in, and must pass the gate before anything is
// installed.
func (r *ReplicaServer) expand(a *attempt) error {
	if a.kind == kindIncremental {
		a.x = a.inc.base
	} else {
		a.x = opt.NewMatrix(a.full.prob.C(), a.full.prob.N()) // escapes into the report
	}
	packed, sp := a.solved, a.sub.prob.Sparsity()
	if g := a.grouping; g != nil {
		var err error
		if packed, err = g.DisaggregatePacked(a.solved, nil); err != nil {
			return err
		}
	}
	for idx := range a.sub.requests {
		// A dirty row's old mass may sit on a column it can no longer
		// reach, where its packed segment has no slot.
		row := a.x[a.row(idx)]
		clear(row)
		for k := sp.RowStart[idx]; k < sp.RowStart[idx+1]; k++ {
			row[sp.ColIdx[k]] = packed[k]
		}
	}
	if a.kind == kindIncremental {
		return a.inc.gate(a.full.prob, a.x)
	}
	return nil
}

// settleDuals fixes the per-client duals the next warm start seeds from,
// one per row of the full instance. μ is a per-unit congestion price: every
// member of a cohort inherits its cohort's dual, so the duals cover the
// full client set either way. An incremental plan's central solve reports
// none, so clean clients keep their committed μ and each solved row gets a
// first-order estimate — the highest marginal cost among the columns now
// serving it. That overlay is skipped when the committed round carried no
// duals: a partial one would hand the next warm start zeros for every clean
// client.
//
// While the row set is the committed one the overlay writes the committed
// vector in place, as a clean plan aliases it: rounds run one at a time and
// nothing else reads it, so a quiet round pays for its solved rows, not for
// |C|. A round whose clients joined or departed remaps it once
// (incrementalPlan.mus).
func (r *ReplicaServer) settleDuals(a *attempt) {
	a.mus = nil
	if a.kind == kindIncremental {
		if a.mus = a.inc.mus(); a.mus == nil {
			return
		}
		prob, price := a.full.prob, a.inc.audit.Marginal
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
		a.mus = make([]float64, len(a.full.requests))
	}
	for k, v := range a.duals {
		for _, c := range a.members(k) {
			a.mus[a.row(c)] = v
		}
	}
}

// install puts the result on the replicas, each getting the entries of its
// own column that differ from a base plan, in row order — which ascends by
// client, as the wire requires. When the committed round's install is
// still addressable on every member, an incremental plan diffs against it:
// O(dirty) entries instead of the whole column, merged with the departed
// clients' removals. Otherwise the base is the empty plan and the column's
// positive entries alone travel.
func (r *ReplicaServer) install(ctx context.Context, a *attempt) error {
	clients := a.full.spec.ClientAddrs
	// The delta's base state must still be among the roundStatesKept newest
	// on every member: it is, unless that many rounds were started since it
	// was installed (a long outage served by degraded rounds).
	var base [][]float64
	if a.kind == kindIncremental && r.startsSinceInstall.Load() < roundStatesKept {
		base = a.inc.instPrev
	}
	baseRound, departed := 0, []string(nil)
	if base != nil {
		baseRound, departed = a.inc.lg.installedRound, a.inc.departed
	}
	return r.toReplicas(ctx, a, func(j int) (transport.Message, error) {
		var updates []ClientMB
		if base == nil {
			served := 0
			for _, row := range a.x {
				if row[j] > 0 {
					served++
				}
			}
			updates = make([]ClientMB, 0, served)
		}
		departed := departed
		for i, addr := range clients {
			v := a.x[i][j]
			if base == nil || base[i] == nil {
				// The base holds no entry for the client: one ≤ 0 stays out.
				if !(v > 0) {
					continue
				}
			} else if v == base[i][j] {
				continue
			}
			for len(departed) > 0 && departed[0] < addr {
				updates = append(updates, ClientMB{departed[0], 0})
				departed = departed[1:]
			}
			updates = append(updates, ClientMB{addr, v})
		}
		for _, addr := range departed {
			updates = append(updates, ClientMB{addr, 0})
		}
		return r.newMessage(MsgAssign, AssignBody{Round: a.round, BaseRound: baseRound, Updates: updates})
	})
}

// notify tells the clients their allocations. On an incremental plan the
// fan-out is change-suppressed: a client is told only when some entry of
// its row moved beyond DeltaEps of its demand against what it was last
// told (clients with no committed row always are); the rest pull on
// demand. A full cohorted round batches instead: every member of a cohort
// receives the same prebuilt message — the cohort's per-unit split over
// its feasible replicas — and scales it by its own queued demand, so
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
				body.UnitMB[t] = math.Max(a.solved[redSp.RowStart[k]+t], 0)
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
	_ = engine.FanOut(ctx, len(tell), r.cfg.RPCTimeout, func(ctx context.Context, t int) error {
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
		if msg, err := r.newMessage(MsgAllocation, body); err == nil {
			_, _ = r.sendMsgRetry(ctx, clients[i], msg)
		}
		return nil
	})
}

// objective is the result's energy cost: on an incremental plan the gate
// already took it from the merged matrix.
func (a *attempt) objective() float64 {
	if a.kind == kindIncremental {
		return a.inc.audit.Cost
	}
	return a.full.prob.Cost(a.x)
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
		Objective:          a.objective(),
		Degraded:           a.kind == kindDegraded,
		WarmStarted:        a.warm != nil,
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
	if a.kind == kindIncremental {
		report.DirtyClients = len(a.sub.requests)
		report.SubsolveGap = a.subGap
		// The gate measured this very matrix on this very problem: the
		// next plan's baseGap.
		lg.kktGap, lg.gapKnown = a.inc.audit.KKTGap, true
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
