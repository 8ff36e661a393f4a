package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
// per-replica join on the round path is a merge of sorted lists. lats[i]
// is the latency list row i's feasibility row was built from.
type instance struct {
	requests []*RequestBody
	infos    []ReplicaInfo
	spec     *RoundSpec
	prob     *opt.Problem
	lats     [][]Latency
}

// addrsOf lists the replicas' addresses in column order.
func addrsOf(infos []ReplicaInfo) []string {
	addrs := make([]string, len(infos))
	for j, info := range infos {
		addrs[j] = info.Addr
	}
	return addrs
}

// sameRoster reports whether a and b list the same replicas in the same
// order.
func sameRoster(a, b []ReplicaInfo) bool {
	return slices.EqualFunc(a, b, func(x, y ReplicaInfo) bool { return x.Addr == y.Addr })
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
	// inc is the diff against the committed round with the merged rows
	// (incremental and clean plans only).
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
		a.inc.measure(a.full.prob, a.x)
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
	req, err := transport.NewMessage(MsgReplicaInfo, r.Addr(), nil)
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

// instantiate states the round's full instance (see state), reusing what
// the committed round built.
func (r *ReplicaServer) instantiate(round int, in *instance) error {
	return in.state(round, r.committed(), r.cfg.MaxLatencySec)
}

// state fills in.spec, in.prob and in.lats from in.requests × in.infos:
// each request's latency list is merged with the infos, both ascending by
// replica address, into one row of the feasibility mask; a replica the
// client did not measure, or measured beyond maxLatency, is not a
// candidate. No latency value goes further.
//
// A row whose request carries the very list the committed round (lg, nil
// for none) built its row from — what a handle-form resubmission resolves
// to, and stored lists are never modified — over the same roster is that
// committed mask row, shared; the other rows are carved from one backing
// array. When every row is shared and the client roster is the committed
// one, the instance also shares the committed addresses, mask and sparsity
// view, and allocates only its demands.
func (in *instance) state(round int, lg *lastGoodRound, maxLatency float64) error {
	for j := 1; j < len(in.infos); j++ {
		if in.infos[j].Addr <= in.infos[j-1].Addr {
			return fmt.Errorf("core: round %d: replica %s does not ascend past %s", round, in.infos[j].Addr, in.infos[j-1].Addr)
		}
	}
	c, n := len(in.requests), len(in.infos)
	in.spec = &RoundSpec{Round: round, Replicas: in.infos, Demands: make([]float64, c)}
	// old, oldAddrs and oldLats are the committed rows, when they were built
	// over this roster.
	var (
		old      [][]bool
		oldAddrs []string
		oldLats  [][]Latency
	)
	if lg != nil && lg.lats != nil && sameRoster(in.infos, lg.infos) {
		old, oldAddrs, oldLats = lg.prob.Allowed(), lg.clientAddrs, lg.lats
	}
	// identical holds while every row so far is the committed row of the
	// same index; the per-row arrays are allocated, holding the rows so
	// far, once it fails.
	identical, fresh, o := old != nil && len(oldAddrs) == c, 0, 0
	split := func(i int) {
		identical = false
		in.spec.ClientAddrs = append(make([]string, 0, c), oldAddrs[:i]...)[:c]
		in.spec.Feasible = append(make([][]bool, 0, c), old[:i]...)[:c]
		in.lats = append(make([][]Latency, 0, c), oldLats[:i]...)[:c]
	}
	if !identical {
		split(0)
	}
	for i, req := range in.requests {
		in.spec.Demands[i] = req.DemandMB
		for o < len(oldAddrs) && oldAddrs[o] < req.ClientAddr {
			o++
		}
		var row []bool
		if o < len(oldAddrs) && oldAddrs[o] == req.ClientAddr {
			if lat := oldLats[o]; len(lat) > 0 && len(lat) == len(req.LatencySec) && &lat[0] == &req.LatencySec[0] {
				row = old[o]
			}
			o++
		}
		if identical && (row == nil || o-1 != i) {
			split(i)
		}
		if !identical {
			in.spec.ClientAddrs[i], in.spec.Feasible[i], in.lats[i] = req.ClientAddr, row, req.LatencySec
			if row == nil {
				fresh++
			}
		}
	}
	if identical {
		in.spec.ClientAddrs, in.spec.Feasible, in.lats = oldAddrs, old, oldLats
		var err error
		if in.prob, err = specProblem(in.spec); err == nil {
			// The committed sparsity view indexes this very mask.
			in.prob.PrimeMask(old, lg.prob.Sparsity())
		}
		return err
	}
	cells := make([]bool, fresh*n)
	for i, req := range in.requests {
		if in.spec.Feasible[i] != nil {
			continue
		}
		row, lat := cells[:n:n], req.LatencySec
		cells = cells[n:]
		in.spec.Feasible[i] = row
		for j, info := range in.infos {
			// Mostly the lists match entry for entry, so test equality first.
			for len(lat) > 0 {
				if lat[0].Replica == info.Addr {
					row[j], lat = lat[0].Sec <= maxLatency, lat[1:]
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
		if err := a.sub.state(a.round, nil, r.cfg.MaxLatencySec); err != nil {
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
// initiator, which holds every algorithm's iterate.
func (r *ReplicaServer) warm(a *attempt) {
	if a.kind == kindDegraded {
		a.x, _ = r.warmStart(&a.full)
		return
	}
	var warm [][]float64
	var mu []float64
	if a.kind == kindIncremental {
		// The plan already knows each dirty row's committed row.
		rows := make([]int, len(a.sub.requests))
		for idx := range rows {
			rows[idx] = a.inc.committedRow(a.row(idx))
		}
		warm, mu = r.warmFrom(a.inc.lg, &a.sub, rows)
	} else {
		warm, mu = r.warmStart(&a.sub)
	}
	a.warm, a.warmMu = nil, mu
	switch g := a.grouping; {
	case warm == nil:
	case g != nil:
		a.warm = g.AggregateRowsPacked(warm)
		if mu != nil {
			a.warmMu = g.AggregateDuals(mu)
		}
	default:
		a.warm = a.solveProb.Sparsity().Gather(warm)
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
	return r.warmFrom(lg, in, align(in.spec.ClientAddrs, lg.clientAddrs, nil))
}

// warmFrom is warmStart from the committed round lg, with rowMap[i] the
// committed row of the instance's row i (−1 for none). The committed rows
// are copied into a fresh matrix, which Renormalize rescales in place.
func (r *ReplicaServer) warmFrom(lg *lastGoodRound, in *instance, rowMap []int) ([][]float64, []float64) {
	colMap := align(addrsOf(in.infos), addrsOf(lg.infos), nil)
	weights := opt.NewMatrix(len(in.requests), len(in.infos))
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
	req, err := transport.NewMessage(MsgRoundStart, r.Addr(), a.solveSpec)
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
		x0 := opt.NewMatrix(sp.C, sp.N) // all zeros, an infeasible start, when cold
		if a.warm != nil {
			sp.Scatter(x0, a.warm)
		}
		res, err := opt.FrankWolfeFrom(a.solveProb, x0, opt.FWOptions{})
		if err != nil {
			return err
		}
		a.solved = sp.Gather(res.X)
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
// sparsity views); each result row, zero until now, is then filled from
// its packed segment, so the only dense |C|×|N| matrix built is the one
// the report and the warm-start history need anyway. On an incremental
// plan the result is the plan's merged rows — the committed rows, shared
// or rescaled — with the dirty rows filled in, and must pass the gate
// before anything is installed.
func (r *ReplicaServer) expand(a *attempt) error {
	if a.kind == kindIncremental {
		a.x = a.inc.base
	} else {
		a.x = opt.NewMatrix(a.full.prob.C(), a.full.prob.N()) // escapes into the report
	}
	packed, sp := a.solved, a.sub.prob.Sparsity()
	if g := a.grouping; g != nil {
		var err error
		if packed, err = g.DisaggregatePacked(a.solved); err != nil {
			return err
		}
	}
	for idx := range a.sub.requests {
		row := a.x[a.row(idx)]
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
// positive entries alone travel. The diff walks only the plan's changed
// rows when the base is the committed assignment itself: every other row
// is then the base row, shared. After a clean commit the fleet still
// serves an older install, which any row may differ from, so the diff
// walks every row. Each replica's body is written straight from the rows
// (assignDiff.body).
func (r *ReplicaServer) install(ctx context.Context, a *attempt) error {
	d := assignDiff{round: a.round, clients: a.full.spec.ClientAddrs, x: a.x, every: true}
	// The delta's base state must still be among the roundStatesKept newest
	// on every member: it is, unless that many rounds were started since it
	// was installed (a long outage served by degraded rounds).
	if a.kind == kindIncremental && r.startsSinceInstall.Load() < roundStatesKept && a.inc.instPrev != nil {
		d.base, d.baseRound, d.departed = a.inc.instPrev, a.inc.lg.installedRound, a.inc.departed
		if a.inc.lg.installedRound == a.inc.lg.round {
			d.rows, d.every = a.inc.changed, false
		}
	}
	return r.toReplicas(ctx, a, func(j int) (transport.Message, error) {
		body, err := d.body(j)
		if err != nil {
			return transport.Message{}, fmt.Errorf("core: %s body: %w", MsgAssign, err)
		}
		return transport.Message{Type: MsgAssign, From: r.Addr(), Body: body}, nil
	})
}

// assignDiff is what install sends the replicas: for each column, the
// entries of x that differ from base (the empty plan when nil) over every
// row or over rows, merged with the departed clients' removals.
type assignDiff struct {
	round, baseRound int
	clients          []string
	x, base          [][]float64
	every            bool  // walk every row
	rows             []int // else these, ascending
	departed         []string
}

// body is column j's replica.assign body: the column is walked twice,
// once to count and measure its entries and once to write them, so the body
// is its one allocation, of exactly its size. What it wrote passes through
// the AssignBody decoder (checkAssign), as MarshalBinary's output does.
func (d *assignDiff) body(j int) ([]byte, error) {
	var w transport.Writer
	n, size, measuring := 0, 0, true
	put := func(addr string, v float64) {
		if measuring {
			n++
			size += 2 + len(addr) + 8
			return
		}
		w.Str(addr)
		w.F64(v)
	}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			measuring = false
			w = transport.NewWriter(make([]byte, 0, 12+size))
			w.U32(d.round)
			w.U32(d.baseRound)
			w.U32(n)
		}
		departed := d.departed
		rows := len(d.rows)
		if d.every {
			rows = len(d.clients)
		}
		for t := 0; t < rows; t++ {
			i := t
			if !d.every {
				i = d.rows[t]
			}
			addr, v := d.clients[i], d.x[i][j]
			if d.base == nil || d.base[i] == nil {
				// The base holds no entry for the client: one ≤ 0 stays out.
				if !(v > 0) {
					continue
				}
			} else if v == d.base[i][j] {
				continue
			}
			for len(departed) > 0 && departed[0] < addr {
				put(departed[0], 0)
				departed = departed[1:]
			}
			put(addr, v)
		}
		for _, addr := range departed {
			put(addr, 0)
		}
	}
	return checkAssign(w.Done())
}

// notify tells the clients their allocations. On an incremental plan the
// fan-out is change-suppressed: a client is told only when some entry of
// its row moved beyond DeltaEps of its demand against what it was last
// told (clients with no committed row always are); the rest pull on
// demand. Only the plan's changed rows are compared: every other row is
// the committed row itself. A full cohorted round batches instead: every
// member of a cohort receives the same prebuilt message — the cohort's
// per-unit split — and scales it by its own queued demand, so the phase
// costs |K| marshals + |C| sends rather than |C| marshals. Every push
// names the replicas by the round's roster hash (the short form); a client
// that does not hold that roster answers with a miss and is sent the full
// form, which lists it, in the same fan-out slot. Client failures never
// abort a round: the other clients' allocations stand, and
// client.allocation.pull is the recovery path.
func (r *ReplicaServer) notify(ctx context.Context, a *attempt) {
	clients, roster := a.full.spec.ClientAddrs, addrsOf(a.full.infos)
	// A full round tells every row; tell lists the rows an incremental
	// round tells.
	every, told := a.kind != kindIncremental, len(clients)
	var tell []int
	if !every {
		tell = make([]int, 0, len(a.inc.changed))
		for _, i := range a.inc.changed {
			moved := a.inc.prev[i] == nil
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
		told = len(tell)
	}
	a.suppressed = len(clients) - told

	h := pushHeader{round: a.round, algorithm: r.cfg.Algorithm.String(), iterations: a.iterations, roster: roster, hash: rosterHash(roster)}
	// A body that fails to marshal is no message (no Type): its clients
	// are left to pull.
	message := func(verb string, vals []float64, full bool) transport.Message {
		b, err := h.marshal(vals, full)
		if err != nil {
			return transport.Message{}
		}
		return transport.Message{Type: verb, From: r.Addr(), Body: b}
	}
	var short, full []transport.Message
	if g := a.grouping; g != nil && a.kind == kindFull {
		_, redSp := g.Sparse()
		short, full = make([]transport.Message, g.K()), make([]transport.Message, g.K())
		unit := make([]float64, len(roster))
		for k := range short {
			clear(unit)
			cols := redSp.ColIdx[redSp.RowStart[k]:redSp.RowStart[k+1]]
			sum := 0.0
			for t, j := range cols {
				unit[j] = math.Max(a.solved[redSp.RowStart[k]+t], 0)
				sum += unit[j]
			}
			for _, j := range cols {
				if sum > 0 {
					unit[j] /= sum
				} else {
					unit[j] = 1 / float64(len(cols))
				}
			}
			short[k], full[k] = message(MsgCohortAllocation, unit, false), message(MsgCohortAllocation, unit, true)
		}
	}
	_ = engine.FanOut(ctx, told, r.cfg.RPCTimeout, func(ctx context.Context, i int) error {
		if !every {
			i = tell[i]
		}
		if short != nil {
			k := a.grouping.CohortOf(i)
			r.push(ctx, clients[i], short[k], func() transport.Message { return full[k] })
			return nil
		}
		r.push(ctx, clients[i], message(MsgAllocation, a.x[i], false), func() transport.Message { return message(MsgAllocation, a.x[i], true) })
		return nil
	})
}

// push sends a client its allocation in the short form and, when the
// client answers that it does not hold the roster the push names, the full
// form: both land before the fan-out slot returns. A message with no Type
// is not sent.
func (r *ReplicaServer) push(ctx context.Context, to string, short transport.Message, full func() transport.Message) {
	if short.Type == "" {
		return
	}
	resp, err := r.sendMsgRetry(ctx, to, short)
	if err != nil || !rosterMissed(resp) {
		return
	}
	if msg := full(); msg.Type != "" {
		_, _ = r.sendMsgRetry(ctx, to, msg)
	}
}

// objective is the result's energy cost: on an incremental or clean plan
// the plan's audit already took it from the merged matrix.
func (a *attempt) objective() float64 {
	if a.kind == kindIncremental || a.kind == kindClean {
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
	lg := &lastGoodRound{
		round:          a.round,
		infos:          a.full.infos,
		clientAddrs:    report.ClientAddrs,
		lats:           a.full.lats,
		assignment:     a.x,
		mus:            a.mus,
		prob:           a.full.prob,
		installed:      a.x,
		installedRound: a.round,
	}
	if a.kind == kindIncremental {
		report.DirtyClients = len(a.sub.requests)
		report.SubsolveGap = a.subGap
	}
	if report.Incremental {
		r.Stats.RoundsIncremental.Inc(1)
		// The plan's audit measured this very matrix on this very problem:
		// the next plan's baseGap and audit state.
		lg.audit, lg.kktGap = a.inc.step.Carry(), a.inc.audit.KKTGap
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
