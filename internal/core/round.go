package core

import (
	"context"
	"encoding"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"edr/internal/engine"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// RoundReport summarizes a completed scheduling round. It is also the
// JSON document the admin plane embeds in /status.
type RoundReport struct {
	// Round is the initiator-local round id.
	Round int `json:"round"`
	// Algorithm names the method used.
	Algorithm string `json:"algorithm"`
	// Iterations is how many distributed iterations ran.
	Iterations int `json:"iterations"`
	// Restarts counts ring-failure restarts the round survived.
	Restarts int `json:"restarts"`
	// ReplicaAddrs and ClientAddrs give the final participants in
	// column/row order.
	ReplicaAddrs []string `json:"replica_addrs"`
	ClientAddrs  []string `json:"client_addrs"`
	// Assignment is the final load split (clients × replicas). Its rows
	// are never written after commit, and consecutive reports may share
	// them: a quiet round reuses every row it did not change. Copy a row
	// before changing it.
	Assignment [][]float64 `json:"assignment"`
	// Objective is the total energy cost of the assignment.
	Objective float64 `json:"objective"`
	// Degraded reports that coordination kept failing after RoundRetries
	// restarts and the round fell back to the last-known-good assignment
	// renormalized over the reachable replicas. Demand is still fully
	// assigned, but the split is stale rather than re-optimized.
	Degraded bool `json:"degraded"`
	// WarmStarted reports that the solvers were seeded from the previous
	// round's assignment renormalized over this round's roster instead of
	// the cold uniform start, which only a round with no history takes.
	WarmStarted bool `json:"warm_started,omitempty"`
	// Cohorts is the number of virtual clients the distributed loop
	// solved over when cohort aggregation was active (see
	// ReplicaConfig.CohortMinClients); 0 means the round ran at raw
	// client granularity. ClientAddrs and Assignment are always
	// per-client either way — disaggregation happens before install.
	Cohorts int `json:"cohorts,omitempty"`
	// CohortRatio is the grouping's compression ratio |C|/|K|
	// (0 when ungrouped).
	CohortRatio float64 `json:"cohort_ratio,omitempty"`
	// Incremental reports that the round re-solved only the dirty subset
	// of clients against residual capacity (see ReplicaConfig.Incremental),
	// with every clean client keeping its committed row. A round with
	// DirtyClients == 0 committed the previous assignment outright.
	Incremental bool `json:"incremental,omitempty"`
	// DirtyClients is how many clients the incremental diff re-solved. It
	// is set only on incremental rounds: full, escalated and degraded
	// rounds report 0.
	DirtyClients int `json:"dirty_clients,omitempty"`
	// SubsolveGap is the duality gap an incremental round's central
	// sub-solve stopped on after Iterations steps: a certified bound on how
	// far the dirty rows' cost sits above the sub-instance's optimum.
	SubsolveGap float64 `json:"subsolve_gap,omitempty"`
	// SuppressedNotifies counts clients not re-notified because their
	// allocation row moved at most DeltaEps of their demand.
	SuppressedNotifies int `json:"suppressed_notifies,omitempty"`
	// Duration is the wall time of the whole round, restarts included.
	Duration time.Duration `json:"duration_ns"`
	// Residuals and Costs are the per-iteration convergence residual and
	// energy-cost trajectories. They are recorded only when the replica's
	// telemetry bus has subscribers (ReplicaConfig.Telemetry), so the
	// round hot path does no extra work in an unobserved fleet. Residual
	// semantics are algorithm-specific: max relative demand residual for
	// LDDM, max absolute primal residual for ADMM, max estimate movement
	// for CDPSM. Costs is empty for CDPSM (the initiator holds no primal
	// iterate between consensus steps).
	Residuals []float64 `json:"residuals,omitempty"`
	Costs     []float64 `json:"costs,omitempty"`
}

// roundTrace accumulates per-iteration trajectories during the
// distributed loop; inert when observe is false.
type roundTrace struct {
	observe   bool
	residuals []float64
	costs     []float64
}

// add records one iteration's residual and cost (NaN cost = not
// available this algorithm/iteration).
func (tr *roundTrace) add(residual, cost float64) {
	if !tr.observe {
		return
	}
	tr.residuals = append(tr.residuals, residual)
	if !math.IsNaN(cost) {
		tr.costs = append(tr.costs, cost)
	}
}

// failedMemberError marks a coordination failure attributable to one
// replica; the round restarts without it.
type failedMemberError struct {
	addr string
	err  error
}

func (e *failedMemberError) Error() string {
	return fmt.Sprintf("core: member %s failed: %v", e.addr, e.err)
}

func (e *failedMemberError) Unwrap() error { return e.err }

// sendMsg performs one coordination RPC attempt of a prebuilt message. A
// first attempt sent from a wave runs under the wave's shared deadline
// (engine.FirstAttempt); a retry, or a send outside any wave, arms its own
// RPCTimeout.
func (r *ReplicaServer) sendMsg(ctx context.Context, attempt int, to string, req transport.Message) (transport.Message, error) {
	actx, ok := engine.FirstAttempt(ctx)
	if attempt > 0 || !ok {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.cfg.RPCTimeout)
		defer cancel()
	}
	resp, err := r.node.Send(actx, to, req)
	r.Stats.CoordMessages.Inc(1)
	return resp, err
}

// sendMsgRetry performs a coordination RPC of a prebuilt message, retrying
// transient failures up to SendRetries times with exponential backoff and
// jitter; retries resend the identical bytes. Retrying is safe because a
// failed attempt was never delivered (both fabrics fail sends before the
// destination handler runs), so a lost packet or a latency spike costs a
// retry, not a member's life. ctx is the wave's context, never an
// attempt's: retries stop as soon as the wave ends — a cancelled fan-out
// wave must not keep hammering a peer — while a first attempt that ran out
// its shared deadline is retried like any other lost attempt.
func (r *ReplicaServer) sendMsgRetry(ctx context.Context, to string, req transport.Message) (transport.Message, error) {
	var lastErr error
	for attempt := 0; attempt <= r.cfg.SendRetries; attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, r.cfg.RetryBase, attempt); err != nil {
				break
			}
			r.Stats.SendRetried.Inc(1)
			r.cfg.Telemetry.Publish(telemetry.RPCRetried{Peer: to, Verb: req.Type, Attempt: attempt})
		}
		resp, err := r.sendMsg(ctx, attempt, to, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the wave was cancelled, not the peer failing
		}
	}
	return transport.Message{}, lastErr
}

// sleepBackoff waits out backoff(base, attempt), honoring ctx
// cancellation.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	timer := time.NewTimer(backoff(base, attempt))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff is the wait before retry attempt (from 1): base·2^(attempt−1),
// at most 5 s, with ±50% jitter, which decorrelates the fleet's retry
// storms. The cap is applied before the shift, which would otherwise wrap
// to a negative wait from attempt 39 at the default 50 ms base.
func backoff(base time.Duration, attempt int) time.Duration {
	const ceiling = 5 * time.Second
	d := ceiling
	if shift := attempt - 1; shift < 63 && base <= ceiling>>shift {
		d = base << shift
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// sendReplicaMsg is sendMsgRetry with member-failure attribution: only after
// the retry budget is exhausted is the failure pinned on the destination.
func (r *ReplicaServer) sendReplicaMsg(ctx context.Context, to string, req transport.Message) (transport.Message, error) {
	resp, err := r.sendMsgRetry(ctx, to, req)
	if err != nil {
		if ctx.Err() != nil {
			// The round's own budget ran out (or its wave was cancelled)
			// mid-send. That is the initiator's failure, not the peer's:
			// attributing it would declare live members dead whenever a
			// slow round hits its deadline. ctx is the wave's, so a first
			// attempt's shared deadline running out does not count here.
			return transport.Message{}, err
		}
		return transport.Message{}, &failedMemberError{addr: to, err: err}
	}
	return resp, nil
}

// roundTransport adapts the replica's retry/attribution stack to the
// engine's Transport: sends carry member-failure attribution so RunRound
// can prune the peer and restart.
type roundTransport struct{ r *ReplicaServer }

func (t roundTransport) Replica(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (engine.Reply, error) {
	msg, err := transport.NewMessage(verb, t.r.Addr(), body)
	if err == nil {
		msg, err = t.r.sendReplicaMsg(ctx, addr, msg) // the zero message on error
	}
	return engine.Reply{Verb: msg.Type, Body: msg.Body}, err
}

// RunRound schedules all pending requests: it drains the queue and the
// standing clients, runs the configured distributed algorithm across the
// current ring, installs the assignment on the replicas, and notifies the
// clients; a drain that leaves no rows commits an empty round instead
// (commitEmpty). When a ring member fails mid-round — meaning every RPC
// retry to it was exhausted — the member is declared dead (pruned and
// broadcast, §III-C) and the round restarts on the survivors, up to
// RoundRetries times. When the retry budget itself is exhausted the round
// degrades instead of failing: the last-known-good assignment is
// renormalized over the reachable replicas and reported with Degraded set,
// so the fleet keeps serving through an outage the optimizer cannot
// coordinate across.
func (r *ReplicaServer) RunRound(ctx context.Context) (*RoundReport, error) {
	requests := r.drainPending()
	start := time.Now()
	if len(requests) == 0 {
		return r.commitEmpty(requests != nil, start)
	}
	r.Stats.RoundsInitiated.Inc(1)

	var lastErr error
	restarts := 0
	for try := 0; try <= r.cfg.RoundRetries; try++ {
		report, err := r.runAttempt(ctx, &attempt{restarts: restarts, full: instance{requests: requests}})
		if err == nil {
			r.finishRound(report, start)
			return report, nil
		}
		lastErr = err
		var fail *failedMemberError
		if try < r.cfg.RoundRetries && errors.As(err, &fail) && r.ring.Contains(fail.addr) && fail.addr != r.Addr() {
			// Prune the dead member, tell the survivors, retry.
			r.mon.DeclareDead(fail.addr)
			r.Stats.RoundsRestarted.Inc(1)
			restarts++
			continue
		}
		break
	}

	// Graceful degradation: a coordination failure with no retries left
	// falls back to the last-known-good split rather than erroring the
	// round. The failed member is excluded from the fallback but NOT
	// declared dead — if its failure was transient (a partition, a loss
	// burst) it rejoins the next round untouched. Non-coordination errors
	// (infeasible demand, bad specs) still surface: stale assignments
	// cannot fix a problem that was never solvable.
	var fail *failedMemberError
	if errors.As(lastErr, &fail) && ctx.Err() == nil {
		degraded := &attempt{restarts: restarts, full: instance{requests: requests}, kind: kindDegraded, failed: fail.addr}
		if report, err := r.runAttempt(ctx, degraded); err == nil {
			r.finishRound(report, start)
			r.cfg.Telemetry.Publish(telemetry.RoundDegraded{
				Round:        report.Round,
				FailedMember: fail.addr,
				Restarts:     restarts,
			})
			return report, nil
		}
	}
	// The round failed outright. Put the drained requests back so the next
	// round (the daemon's next tick) retries them.
	r.mu.Lock()
	r.clients.requeue()
	r.mu.Unlock()
	if lastErr != nil {
		r.cfg.Telemetry.Publish(telemetry.RoundFailed{Err: lastErr.Error()})
	}
	return nil, lastErr
}

// errNoPending is RunRound's refusal when there is nothing to schedule: no
// drain ran, or it left no rows and the committed round has none either.
var errNoPending = errors.New("no pending requests")

// commitEmpty commits a round with no rows when a drain ran and left none,
// and the committed round has rows: the clients it lists departed. It draws
// a round id and runs no stage — there is nothing to solve, install or
// notify, and opt.Problem refuses an instance with no clients — so no
// replica holds a plan for the round, a pull finds no row, and AutoScale
// sees no load. The committed round keeps its roster for a degraded round
// to fall back on, and holds no problem: the next round is a full one.
// Anything else is errNoPending.
func (r *ReplicaServer) commitEmpty(drained bool, start time.Time) (*RoundReport, error) {
	r.mu.Lock()
	lg := r.lastGood
	if !drained || lg == nil || len(lg.clientAddrs) == 0 {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: replica %s: %w", r.Addr(), errNoPending)
	}
	r.roundSeq++
	r.lastGood = &lastGoodRound{round: r.roundSeq, infos: lg.infos}
	report := &RoundReport{Round: r.roundSeq, Algorithm: r.cfg.Algorithm.String(), ReplicaAddrs: addrsOf(lg.infos)}
	r.mu.Unlock()
	r.Stats.RoundsInitiated.Inc(1)
	r.finishRound(report, start)
	return report, nil
}

// drainPending drains the queue and the standing clients into a round's
// requests (clientTable.drain): nil when no drain ran, empty when it left
// no rows. It sorts the records joining unlocked — a record's address is
// fixed — and holds r.mu for the drain's one pass alone.
func (r *ReplicaServer) drainPending() []*RequestBody {
	r.mu.Lock()
	joining := r.clients.joining
	r.clients.joining = nil
	r.mu.Unlock()
	slices.SortFunc(joining, func(a, b *clientRecord) int { return strings.Compare(a.addr, b.addr) })
	r.mu.Lock()
	requests, lapsed := r.clients.drain(joining)
	r.mu.Unlock()
	r.Stats.StandingLapses.Inc(int64(lapsed))
	return requests
}

// finishRound stamps the report's duration, remembers it for the admin
// plane, and publishes the RoundCompleted event.
func (r *ReplicaServer) finishRound(report *RoundReport, start time.Time) {
	report.Duration = time.Since(start)
	r.mu.Lock()
	r.lastReport = report
	r.mu.Unlock()
	r.cfg.Telemetry.Publish(telemetry.RoundCompleted{
		Round:              report.Round,
		Algorithm:          report.Algorithm,
		Iterations:         report.Iterations,
		Restarts:           report.Restarts,
		Clients:            len(report.ClientAddrs),
		Replicas:           len(report.ReplicaAddrs),
		Objective:          report.Objective,
		Duration:           report.Duration,
		Degraded:           report.Degraded,
		Cohorts:            report.Cohorts,
		CohortRatio:        report.CohortRatio,
		Incremental:        report.Incremental,
		DirtyClients:       report.DirtyClients,
		SubsolveGap:        report.SubsolveGap,
		SuppressedNotifies: report.SuppressedNotifies,
		Residuals:          report.Residuals,
		Costs:              report.Costs,
	})
}

// ServeRounds runs scheduling rounds on a timer until ctx ends: every
// interval, pending requests and standing clients (if any) are scheduled
// with RunRound. Round outcomes are delivered to onRound (which may be nil);
// errors but errNoPending to onError (which may be nil). This is the loop
// cmd/edrd runs; it lives here so deployments embedding the library get the
// same behavior.
func (r *ReplicaServer) ServeRounds(ctx context.Context, interval time.Duration, onRound func(*RoundReport), onError func(error)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rctx, cancel := context.WithTimeout(ctx, 10*interval)
			report, err := r.RunRound(rctx)
			cancel()
			if err != nil {
				if onError != nil && !errors.Is(err, errNoPending) {
					onError(err)
				}
				continue
			}
			if onRound != nil {
				onRound(report)
			}
		}
	}
}
