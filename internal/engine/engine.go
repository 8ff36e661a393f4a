// Package engine is the distributed solver-engine layer of the EDR
// runtime: one shared iteration driver plus a small Algorithm contract
// that the paper's two methods (CDPSM, Algorithm 1; LDDM, Algorithm 2)
// and the ADMM extension all plug into.
//
// The family of distributed methods EDR runs shares one skeleton (cf. the
// unified ADM framework of Feng, Xu & Li, arXiv:1407.8309): per iteration
// the initiator sends one request to every replica, folds the replies into
// local state, takes its own step (a dual update, a consensus swap), tests
// a residual, and finally recovers a feasible primal assignment. The
// driver owns what is the same across methods — the iteration's one wave,
// claimed by the driver's goroutine and helpers that live for the round,
// retry/cancellation (delegated to the Transport), iteration accounting,
// and the residual/cost trajectory telemetry consumes — while an Algorithm
// describes only what differs: its one exchange (verb, body builder, reply
// folder), the convergence test, and primal recovery. It registers that
// verb with the server half answering it. The fleet runs the driver over
// its replicas; the in-process solvers run the same Algorithms over a
// Loopback, whose requests cross through their codecs as on the wire, so
// each method has one loop.
package engine

import (
	"context"
	"encoding"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"edr/internal/opt"
)

// Round is the engine's view of one scheduling round on the initiator.
type Round struct {
	// Seq is the initiator-local round id, echoed in every wire body.
	Seq int
	// Prob is the optimization instance the round solves.
	Prob *opt.Problem
	// ReplicaAddrs lists the participating replicas in column order.
	ReplicaAddrs []string
	// MaxIters bounds the distributed iterations (0 = no iterations: the
	// algorithm recovers straight from its initial state).
	MaxIters int
	// Tol is the configured convergence tolerance; <= 0 selects the
	// algorithm's own default.
	Tol float64
	// Warm, when non-nil, is a demand-conserving starting assignment packed
	// over Prob.Sparsity() (the last-known-good split renormalized over this
	// round's roster — see opt.Renormalize). Algorithms holding a primal
	// iterate seed from it instead of their cold start; algorithms without
	// one (LDDM iterates on duals only) ignore it.
	Warm []float64
	// WarmMu, when non-nil, carries the previous round's final per-client
	// dual values in this round's row order (from a DualReporter, below).
	// The initiator holds the round's duals, so an algorithm warm-starts
	// them by seeding its own vector from WarmMu — no wire change involved.
	WarmMu []float64
}

// Reply is a body as its peer receives it (a request on the replica, a reply
// on the initiator): verb and bytes, a value that costs no allocation to carry.
type Reply struct {
	Verb string
	Body []byte
}

// Decode unmarshals the body into into, with an error naming the verb when
// into refuses it.
func (r Reply) Decode(into encoding.BinaryUnmarshaler) error {
	if err := into.UnmarshalBinary(r.Body); err != nil {
		return fmt.Errorf("engine: decode %s body: %w", r.Verb, err)
	}
	return nil
}

// Transport is the fabric the driver runs exchanges over. The runtime's
// ReplicaServer implements it with its retry/backoff/attribution stack;
// tests implement it in-process.
type Transport interface {
	// Replica performs one coordination RPC to a replica. ctx is the
	// wave's context; when the Driver has a Timeout, FirstAttempt(ctx)
	// yields the context the RPC's first attempt runs under. An error
	// after the transport's retry budget should carry member-failure
	// attribution so the caller can prune the peer and restart.
	Replica(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error)
}

// Exchange is an algorithm's one wave, run every iteration: Verb goes to
// every replica concurrently, Body(i) building the request to the replica
// at Round.ReplicaAddrs[i] and Fold(i, r) consuming its reply. Both run
// concurrently for distinct indexes: they touch disjoint state or lock.
type Exchange struct {
	Verb string
	Body func(i int) encoding.BinaryMarshaler
	Fold func(i int, r Reply) error
}

// Algorithm is the initiator half of a distributed method. The driver
// calls Init once, then per iteration runs the exchange Init returned and
// asks Converged whether to stop; Recover assembles the final feasible
// assignment.
type Algorithm interface {
	// Init prepares per-round state (its scratch, defaults for rd.Tol) and
	// returns the exchange every iteration runs, reading its inputs from
	// that state. The Round stays valid until the driver returns.
	Init(rd *Round) (Exchange, error)
	// Converged reports iteration k's residual and whether the loop is
	// done. It runs after the iteration's exchange completes, every
	// iteration, on the driver's goroutine: steps that need the whole
	// wave's replies (a dual update) belong here. The residual doubles as
	// the telemetry trajectory — compute it once here, not in a separate
	// trace branch.
	Converged(k int) (residual float64, done bool)
	// Recover assembles the final assignment, packed over Prob.Sparsity(),
	// from the algorithm's own state after the loop ends. The returned
	// vector outlives the round.
	Recover() ([]float64, error)
}

// PrimalTracer is optionally implemented by algorithms that hold a
// costable primal iterate between iterations; the driver records its
// objective on the telemetry trajectory. Algorithms without one (CDPSM —
// the initiator holds |N| estimates, no single primal, between consensus
// steps) simply don't implement it and get a residual-only trajectory.
type PrimalTracer interface {
	// Primal returns the current primal iterate packed over Prob.Sparsity(),
	// or nil when none is available this iteration.
	Primal() []float64
}

// DualReporter is implemented by algorithms whose per-client dual values
// survive a round usefully (LDDM's μ, ADMM's scaled dual u). After a
// successful run the initiator stores them keyed by client and ships them
// back in as the next round's Round.WarmMu, warm-starting the dual
// alongside the primal.
type DualReporter interface {
	// Duals returns the final per-client dual values in row order. The
	// slice must remain valid after the driver returns.
	Duals() []float64
}

// Driver runs Algorithms over a Transport. The zero value is unusable;
// populate Transport at least. A Driver runs one round at a time: Run is
// not safe for concurrent use.
type Driver struct {
	Transport Transport
	// Timeout, when positive, is the deadline each wave arms for its
	// sends' first attempts: one timer per wave, not one per RPC (see
	// FirstAttempt). Zero arms none, for transports that never block.
	Timeout time.Duration
	// Observe gates trajectory recording: when false, OnIterate is never
	// called and no per-iteration objective is evaluated, keeping the
	// unobserved hot path free of extra work.
	Observe bool
	// OnIterate, when Observe is set, receives each iteration's residual
	// and primal cost (NaN when the algorithm exposes no primal).
	OnIterate func(iter int, residual, cost float64)

	// The round's claimed wave and its |N|−1 helpers, alive from Run's
	// start to its return (see exec).
	wave    wave
	wake    chan struct{}
	helpers sync.WaitGroup
}

// wave is one exchange in flight, reused for every wave of a round. The
// goroutine that calls exec and the round's helpers claim its replica
// indexes from next; done counts the sends finished or skipped, and the
// claimant that brings it to n hands the driver the one wake-up it waits
// for on finished. Between waves next stays at or past n, so a helper
// woken late claims nothing; exec writes the other fields before it
// resets next, and a claimant reads them only after claiming an index
// below n.
type wave struct {
	addrs    []string
	n        int64
	next     atomic.Int64
	done     atomic.Int64
	failed   atomic.Bool
	first    error // written by the one claimant that sets failed
	ctx      context.Context
	cancel   context.CancelFunc
	ex       Exchange
	finished chan struct{}
}

// Run drives one round of alg to convergence (or rd.MaxIters) and returns
// the recovered assignment, packed, and the number of iterations executed.
// The round's helpers are stopped before returning, success or failure
// alike.
func (d *Driver) Run(ctx context.Context, alg Algorithm, rd *Round) ([]float64, int, error) {
	ex, err := alg.Init(rd)
	if err != nil {
		return nil, 0, err
	}
	d.startHelpers(rd.ReplicaAddrs)
	defer d.stopHelpers()
	tracer, _ := alg.(PrimalTracer)
	iterations := 0
	for k := 1; k <= rd.MaxIters; k++ {
		iterations = k
		if err := d.exec(ctx, ex); err != nil {
			return nil, 0, err
		}
		residual, done := alg.Converged(k)
		if d.Observe && d.OnIterate != nil {
			cost := math.NaN()
			if tracer != nil {
				if x := tracer.Primal(); x != nil {
					cost = rd.Prob.PackedCost(x)
				}
			}
			d.OnIterate(k, residual, cost)
		}
		if done {
			break
		}
	}
	final, err := alg.Recover()
	if err != nil {
		return nil, 0, err
	}
	return final, iterations, nil
}

// startHelpers starts the round's |N|−1 helpers. A round runs hundreds of
// waves over the same peers; a goroutine spawned per wave or per RPC has
// to regrow its stack through the transport's frames every time, while a
// helper that lives for the round grows it once. The goroutine calling
// exec is the |N|th claimant, so a wave never waits for a hand-off to
// start its first send.
func (d *Driver) startHelpers(addrs []string) {
	w := &d.wave
	w.addrs, w.n = addrs, int64(len(addrs))
	w.next.Store(w.n)
	w.finished = make(chan struct{}, 1)
	helpers := max(len(addrs)-1, 0)
	// One pending wake-up per helper: exec never waits to wake one, and a
	// wake-up no helper has taken yet is not worth a second.
	d.wake = make(chan struct{}, helpers)
	d.helpers.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer d.helpers.Done()
			for range d.wake {
				d.claim()
			}
		}()
	}
}

// stopHelpers ends the round's helpers and waits for them to exit. exec
// returns only once every claimed send has finished, so none is sending.
func (d *Driver) stopHelpers() {
	close(d.wake)
	d.helpers.Wait()
	d.wake, d.wave = nil, wave{}
}

// claim takes the wave's next unclaimed index until none is left: it sends
// to that replica or, once the wave has failed, skips it, and counts it
// finished either way. The claimant that finishes the wave's last index
// wakes the driver.
func (d *Driver) claim() {
	w := &d.wave
	for {
		i := w.next.Add(1) - 1
		if i >= w.n {
			return
		}
		if !w.failed.Load() {
			if err := d.send(int(i)); err != nil && w.failed.CompareAndSwap(false, true) {
				w.first = err
				w.cancel()
			}
		}
		if w.done.Add(1) == w.n {
			w.finished <- struct{}{}
		}
	}
}

// send performs replica i's part of the wave: build the body, one RPC, fold
// the reply.
func (d *Driver) send(i int) error {
	w := &d.wave
	reply, err := d.Transport.Replica(w.ctx, w.addrs[i], w.ex.Verb, w.ex.Body(i))
	if err != nil {
		return err
	}
	if err := w.ex.Fold(i, reply); err != nil {
		return &RefusedReplyError{Addr: w.addrs[i], Err: err}
	}
	return nil
}

// RefusedReplyError is a reply the algorithm's Fold refused: the replica
// at Addr answered, but with a body no honest replica sends. The fleet
// pins it on that replica as it does an unreachable one.
type RefusedReplyError struct {
	Addr string
	Err  error
}

func (e *RefusedReplyError) Error() string { return e.Err.Error() }

func (e *RefusedReplyError) Unwrap() error { return e.Err }

// exec runs one exchange as a claimed wave: ex.Verb goes to every replica
// concurrently, one RPC each. The calling goroutine sends too; the round's
// idle helpers are woken as the wave starts and claim whatever it has not
// reached, so a blocked send holds up only its own claimant. It keeps
// FanOut's contract — the first error cancels the wave's context so the
// sends in flight abort promptly and the indexes not yet claimed are
// skipped, every first attempt shares one deadline d.Timeout away, and
// exec still waits for every started send to finish before returning, so
// callers may reuse the buffers Body and Fold touched.
func (d *Driver) exec(ctx context.Context, ex Exchange) error {
	w := &d.wave
	if w.n == 0 {
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	armed, _, disarm := armWave(wctx, d.Timeout)
	defer disarm()
	w.ctx, w.cancel, w.ex, w.first = armed, cancel, ex, nil
	w.failed.Store(false)
	w.done.Store(0)
	w.next.Store(0) // the wave is open: every field above is written
	for h := int64(1); h < w.n; h++ {
		select {
		case d.wake <- struct{}{}:
		default: // every helper already has a wake-up pending
		}
	}
	d.claim()
	<-w.finished
	return w.first
}

// fanOutWidth bounds the goroutines one FanOut wave runs on. It is far
// above any replica wave (|N| ≤ 10) and any paper-scale notify (100
// clients), so those keep every RPC of the wave in flight at once; only a
// fleet-scale notify is batched — ⌈|C|/fanOutWidth⌉ successive waves' worth
// of sends instead of |C| simultaneous ones, which over TCP would also want
// |C| sockets open at once.
const fanOutWidth = 256

// rearmShare sets how stale a first-attempt deadline a FanOut worker keeps:
// once 1/rearmShare of the timeout has passed, a worker sending in sequence
// arms a deadline of its own, so no first attempt starts with less than
// (rearmShare−1)/rearmShare of the timeout.
const rearmShare = 16

// firstAttemptKey is the context key under which a wave's context carries
// its first-attempt context.
type firstAttemptKey struct{}

// FirstAttempt returns the context a send's first attempt runs under, when
// ctx is the context of a wave armed with a timeout (one FanOut hands its
// fn, or a Run wave hands its Transport): the wave plus one deadline the
// wave's first attempts share. ok is false outside such a wave; a sender
// then bounds the attempt itself, as it bounds every retry. Only the
// attempt runs under the returned context — whether the wave itself has
// ended is ctx's to say, since the first-attempt context is always expired
// after a first attempt that timed out.
func FirstAttempt(ctx context.Context) (first context.Context, ok bool) {
	first, ok = ctx.Value(firstAttemptKey{}).(context.Context)
	return first, ok
}

// armWave returns wctx carrying a first-attempt context whose deadline is
// timeout away, that deadline, and the function releasing its timer. With
// timeout <= 0 it returns wctx unchanged and arms nothing.
func armWave(wctx context.Context, timeout time.Duration) (wave context.Context, deadline time.Time, disarm context.CancelFunc) {
	if timeout <= 0 {
		return wctx, time.Time{}, func() {}
	}
	first, disarm := context.WithTimeout(wctx, timeout)
	deadline, _ = first.Deadline()
	return context.WithValue(wctx, firstAttemptKey{}, first), deadline, disarm
}

// FanOut runs fn for every index in [0, count) on min(count, fanOutWidth)
// goroutines and returns the first error — the one-shot form of a wave, for
// callers without a round's helpers (round start, install, notify). The
// paper's server and client are multithreaded ("create new threads to
// communicate with all the replicas at the same time"), so one coordination
// wave costs one round trip of wall time, not count × RTT. Each goroutine
// takes the next unclaimed index until none is left, so it grows its stack
// through the send path once, not once per index. On the first error the
// wave's context is cancelled so the sends in flight abort promptly instead
// of running out their full RPC timeouts, and indices not yet started are
// skipped; FanOut still waits for every started fn to return, so callers may
// reuse the buffers the callbacks wrote to.
//
// With timeout > 0 the wave arms one first-attempt deadline, timeout away,
// which the context handed to fn carries (FirstAttempt). A goroutine that
// reaches an index after 1/rearmShare of that time has passed arms a fresh
// one for itself, so a long wave's last sends are not cut short.
func FanOut(ctx context.Context, count int, timeout time.Duration, fn func(ctx context.Context, i int) error) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	wave, deadline, disarm := armWave(wctx, timeout)
	defer disarm()
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error // written by the one goroutine that sets failed
		wg     sync.WaitGroup
	)
	workers := min(count, fanOutWidth)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// This goroutine's wave context: the shared one until it re-arms.
			wave, deadline := wave, deadline
			release := func() {}
			defer func() { release() }()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				if timeout > 0 && time.Until(deadline) < timeout-timeout/rearmShare {
					release()
					wave, deadline, release = armWave(wctx, timeout)
				}
				if err := fn(wave, i); err != nil && failed.CompareAndSwap(false, true) {
					first = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
