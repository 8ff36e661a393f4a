// Package engine is the distributed solver-engine layer of the EDR
// runtime: one shared iteration driver plus a small Algorithm contract
// that the paper's two methods (CDPSM, Algorithm 1; LDDM, Algorithm 2)
// and the ADMM extension all plug into.
//
// The family of distributed methods EDR runs shares one skeleton (cf. the
// unified ADM framework of Feng, Xu & Li, arXiv:1407.8309): per iteration
// the initiator fans a request out to every replica, folds the replies
// into local state (dual steps included — the initiator already holds
// everything they read), tests a residual, and finally recovers a feasible
// primal assignment. The driver owns everything that is the same across
// methods — concurrent fan-out on senders that live for the round,
// retry/cancellation semantics (delegated to the Transport), iteration
// accounting, and the
// residual/cost trajectory hook telemetry consumes — while an Algorithm
// describes only what differs: the per-iteration exchanges (verb, body
// builder, reply folder), the convergence test, and primal recovery.
// Adding a new method (dual gradient tracking, an accelerated variant) is
// a ~100-line registry entry, not a fork of internal/core. The fleet runs
// the driver over its replicas; the in-process solvers run the same
// Algorithms over a Loopback, so each method has one loop.
package engine

import (
	"context"
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
	// Pool recycles the round's scratch matrices/vectors; the driver
	// creates one when nil and releases it when the round ends. Buffers
	// that outlive the round (the recovered assignment) must be cloned.
	Pool *opt.Pool
}

// Reply decodes one peer's response body.
type Reply interface {
	Decode(into any) error
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
	Replica(ctx context.Context, addr, verb string, body any) (Reply, error)
}

// Exchange is one declarative fan-out wave: the driver sends Verb to
// every replica of the round concurrently, building each request body
// with Body and folding each reply with Fold. Body and Fold are indexed
// by the replica's position in Round.ReplicaAddrs and may run
// concurrently for distinct indexes — they must only touch disjoint state
// unless they lock.
type Exchange struct {
	Verb string
	// Body builds the request body for peer i (nil Body sends an empty
	// body).
	Body func(i int) any
	// Fold consumes peer i's reply (nil Fold discards it).
	Fold func(i int, r Reply) error
}

// Algorithm is the initiator half of a distributed method. The driver
// calls Init once, then per iteration runs the Iterate exchanges in order
// (full barrier between exchanges) and asks Converged whether to stop;
// Recover assembles the final feasible assignment.
type Algorithm interface {
	// Init prepares per-round state (scratch from rd.Pool, defaults for
	// rd.Tol). The Round stays valid until the driver returns.
	Init(rd *Round) error
	// Iterate returns iteration k's exchanges. Implementations may return
	// a cached slice whose closures read k from algorithm state.
	Iterate(k int) []Exchange
	// Converged reports iteration k's residual and whether the loop is
	// done. It runs after the iteration's exchanges complete, every
	// iteration, on the driver's goroutine: steps that need the whole
	// wave's replies (a dual update) belong here. The residual doubles as
	// the telemetry trajectory — compute it once here, not in a separate
	// trace branch.
	Converged(k int) (residual float64, done bool)
	// Recover assembles the final assignment, packed over Prob.Sparsity(),
	// from the algorithm's own state after the loop ends. The returned
	// vector must be freshly allocated (not Pool-owned): it outlives the
	// round.
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

	// The round's senders, one per replica, alive from Run's start to its
	// return: jobs[i] feeds sender i, results collects one error per
	// sender per wave (sized to the sends, so a sender never blocks on it).
	jobs    []chan job
	results chan error
	senders sync.WaitGroup
}

// job is one sender's share of a wave.
type job struct {
	ctx context.Context
	ex  Exchange
}

// Run drives one round of alg to convergence (or rd.MaxIters) and returns
// the recovered assignment, packed, and the number of iterations executed.
// The round's Pool is released and its senders are stopped before
// returning, success or failure alike.
func (d *Driver) Run(ctx context.Context, alg Algorithm, rd *Round) ([]float64, int, error) {
	if rd.Pool == nil {
		rd.Pool = &opt.Pool{}
	}
	defer rd.Pool.Release()
	if err := alg.Init(rd); err != nil {
		return nil, 0, err
	}
	d.startSenders(rd.ReplicaAddrs)
	defer d.stopSenders()
	tracer, _ := alg.(PrimalTracer)
	iterations := 0
	for k := 1; k <= rd.MaxIters; k++ {
		iterations = k
		for _, ex := range alg.Iterate(k) {
			if err := d.exec(ctx, ex); err != nil {
				return nil, 0, err
			}
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

// startSenders starts one sender goroutine per replica. A round runs
// hundreds of waves over the same peers; a goroutine spawned per RPC has to
// regrow its stack through the transport's frames every time, while a
// sender that lives for the round grows it once.
func (d *Driver) startSenders(addrs []string) {
	d.jobs = make([]chan job, len(addrs))
	d.results = make(chan error, len(addrs))
	d.senders.Add(len(addrs))
	for i, addr := range addrs {
		d.jobs[i] = make(chan job)
		go func(i int, addr string, jobs <-chan job) {
			defer d.senders.Done()
			for jb := range jobs {
				d.results <- d.send(jb, i, addr)
			}
		}(i, addr, d.jobs[i])
	}
}

// stopSenders ends the round's senders and waits for them to exit. exec
// returns only once every sender has reported, so they are all idle here.
func (d *Driver) stopSenders() {
	for _, jobs := range d.jobs {
		close(jobs)
	}
	d.senders.Wait()
	d.jobs, d.results = nil, nil
}

// send performs replica i's part of a wave: build the body, one RPC, fold
// the reply.
func (d *Driver) send(jb job, i int, addr string) error {
	var body any
	if jb.ex.Body != nil {
		body = jb.ex.Body(i)
	}
	reply, err := d.Transport.Replica(jb.ctx, addr, jb.ex.Verb, body)
	if err != nil {
		return err
	}
	if jb.ex.Fold != nil {
		if err := jb.ex.Fold(i, reply); err != nil {
			return &RefusedReplyError{Addr: addr, Err: err}
		}
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

// exec runs one exchange on the round's senders: ex.Verb goes to every
// replica concurrently, one RPC each. It keeps FanOut's contract — the
// first error cancels the wave's context so the remaining sends abort
// promptly, every first attempt shares one deadline d.Timeout away, and
// exec still waits for every sender to finish before returning, so callers
// may reuse the buffers Body and Fold touched.
func (d *Driver) exec(ctx context.Context, ex Exchange) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	wave, _, disarm := armWave(wctx, d.Timeout)
	defer disarm()
	for _, jobs := range d.jobs {
		jobs <- job{ctx: wave, ex: ex}
	}
	var first error
	for range d.jobs {
		if err := <-d.results; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	return first
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
// callers without a round's senders (round start, install, notify). The
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
