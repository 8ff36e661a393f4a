package cdpsm

import (
	"context"
	"fmt"
	"sync"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/transport"
)

// CDPSM wire protocol. The initiator drives the synchronous iteration of
// Algorithm 1 with step/commit waves; the replicas exchange committed
// estimates among themselves (the real O(|N|²) traffic) when a step
// message arrives.
const (
	// MsgStep is initiator → replica: pull every peer's committed
	// estimate, take one consensus-projected-subgradient step, and stage
	// the result.
	MsgStep = "replica.cdpsm.step"
	// MsgEstimate is replica → replica (and initiator → replica during
	// recovery): return the committed estimate.
	MsgEstimate = "replica.cdpsm.estimate"
	// MsgCommit is initiator → replica: promote the staged estimate.
	MsgCommit = "replica.cdpsm.commit"
)

// StepBody asks one replica to run one consensus + subgradient step.
type StepBody struct {
	Round int     `json:"round"`
	Iter  int     `json:"iter"`
	Step  float64 `json:"step"`
}

// StepReply reports how far the replica's staged estimate moved
// (Frobenius distance to its committed one).
type StepReply struct {
	Moved float64 `json:"moved"`
}

// EstimateBody requests a replica's committed estimate. Base, when ≥ 0,
// is the iteration id of the estimate the requester already holds from
// this replica — the server may then answer with a delta frame against
// that base instead of a full matrix. Base −1 requests a standalone frame.
type EstimateBody struct {
	Round int `json:"round"`
	Base  int `json:"base"`
}

// EstimateReply carries the committed estimate (clients × replicas) and
// the iteration id it was committed at (the base id for the requester's
// next delta pull). Base is decode/encode context, never serialized
// itself: the server sets it to the matrix it diffed against (enabling a
// delta frame) and the requester pre-sets it to its cached copy of the
// same matrix before Decode, per the transport convention that DecodeBody
// unmarshals into the caller's value in place.
type EstimateReply struct {
	Estimate [][]float64 `json:"estimate"`
	Iter     int         `json:"iter"`

	Base [][]float64 `json:"-"`
}

// CommitBody promotes a replica's staged estimate.
type CommitBody struct {
	Round int `json:"round"`
	Iter  int `json:"iter"`
}

func init() {
	engine.Register(engine.Registration{
		Name:   "CDPSM",
		New:    func() engine.Algorithm { return &roundAlg{} },
		Server: serverHalf{},
		Verbs:  []string{MsgStep, MsgEstimate, MsgCommit},
	})
}

// roundAlg is the initiator half of Algorithm 1 over the fabric: step
// (each replica pulls every peer's committed estimate and stages its
// update) then commit, per iteration; the final assignment is the average
// of the committed estimates, polished to exact feasibility. No
// initiator-side primal iterate exists between consensus steps, so the
// algorithm records a residual-only trajectory (it implements no
// PrimalTracer).
type roundAlg struct {
	rd   *engine.Round
	k    int
	tol  float64
	step float64 // constant step; preset by Solver, else DefaultStep

	moved []float64

	exchanges []engine.Exchange
}

func (a *roundAlg) Init(rd *engine.Round) error {
	n := len(rd.ReplicaAddrs)
	a.rd = rd
	a.tol = rd.Tol
	if a.tol <= 0 {
		a.tol = 1e-3
	}
	if a.step <= 0 {
		a.step = DefaultStep // the fleet presets none
	}
	a.moved = rd.Pool.Vector(n)
	a.exchanges = []engine.Exchange{
		{
			Verb: MsgStep,
			Body: func(j int) any {
				return StepBody{Round: rd.Seq, Iter: a.k, Step: a.step}
			},
			Fold: func(j int, r engine.Reply) error {
				var reply StepReply
				if err := r.Decode(&reply); err != nil {
					return err
				}
				a.moved[j] = reply.Moved
				return nil
			},
		},
		{
			Verb: MsgCommit,
			Body: func(j int) any {
				return CommitBody{Round: rd.Seq, Iter: a.k}
			},
		},
	}
	return nil
}

func (a *roundAlg) Iterate(k int) []engine.Exchange {
	a.k = k
	return a.exchanges
}

func (a *roundAlg) Converged(k int) (float64, bool) {
	maxMoved := 0.0
	for _, m := range a.moved {
		if m > maxMoved {
			maxMoved = m
		}
	}
	return maxMoved, maxMoved <= a.tol
}

// Recover averages the replicas' committed estimates and polishes the
// result onto the exact feasible region — the common point the agents
// converged toward. The estimates are summed in column order, not in
// arrival order, so a round's answer does not depend on which reply
// lands first.
func (a *roundAlg) Recover(ctx context.Context, d *engine.Driver) ([][]float64, error) {
	c, n := a.rd.Prob.C(), a.rd.Prob.N()
	nReplicas := len(a.rd.ReplicaAddrs)
	ests := make([][][]float64, nReplicas)
	err := d.Exec(ctx, engine.Exchange{
		Verb: MsgEstimate,
		Body: func(j int) any { return EstimateBody{Round: a.rd.Seq, Base: -1} },
		Fold: func(j int, r engine.Reply) error {
			var reply EstimateReply
			if err := r.Decode(&reply); err != nil {
				return err
			}
			if err := checkShape(reply.Estimate, c, n); err != nil {
				return fmt.Errorf("cdpsm: estimate from %s: %w", a.rd.ReplicaAddrs[j], err)
			}
			ests[j] = reply.Estimate
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	sum := opt.NewMatrix(c, n) // freshly allocated: escapes into the report
	for _, e := range ests {
		opt.Add(sum, e)
	}
	opt.Scale(sum, 1/float64(nReplicas))
	if err := opt.ProjectFeasible(a.rd.Prob, sum, 1e-6); err != nil {
		return nil, fmt.Errorf("cdpsm: final polish: %w", err)
	}
	return sum, nil
}

// ConsensusWeights returns the doubly-stochastic consensus row for n
// agents: the uniform weights a_{i,j} = 1/n of Eq. 3 over a complete
// communication graph. It is computed from the count of estimates
// actually gathered each step — not a matrix fixed at round setup — so
// when an epoch changes |N| mid-stream the next round's consensus
// weights are rebuilt online for the new roster with no extra machinery.
func ConsensusWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// checkShape validates a wire-decoded matrix before it reaches the shape-
// panicking opt kernels.
func checkShape(x [][]float64, c, n int) error {
	if len(x) != c {
		return fmt.Errorf("%d rows for %d clients", len(x), c)
	}
	for _, row := range x {
		if len(row) != n {
			return fmt.Errorf("row of %d entries for %d replicas", len(row), n)
		}
	}
	return nil
}

// serverState is one replica's CDPSM view of a round: the committed
// estimate its peers may pull, the staged successor awaiting commit, the
// previous committed estimate kept as the delta base for peers one
// iteration behind, and a cache of each peer's last pulled estimate (the
// requester-side half of the delta protocol, on the shared transport
// machinery). Committed matrices are replaced wholesale on commit and
// never mutated in place, so serving prev as a marshal-time delta base
// outside the lock is safe.
type serverState struct {
	mu            sync.Mutex
	committed     [][]float64
	committedIter int
	prev          [][]float64
	prevIter      int
	staged        [][]float64
	stagedIter    int
	peers         transport.MatrixBaseCache
}

// serverHalf answers the three CDPSM verbs on a participant replica.
type serverHalf struct{}

// state fetches (or lazily builds) the round's CDPSM participant state.
// The initial committed estimate is the round's warm start when the
// initiator shipped one (an epoch change renormalized the last-known-good
// split over the new roster) and the uniform start otherwise — every
// agent seeds from the same point either way, so consensus starts
// agreeing instead of spending iterations re-converging.
func state(sr *engine.ServerRound) (*serverState, error) {
	st, err := sr.State("CDPSM", func() (any, error) {
		if w := sr.Warm; w != nil && checkShape(w, sr.Prob.C(), sr.Prob.N()) == nil {
			return &serverState{committed: opt.Clone(w)}, nil
		}
		start, err := sr.Prob.UniformStart()
		if err != nil {
			return nil, err
		}
		return &serverState{committed: start}, nil
	})
	if err != nil {
		return nil, err
	}
	return st.(*serverState), nil
}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	switch verb {
	case MsgStep:
		var body StepBody
		if err := req.Decode(&body); err != nil {
			return nil, err
		}
		return handleStep(ctx, &body, sr)
	case MsgEstimate:
		var body EstimateBody
		body.Base = -1 // absent in legacy JSON bodies means "no base held"
		if err := req.Decode(&body); err != nil {
			return nil, err
		}
		st, err := state(sr)
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		reply := EstimateReply{Estimate: opt.Clone(st.committed), Iter: st.committedIter}
		if body.Base >= 0 && st.prev != nil && body.Base == st.prevIter {
			// The requester holds our previous committed estimate: let the
			// marshal-time chooser diff against it (full-frame fallback stays
			// automatic — the chooser only picks delta when it is smallest).
			reply.Base = st.prev
		}
		return reply, nil
	case MsgCommit:
		var body CommitBody
		if err := req.Decode(&body); err != nil {
			return nil, err
		}
		st, err := state(sr)
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.staged == nil {
			return nil, fmt.Errorf("cdpsm: commit round %d with no staged estimate", body.Round)
		}
		st.prev, st.prevIter = st.committed, st.committedIter
		st.committed, st.committedIter = st.staged, st.stagedIter
		st.staged = nil
		return nil, nil
	}
	return nil, fmt.Errorf("cdpsm: unhandled verb %q", verb)
}

// handleStep runs one consensus + subgradient step: pull peers' committed
// estimates, average with uniform weights (Eq. 3), take the local
// gradient step, project onto the local constraint set, and stage.
func handleStep(ctx context.Context, body *StepBody, sr *engine.ServerRound) (StepReply, error) {
	st, err := state(sr)
	if err != nil {
		return StepReply{}, err
	}
	c, n := sr.Prob.C(), sr.Prob.N()
	st.mu.Lock()
	own := opt.Clone(st.committed)
	st.mu.Unlock()
	estimates := make([][][]float64, 0, len(sr.ReplicaAddrs))
	estimates = append(estimates, own)
	for _, addr := range sr.ReplicaAddrs {
		if addr == sr.Self {
			continue
		}
		// Declare the iteration id of this peer's last pulled estimate so
		// the peer can answer with a delta frame against it; decode with
		// that cached matrix as the base.
		base, baseIter := st.peers.Get(addr)
		resp, err := sr.Peers.Send(ctx, addr, MsgEstimate, EstimateBody{Round: sr.Round, Base: baseIter})
		if err != nil {
			return StepReply{}, fmt.Errorf("cdpsm: step: fetch estimate from %s: %w", addr, err)
		}
		er := EstimateReply{Base: base}
		if err := resp.Decode(&er); err != nil {
			return StepReply{}, err
		}
		if err := checkShape(er.Estimate, c, n); err != nil {
			return StepReply{}, fmt.Errorf("cdpsm: estimate from %s: %w", addr, err)
		}
		st.peers.Put(addr, er.Iter, er.Estimate)
		estimates = append(estimates, er.Estimate)
	}

	consensus := opt.NewMatrix(c, n)
	opt.Mean(consensus, ConsensusWeights(len(estimates)), estimates...)

	grad := opt.NewMatrix(c, n)
	LocalGradient(sr.Prob, sr.Col, consensus, grad)
	next := opt.Clone(consensus)
	opt.AXPY(next, -body.Step, grad)
	// Local projection on the packed projector: every estimate in flight
	// is supported on the mask, so gathering drops only exact zeros.
	sp := sr.Prob.Sparsity()
	v := sp.Gather(nil, next)
	pj := newLocalProjector(sr.Prob, sp, sr.Col)
	if _, err := pj.Project(v, opt.DykstraOptions{MaxSweeps: 60, Tol: 1e-9}); err != nil {
		return StepReply{}, fmt.Errorf("cdpsm: step projection: %w", err)
	}
	sp.Scatter(next, v)

	st.mu.Lock()
	defer st.mu.Unlock()
	moved := opt.Dist(next, st.committed)
	st.staged = next
	st.stagedIter = body.Iter
	return StepReply{Moved: moved}, nil
}
