package cdpsm

import (
	"context"
	"fmt"
	"math"
	"sync"

	"edr/internal/engine"
	"edr/internal/opt"
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
	Step  float64 `json:"step"`
}

// StepReply reports how far the replica's staged estimate moved
// (Frobenius distance to its committed one).
type StepReply struct {
	Moved float64 `json:"moved"`
}

// EstimateBody requests a replica's committed estimate.
type EstimateBody struct {
	Round int `json:"round"`
}

// EstimateReply carries a replica's committed estimate packed over the
// round's support: one value per allowed (client, replica) pair, in
// opt.Sparsity CSR order.
type EstimateReply struct {
	Estimate []float64 `json:"estimate"`
}

// CommitBody promotes a replica's staged estimate.
type CommitBody struct {
	Round int `json:"round"`
}

func init() {
	engine.Register(engine.Registration{
		Name:       "CDPSM",
		New:        func() engine.Algorithm { return &roundAlg{} },
		Server:     serverHalf{},
		Verbs:      []string{MsgStep, MsgEstimate, MsgCommit},
		ServerWarm: true,
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
				return StepBody{Round: rd.Seq, Step: a.step}
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
				return CommitBody{Round: rd.Seq}
			},
		},
	}
	return nil
}

func (a *roundAlg) Iterate(int) []engine.Exchange { return a.exchanges }

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
func (a *roundAlg) Recover(ctx context.Context, d *engine.Driver) ([]float64, error) {
	ests := make([][]float64, len(a.rd.ReplicaAddrs))
	if err := d.Exec(ctx, a.collect(ests)); err != nil {
		return nil, err
	}
	mean := make([]float64, a.rd.Prob.Sparsity().NNZ()) // escapes into the report
	for _, e := range ests {
		for k, x := range e {
			mean[k] += x
		}
	}
	scale := 1 / float64(len(ests))
	for k := range mean {
		mean[k] *= scale
	}
	if err := opt.ProjectFeasiblePacked(a.rd.Prob, mean, 1e-6); err != nil {
		return nil, fmt.Errorf("cdpsm: final polish: %w", err)
	}
	return mean, nil
}

// collect is Recover's closing exchange: it checks each replica's
// committed estimate and keeps it in ests at the replica's column.
func (a *roundAlg) collect(ests [][]float64) engine.Exchange {
	nnz := a.rd.Prob.Sparsity().NNZ()
	return engine.Exchange{
		Verb: MsgEstimate,
		Body: func(int) any { return EstimateBody{Round: a.rd.Seq} },
		Fold: func(j int, r engine.Reply) (err error) {
			ests[j], err = decodeEstimate(r, a.rd.ReplicaAddrs[j], nnz)
			return err
		},
	}
}

// average writes the consensus Σ_j a_j·P^j of Eq. 3 into dst, with the
// uniform weights a_j = 1/len(ests) of a complete communication graph,
// summing every entry in the order the estimates are given. The weights
// come from the count of estimates actually gathered, not from a matrix
// fixed at round setup, so when an epoch changes |N| the next round's
// consensus is rebuilt for the new roster with no extra machinery.
func average(dst []float64, ests [][]float64) {
	w := 1 / float64(len(ests))
	opt.VecFill(dst, 0)
	for _, e := range ests {
		for k, x := range e {
			dst[k] += w * x
		}
	}
}

// decodeEstimate decodes an estimate reply from the replica at addr and
// checks it, so a bad peer is refused, by name, before its values reach
// consensus or the final average.
func decodeEstimate(r engine.Reply, addr string, nnz int) ([]float64, error) {
	var reply EstimateReply
	err := r.Decode(&reply)
	if err == nil {
		err = checkEstimate(reply.Estimate, nnz)
	}
	if err != nil {
		return nil, fmt.Errorf("cdpsm: estimate from %s: %w", addr, err)
	}
	return reply.Estimate, nil
}

// checkEstimate refuses a packed estimate that is not one finite value per
// supported pair.
func checkEstimate(v []float64, nnz int) error {
	if len(v) != nnz {
		return fmt.Errorf("%d values for %d supported pairs", len(v), nnz)
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("value %d is %v", k, x)
		}
	}
	return nil
}

// serverState is one replica's CDPSM view of a round: the committed
// estimate its peers pull and the staged successor awaiting commit, both
// packed over the round's support. Commit replaces the committed vector and
// nothing writes into it, so a pull shares it instead of copying.
type serverState struct {
	mu        sync.Mutex
	committed []float64
	staged    []float64
}

// serverHalf answers the three CDPSM verbs on a participant replica.
type serverHalf struct{}

// state fetches (or lazily builds) the round's CDPSM participant state.
// The initial committed estimate is the round's warm start when the
// initiator shipped one (an epoch change renormalized the last-known-good
// split over the new roster) and the uniform start otherwise — every
// agent seeds from the same point either way, so consensus starts
// agreeing instead of spending iterations re-converging. The warm seed
// arrives packed over the support, checked where the round spec was
// decoded; the uniform start is gathered onto the support.
func state(sr *engine.ServerRound) (*serverState, error) {
	st, err := sr.State("CDPSM", func() (any, error) {
		sp := sr.Prob.Sparsity()
		v := sr.Warm
		if v == nil {
			start, err := sr.Prob.UniformStart()
			if err != nil {
				return nil, err
			}
			v = sp.Gather(nil, start)
		}
		return &serverState{committed: v}, nil
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
		if err := req.Decode(&body); err != nil {
			return nil, fmt.Errorf("cdpsm: replica %s: %w", sr.Self, err)
		}
		st, err := state(sr)
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		return EstimateReply{Estimate: st.committed}, nil
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
		st.committed, st.staged = st.staged, nil
		return nil, nil
	}
	return nil, fmt.Errorf("cdpsm: unhandled verb %q", verb)
}

// handleStep runs one consensus + subgradient step on packed estimates:
// pull peers' committed estimates, average with uniform weights (Eq. 3),
// take the local gradient step, project onto the local constraint set, and
// stage.
func handleStep(ctx context.Context, body *StepBody, sr *engine.ServerRound) (StepReply, error) {
	st, err := state(sr)
	if err != nil {
		return StepReply{}, err
	}
	sp := sr.Prob.Sparsity()
	estimates := make([][]float64, 1, len(sr.ReplicaAddrs))
	st.mu.Lock()
	estimates[0] = st.committed
	st.mu.Unlock()
	for _, addr := range sr.ReplicaAddrs {
		if addr == sr.Self {
			continue
		}
		resp, err := sr.Peers.Send(ctx, addr, MsgEstimate, EstimateBody{Round: sr.Round})
		if err != nil {
			return StepReply{}, fmt.Errorf("cdpsm: step: fetch estimate from %s: %w", addr, err)
		}
		est, err := decodeEstimate(resp, addr, sp.NNZ())
		if err != nil {
			return StepReply{}, err
		}
		estimates = append(estimates, est)
	}

	next := make([]float64, sp.NNZ())
	average(next, estimates)
	gradientStep(sr.Prob, sr.Col, next, body.Step)
	pj := newLocalProjector(sr.Prob, sp, sr.Col)
	if _, err := pj.Project(next, opt.DykstraOptions{MaxSweeps: 60, Tol: 1e-9}); err != nil {
		return StepReply{}, fmt.Errorf("cdpsm: step projection: %w", err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	sum := 0.0
	for k, x := range next {
		d := x - st.committed[k]
		sum += d * d
	}
	st.staged = next
	return StepReply{Moved: math.Sqrt(sum)}, nil
}
