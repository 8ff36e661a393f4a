package cdpsm

import (
	"context"
	"fmt"
	"math"
	"slices"

	"edr/internal/engine"
	"edr/internal/opt"
)

// CDPSM wire protocol. The initiator holds every replica's estimate and
// drives the synchronous iteration of Algorithm 1 with one step wave per
// iteration: each replica is sent the consensus it would have formed from
// all the estimates and answers with its next one. No replica talks to
// another.
const (
	// MsgStep is initiator → replica: take one projected-subgradient step
	// from the consensus the body carries and return the new estimate.
	MsgStep = "replica.cdpsm.step"
	// MsgEstimate is a retired verb with no handler: replica → replica, the
	// pull of a peer's estimate before the initiator formed the consensus.
	// The name is kept because the benchmark's verb → phase table compiles
	// against it.
	MsgEstimate = "replica.cdpsm.estimate"
	// MsgCommit is a retired verb with no handler: initiator → replica, the
	// promotion of a staged estimate (see MsgEstimate).
	MsgCommit = "replica.cdpsm.commit"
)

// StepBody asks one replica to run one subgradient step from Mean, the
// consensus V^i of Eq. 3 over every replica's current estimate, packed over
// the round's support: one value per allowed (client, replica) pair, in
// opt.Sparsity CSR order.
type StepBody struct {
	Round int       `json:"round"`
	Step  float64   `json:"step"`
	Mean  []float64 `json:"mean"`
}

// StepReply carries the replica's new estimate, packed as StepBody.Mean.
type StepReply struct {
	Estimate []float64 `json:"estimate"`
}

func init() {
	engine.Register(engine.Registration{
		Name:   "CDPSM",
		New:    func() engine.Algorithm { return &roundAlg{} },
		Server: serverHalf{},
		Verbs:  []string{MsgStep},
	})
}

// roundAlg is the initiator half of Algorithm 1 over the fabric. It holds
// the |N| current estimates; per iteration it sends each replica the
// consensus that replica forms (average) and folds the estimate it
// returns. The |N| averages run on the round's senders, in parallel. The
// final assignment is the average of the estimates, polished to exact
// feasibility. No single primal iterate exists between consensus steps,
// so the algorithm records a residual-only trajectory (it implements no
// PrimalTracer).
type roundAlg struct {
	rd   *engine.Round
	tol  float64
	step float64 // constant step; preset by Solver, else DefaultStep

	// ests[j] is replica j's current estimate and next[j] the one its step
	// returned; Converged swaps them. Neither is ever written into.
	ests, next [][]float64
	// means[j] is the consensus sent to replica j.
	means [][]float64
	moved []float64

	exchanges []engine.Exchange
}

func (a *roundAlg) Init(rd *engine.Round) error {
	n, nnz := len(rd.ReplicaAddrs), rd.Prob.Sparsity().NNZ()
	a.rd = rd
	a.tol = rd.Tol
	if a.tol <= 0 {
		a.tol = 1e-3
	}
	if a.step <= 0 {
		a.step = DefaultStep // the fleet presets none
	}
	// Every agent seeds from the same point: the round's warm start (the
	// last-known-good split renormalized over the roster) when there is
	// one, else the uniform start, so consensus starts agreeing.
	seed := rd.Warm
	if len(seed) != nnz {
		start, err := rd.Prob.UniformStart()
		if err != nil {
			return err
		}
		seed = rd.Prob.Sparsity().Gather(nil, start)
	}
	a.ests, a.next = make([][]float64, n), make([][]float64, n)
	a.means = make([][]float64, n)
	for j := range a.ests {
		a.ests[j] = seed
		a.means[j] = rd.Pool.Vector(nnz)
	}
	a.moved = rd.Pool.Vector(n)
	a.exchanges = []engine.Exchange{{
		Verb: MsgStep,
		Body: func(j int) any {
			average(a.means[j], a.ests, j)
			return StepBody{Round: rd.Seq, Step: a.step, Mean: a.means[j]}
		},
		Fold: func(j int, r engine.Reply) error {
			var reply StepReply
			err := r.Decode(&reply)
			if err == nil {
				err = checkEstimate(reply.Estimate, nnz)
			}
			if err != nil {
				return fmt.Errorf("cdpsm: estimate from %s: %w", rd.ReplicaAddrs[j], err)
			}
			sum := 0.0
			for k, x := range reply.Estimate {
				d := x - a.ests[j][k]
				sum += d * d
			}
			a.next[j], a.moved[j] = reply.Estimate, math.Sqrt(sum)
			return nil
		},
	}}
	return nil
}

func (a *roundAlg) Iterate(int) []engine.Exchange { return a.exchanges }

func (a *roundAlg) Converged(k int) (float64, bool) {
	a.ests, a.next = a.next, a.ests
	maxMoved := 0.0
	for _, m := range a.moved {
		if m > maxMoved {
			maxMoved = m
		}
	}
	return maxMoved, maxMoved <= a.tol
}

// Recover averages the replicas' estimates and polishes the result onto
// the exact feasible region — the common point the agents converged toward.
// The estimates are summed in column order, so a round's answer does not
// depend on which reply landed first.
func (a *roundAlg) Recover() ([]float64, error) {
	mean := make([]float64, a.rd.Prob.Sparsity().NNZ()) // escapes into the report
	for _, e := range a.ests {
		for k, x := range e {
			mean[k] += x
		}
	}
	scale := 1 / float64(len(a.ests))
	for k := range mean {
		mean[k] *= scale
	}
	if err := opt.ProjectFeasiblePacked(a.rd.Prob, mean, 1e-6); err != nil {
		return nil, fmt.Errorf("cdpsm: final polish: %w", err)
	}
	return mean, nil
}

// average writes replica i's consensus V^i = Σ_j a_j·P^j of Eq. 3 into
// dst, with the uniform weights a_j = 1/len(ests) of a complete
// communication graph. It sums ests[i] first, then the others in column
// order, as agent i of Algorithm 1 combines its own estimate with the ones
// it gathers; TestSolverGolden pins the bits of that order. The weights
// come from the count of estimates, not from a matrix fixed at round
// setup, so when an epoch changes |N| the next round's consensus is rebuilt
// for the new roster with no extra machinery.
func average(dst []float64, ests [][]float64, i int) {
	w := 1 / float64(len(ests))
	opt.VecFill(dst, 0)
	for k, x := range ests[i] {
		dst[k] += w * x
	}
	for j, e := range ests {
		if j == i {
			continue
		}
		for k, x := range e {
			dst[k] += w * x
		}
	}
}

// checkEstimate refuses a packed vector that is not one finite value per
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

// serverHalf answers MsgStep on a participant replica. The reply is a
// function of the request alone: a replica keeps no CDPSM state.
type serverHalf struct{}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	next, err := step(req, sr)
	if err != nil {
		return nil, fmt.Errorf("cdpsm: replica %s: %w", sr.Self, err)
	}
	return StepReply{Estimate: next}, nil
}

// step runs one subgradient step on the packed consensus the initiator
// sent: take the local gradient step, project onto the local constraint
// set, and return the result as the replica's new estimate. The mean is
// cloned before it is stepped on: a handed-over body shares the
// initiator's buffer, which the next iteration's consensus overwrites. A
// mean, or a step from it, that is not one finite value per supported pair
// is refused, so no replica answers with an estimate its initiator refuses.
func step(req engine.Reply, sr *engine.ServerRound) ([]float64, error) {
	var body StepBody
	if err := req.Decode(&body); err != nil {
		return nil, err
	}
	sp := sr.Prob.Sparsity()
	if err := checkEstimate(body.Mean, sp.NNZ()); err != nil {
		return nil, fmt.Errorf("step mean: %w", err)
	}
	next := slices.Clone(body.Mean)
	gradientStep(sr.Prob, sr.Col, next, body.Step)
	pj := newLocalProjector(sr.Prob, sp, sr.Col)
	if _, err := pj.Project(next, opt.DykstraOptions{MaxSweeps: 60, Tol: 1e-9}); err != nil {
		return nil, fmt.Errorf("step projection: %w", err)
	}
	if err := checkEstimate(next, sp.NNZ()); err != nil {
		return nil, fmt.Errorf("stepped estimate: %w", err)
	}
	return next, nil
}
