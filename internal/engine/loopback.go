package engine

import (
	"context"
	"encoding"
	"fmt"

	"edr/internal/opt"
	"edr/internal/solver"
)

// DefaultMaxIters bounds a round's distributed iterations when the caller
// sets no bound: the live fleet's default and the in-process solvers'.
const DefaultMaxIters = 200

// Loopback runs a round's replicas in this process: one ServerRound per
// column, every verb answered by the server half registered for it
// (ServerFor). It is the round's Transport. The in-process solvers are the
// engine's Algorithms run over a Loopback: the paper's figures and the
// fleet run one loop.
//
// Bodies cross as they cross the wire: a request is marshaled with its
// codec and the server half decodes those bytes, and the reply crosses as
// the bytes the handler encoded. A replica therefore owns whatever it
// decodes, and shares no memory with its initiator.
type Loopback struct {
	rd      *Round
	servers []*ServerRound
	cols    map[string]int
}

// NewLoopback checks prob and builds an in-process round of it: replica j
// is addressed "loop/j", maxIters ≤ 0 selects DefaultMaxIters, and tol ≤ 0
// the algorithm's own default.
func NewLoopback(prob *opt.Problem, maxIters int, tol float64) (*Loopback, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, err
	}
	if maxIters <= 0 {
		maxIters = DefaultMaxIters
	}
	n := prob.N()
	addrs := make([]string, n)
	l := &Loopback{servers: make([]*ServerRound, n), cols: make(map[string]int, n)}
	for j := range addrs {
		addrs[j] = fmt.Sprintf("loop/%d", j)
		l.cols[addrs[j]] = j
		l.servers[j] = &ServerRound{Round: 1, Prob: prob, Col: j, Self: addrs[j], ReplicaAddrs: addrs}
	}
	l.rd = &Round{Seq: 1, Prob: prob, ReplicaAddrs: addrs, MaxIters: maxIters, Tol: tol}
	return l, nil
}

// Round returns the round the loopback serves.
func (l *Loopback) Round() *Round { return l.rd }

// Replica implements Transport: the request crosses as the bytes its codec
// writes (a nil body as the empty body), and the reply as the bytes the
// server half encoded, under the verb's ack.
func (l *Loopback) Replica(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
	j, ok := l.cols[addr]
	if !ok {
		return Reply{}, fmt.Errorf("engine: loopback has no replica %q", addr)
	}
	reg, ok := ServerFor(verb)
	if !ok {
		return Reply{}, fmt.Errorf("engine: loopback: no server half for %q", verb)
	}
	req := Reply{Verb: verb}
	if body != nil {
		var err error
		if req.Body, err = body.MarshalBinary(); err != nil {
			return Reply{}, fmt.Errorf("engine: loopback: marshal %s body: %w", verb, err)
		}
	}
	reply, err := reg.Server.Handle(ctx, verb, req, l.servers[j])
	return Reply{Verb: reg.Ack, Body: reply}, err
}

// Solve drives alg over the loopback's round and reports the run as a
// solver.Result: history maps each iteration's residual and primal cost
// (NaN when alg exposes no primal) to its History entry, perIter is the
// algorithm's analytic communication per iteration, and Converged is alg's
// own stop verdict — the iteration count cannot tell a stop on the last
// allowed iteration from running out.
func (l *Loopback) Solve(alg Algorithm, perIter solver.CommStats, history func(k int, residual, cost float64) float64) (*solver.Result, error) {
	res := &solver.Result{}
	v := &verdict{Algorithm: alg}
	d := &Driver{Transport: l, Observe: true, OnIterate: func(k int, residual, cost float64) {
		res.History = append(res.History, history(k, residual, cost))
	}}
	x, iters, err := d.Run(context.Background(), v, l.rd)
	if err != nil {
		return nil, err
	}
	res.Assignment = opt.NewMatrix(l.rd.Prob.C(), l.rd.Prob.N())
	l.rd.Prob.Sparsity().Scatter(res.Assignment, x)
	res.Objective, res.Iterations, res.Converged = l.rd.Prob.Cost(res.Assignment), iters, v.done
	res.Comm = solver.CommStats{Messages: perIter.Messages * iters, Scalars: perIter.Scalars * iters}
	return res, nil
}

// verdict records an algorithm's last stop verdict; it forwards Primal so
// the driver still costs the algorithm's iterate.
type verdict struct {
	Algorithm
	done bool
}

func (v *verdict) Converged(k int) (float64, bool) {
	residual, done := v.Algorithm.Converged(k)
	v.done = done
	return residual, done
}

func (v *verdict) Primal() []float64 {
	if t, ok := v.Algorithm.(PrimalTracer); ok {
		return t.Primal()
	}
	return nil
}
