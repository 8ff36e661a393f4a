package engine

import (
	"context"
	"fmt"
	"reflect"

	"edr/internal/opt"
	"edr/internal/solver"
)

// DefaultMaxIters bounds a round's distributed iterations when the caller
// sets no bound: the live fleet's default and the in-process solvers'.
const DefaultMaxIters = 200

// Carrier hands a sent body across to the receiving side as the Reply it
// decodes.
type Carrier func(verb string, body any) (Reply, error)

// Loopback runs a round's replicas in this process: one ServerRound per
// column, every verb handed straight to the server half registered for it
// (ServerFor). It is the round's Transport. The in-process solvers are the
// engine's Algorithms run over a Loopback: the paper's figures and the
// fleet run one loop.
//
// Bodies are handed over, not marshaled: a receiver decodes the very
// slices its sender built, so no body is copied. That is sound for the
// rounds registered here — each handler is done with its request when it
// replies (CDPSM's clones the mean it steps on), and every reply is built
// afresh — and each engine's solver test checks that it gives the real
// codecs' answer bit for bit.
type Loopback struct {
	rd      *Round
	servers []*ServerRound
	cols    map[string]int
	carry   Carrier
}

// NewLoopback checks prob and builds an in-process round of it: replica j
// is addressed "loop/j", maxIters ≤ 0 selects DefaultMaxIters, tol ≤ 0 the
// algorithm's own default, and carry nil hands each body over as it is,
// without a copy.
func NewLoopback(prob *opt.Problem, maxIters int, tol float64, carry Carrier) (*Loopback, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, err
	}
	if maxIters <= 0 {
		maxIters = DefaultMaxIters
	}
	if carry == nil {
		carry = func(_ string, body any) (Reply, error) { return handOver{body}, nil }
	}
	n := prob.N()
	addrs := make([]string, n)
	l := &Loopback{servers: make([]*ServerRound, n), cols: make(map[string]int, n), carry: carry}
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

// Replica implements Transport: the request and the reply each cross once.
func (l *Loopback) Replica(ctx context.Context, addr, verb string, body any) (Reply, error) {
	j, ok := l.cols[addr]
	if !ok {
		return nil, fmt.Errorf("engine: loopback has no replica %q", addr)
	}
	reg, ok := ServerFor(verb)
	if !ok || reg.Server == nil {
		return nil, fmt.Errorf("engine: loopback: no server half for %q", verb)
	}
	req, err := l.carry(verb, body)
	if err != nil {
		return nil, err
	}
	reply, err := reg.Server.Handle(ctx, verb, req, l.servers[j])
	if err != nil {
		return nil, err
	}
	return l.carry(verb+".ack", reply)
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

// handOver carries body without a codec: Decode sets its target, a
// pointer to body's type, to body itself — a typed copy of the value whose
// slices still share the sender's memory, and whose codec context
// (`json:"-"` fields) is the sender's, meaningless without a codec. A nil
// body decodes as nothing.
type handOver struct{ body any }

func (r handOver) Decode(into any) error {
	if r.body == nil {
		return nil
	}
	dst, src := reflect.ValueOf(into), reflect.Indirect(reflect.ValueOf(r.body))
	if dst.Kind() != reflect.Pointer || dst.IsNil() || dst.Elem().Type() != src.Type() {
		return fmt.Errorf("engine: loopback cannot decode %T into %T", r.body, into)
	}
	dst.Elem().Set(src)
	return nil
}
