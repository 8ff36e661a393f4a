package lddm

import (
	"context"
	"fmt"
	"math"
	"testing"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/transport"
)

// wireReply decodes a marshaled message, as the live fabric's replies do.
type wireReply struct{ m transport.Message }

func (w wireReply) Decode(into any) error { return w.m.DecodeBody(into) }

// loopTransport is an in-process engine.Transport: every RPC goes through
// the real body codecs into the real server half. onSolve sees each request
// as the replica decoded it, before it is answered; onReply sees each reply
// as the initiator decodes it.
type loopTransport struct {
	rounds  map[string]*engine.ServerRound
	onSolve func(col int, body SolveBody) error
	onReply func(col int, reply SolveReply) error
}

func newLoopTransport(prob *opt.Problem, addrs []string) *loopTransport {
	lt := &loopTransport{rounds: make(map[string]*engine.ServerRound)}
	for j, addr := range addrs {
		lt.rounds[addr] = &engine.ServerRound{Round: 1, Prob: prob, Col: j, Self: addr, ReplicaAddrs: addrs}
	}
	return lt
}

func (lt *loopTransport) Replica(ctx context.Context, addr, verb string, body any) (engine.Reply, error) {
	sr := lt.rounds[addr]
	req, err := transport.NewMessage(verb, "initiator", body)
	if err != nil {
		return nil, err
	}
	if lt.onSolve != nil {
		var decoded SolveBody
		if err := req.DecodeBody(&decoded); err != nil {
			return nil, err
		}
		if err := lt.onSolve(sr.Col, decoded); err != nil {
			return nil, err
		}
	}
	reply, err := serverHalf{}.Handle(ctx, verb, wireReply{req}, sr)
	if err != nil {
		return nil, err
	}
	resp, err := transport.NewMessage(verb+".ack", addr, reply)
	if err != nil {
		return nil, err
	}
	if lt.onReply != nil {
		var decoded SolveReply
		if err := resp.DecodeBody(&decoded); err != nil {
			return nil, err
		}
		if err := lt.onReply(sr.Col, decoded); err != nil {
			return nil, err
		}
	}
	return wireReply{resp}, nil
}

// replicaAddrs names a problem's replicas r0, r1, ….
func replicaAddrs(n int) []string {
	addrs := make([]string, n)
	for j := range addrs {
		addrs[j] = fmt.Sprintf("r%d", j)
	}
	return addrs
}

// clientAccumulator is the multiplier as a client used to hold it: zero at
// the start of a round, one step per client.muupdate it answered.
type clientAccumulator struct{ mu float64 }

func (c *clientAccumulator) update(served, demand, step float64) float64 {
	c.mu += step * (served - demand)
	return c.mu
}

// The initiator's μ is, bit for bit and at every iteration, what the
// per-client accumulators of the retired client.muupdate wave would hold —
// both as the algorithm's state after the step and as the vector the next
// iteration actually ships to each replica.
func TestRoundDualStepMatchesClientAccumulator(t *testing.T) {
	r := sim.NewRand(11)
	full, err := probgen.MustFeasible(r, probgen.Spec{Clients: 12, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, prob := range map[string]*opt.Problem{
		"full":   full,
		"masked": maskedInstance(t, r, 10, 4),
	} {
		t.Run(name, func(t *testing.T) {
			c, n := prob.C(), prob.N()
			clients := make([]clientAccumulator, c)
			step := AutoStepValue(prob)
			sp := prob.Sparsity()

			lt := newLoopTransport(prob, replicaAddrs(n))
			lt.onSolve = func(j int, body SolveBody) error {
				support := sp.RowIdx[sp.ColStart[j]:sp.ColStart[j+1]]
				if len(body.Mu) != len(support) {
					return fmt.Errorf("replica %d is sent %d multipliers for a support of %d", j, len(body.Mu), len(support))
				}
				for p, i := range support {
					if want := clients[i].mu; math.Float64bits(body.Mu[p]) != math.Float64bits(want) {
						return fmt.Errorf("iteration %d: replica %d is sent μ[%d] = %v, client accumulator holds %v",
							body.Iter, j, i, body.Mu[p], want)
					}
				}
				return nil
			}
			alg := &roundAlg{}
			iters := 0
			d := &engine.Driver{
				Transport: lt,
				Observe:   true,
				OnIterate: func(k int, _, _ float64) {
					iters = k
					for i := 0; i < c; i++ {
						served := 0.0
						for j := 0; j < n; j++ {
							served += alg.primal[i][j]
						}
						want := clients[i].update(served, prob.Demands[i], step)
						if math.Float64bits(alg.mu[i]) != math.Float64bits(want) {
							t.Fatalf("iteration %d: initiator μ[%d] = %v, client accumulator %v", k, i, alg.mu[i], want)
						}
					}
				},
			}
			rd := &engine.Round{Seq: 1, Prob: prob, ReplicaAddrs: replicaAddrs(n), MaxIters: 60}
			if _, _, err := d.Run(context.Background(), alg, rd); err != nil {
				t.Fatal(err)
			}
			if iters < 16 {
				t.Fatalf("only %d iterations compared", iters)
			}
		})
	}
}

// Warm duals: a round seeded with the previous round's reported μ ships
// exactly that μ in its first wave, and with a short iteration budget lands
// nearer the long cold round's cost than a cold round with the same budget.
// The reported duals outlive the round's pool, which the initiator keeps
// across rounds and releases after each.
func TestRoundWarmDuals(t *testing.T) {
	prob := maskedInstance(t, sim.NewRand(29), 16, 5)
	addrs := replicaAddrs(prob.N())
	sp := prob.Sparsity()
	pool := &opt.Pool{}
	run := func(maxIters int, warmMu []float64) ([][]float64, []float64) {
		t.Helper()
		defer pool.Release()
		lt := newLoopTransport(prob, addrs)
		lt.onSolve = func(j int, body SolveBody) error {
			if body.Iter != 1 || warmMu == nil {
				return nil
			}
			for p, i := range sp.RowIdx[sp.ColStart[j]:sp.ColStart[j+1]] {
				if v, want := body.Mu[p], warmMu[i]; v != want {
					return fmt.Errorf("replica %d is sent μ[%d] = %v in the first wave, warm seed %v", j, i, v, want)
				}
			}
			return nil
		}
		alg := &roundAlg{}
		rd := &engine.Round{Seq: 1, Prob: prob, ReplicaAddrs: addrs, MaxIters: maxIters, Tol: 1e-12, WarmMu: warmMu, Pool: pool}
		x, _, err := (&engine.Driver{Transport: lt}).Run(context.Background(), alg, rd)
		if err != nil {
			t.Fatal(err)
		}
		return x, alg.Duals()
	}
	long, duals := run(200, nil)
	kept := append([]float64(nil), duals...)
	cold, _ := run(20, nil)
	warm, _ := run(20, duals)
	for i := range kept {
		if math.Float64bits(duals[i]) != math.Float64bits(kept[i]) {
			t.Fatalf("reported dual %d changed after later rounds: %v → %v", i, kept[i], duals[i])
		}
	}
	ref := prob.Cost(long)
	coldGap, warmGap := math.Abs(prob.Cost(cold)-ref), math.Abs(prob.Cost(warm)-ref)
	if warmGap >= coldGap {
		t.Fatalf("warm round %g from the long round's cost, cold round %g", warmGap, coldGap)
	}
}
