package lddm

import (
	"context"
	"encoding"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/transport"
)

// wireReply is the Reply a fleet peer receives for m.
func wireReply(m transport.Message) engine.Reply { return engine.Reply{Verb: m.Type, Body: m.Body} }

// spyTransport runs a round over an engine.Loopback, which carries every
// body through the real codecs. onSolve sees each request as the replica
// decodes it, before it is answered; onReply sees each reply as the
// initiator decodes it.
type spyTransport struct {
	lb      *engine.Loopback
	onSolve func(col int, body SolveBody) error
	onReply func(col int, reply SolveReply) error
}

// newSpy builds a loopback round of prob.
func newSpy(t *testing.T, prob *opt.Problem, maxIters int, tol float64) *spyTransport {
	t.Helper()
	lb, err := engine.NewLoopback(prob, maxIters, tol)
	if err != nil {
		t.Fatal(err)
	}
	return &spyTransport{lb: lb}
}

func (s *spyTransport) Replica(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (engine.Reply, error) {
	col := slices.Index(s.lb.Round().ReplicaAddrs, addr)
	if s.onSolve != nil {
		req, err := transport.NewMessage(verb, "initiator", body)
		if err != nil {
			return engine.Reply{}, err
		}
		var decoded SolveBody
		if err := wireReply(req).Decode(&decoded); err != nil {
			return engine.Reply{}, err
		}
		if err := s.onSolve(col, decoded); err != nil {
			return engine.Reply{}, err
		}
	}
	reply, err := s.lb.Replica(ctx, addr, verb, body)
	if err != nil || s.onReply == nil {
		return reply, err
	}
	var decoded SolveReply
	if err := reply.Decode(&decoded); err != nil {
		return engine.Reply{}, err
	}
	return reply, s.onReply(col, decoded)
}

// run drives alg over the spy's round.
func (s *spyTransport) run(d *engine.Driver, alg engine.Algorithm) ([]float64, int, error) {
	d.Transport = s
	return d.Run(context.Background(), alg, s.lb.Round())
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
			c := prob.C()
			clients := make([]clientAccumulator, c)
			step := AutoStepValue(prob, 0)
			sp := prob.Sparsity()

			iters := 0 // iterations completed; the wave in flight is iters+1
			lt := newSpy(t, prob, 60, 0)
			lt.onSolve = func(j int, body SolveBody) error {
				support := sp.RowIdx[sp.ColStart[j]:sp.ColStart[j+1]]
				if len(body.Mu) != len(support) {
					return fmt.Errorf("replica %d is sent %d multipliers for a support of %d", j, len(body.Mu), len(support))
				}
				for p, i := range support {
					if want := clients[i].mu; math.Float64bits(body.Mu[p]) != math.Float64bits(want) {
						return fmt.Errorf("iteration %d: replica %d is sent μ[%d] = %v, client accumulator holds %v",
							iters+1, j, i, body.Mu[p], want)
					}
				}
				return nil
			}
			alg := &roundAlg{}
			d := &engine.Driver{
				Observe: true,
				OnIterate: func(k int, _, _ float64) {
					iters = k
					for i := 0; i < c; i++ {
						served := 0.0
						for _, v := range alg.primal[sp.RowStart[i]:sp.RowStart[i+1]] {
							served += v
						}
						want := clients[i].update(served, prob.Demands[i], step)
						if math.Float64bits(alg.mu[i]) != math.Float64bits(want) {
							t.Fatalf("iteration %d: initiator μ[%d] = %v, client accumulator %v", k, i, alg.mu[i], want)
						}
					}
				},
			}
			if _, _, err := lt.run(d, alg); err != nil {
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
// The reported duals outlive their round: later rounds leave them as they
// were.
func TestRoundWarmDuals(t *testing.T) {
	prob := maskedInstance(t, sim.NewRand(29), 16, 5)
	sp := prob.Sparsity()
	run := func(maxIters int, warmMu []float64) ([]float64, []float64) {
		t.Helper()
		lt := newSpy(t, prob, maxIters, 1e-12)
		var solves atomic.Int64 // the first wave is the first |N| solves
		lt.onSolve = func(j int, body SolveBody) error {
			if solves.Add(1) > int64(prob.N()) || warmMu == nil {
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
		rd := lt.lb.Round()
		rd.WarmMu = warmMu
		x, _, err := lt.run(&engine.Driver{}, alg)
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
	ref := prob.PackedCost(long)
	coldGap, warmGap := math.Abs(prob.PackedCost(cold)-ref), math.Abs(prob.PackedCost(warm)-ref)
	if warmGap >= coldGap {
		t.Fatalf("warm round %g from the long round's cost, cold round %g", warmGap, coldGap)
	}
}
