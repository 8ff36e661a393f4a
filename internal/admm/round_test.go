package admm

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
// the real body codecs (delta frames included) into the real server half.
type loopTransport map[string]*engine.ServerRound

func newLoopTransport(prob *opt.Problem, addrs []string) loopTransport {
	lt := make(loopTransport)
	for j, addr := range addrs {
		lt[addr] = &engine.ServerRound{Round: 1, Prob: prob, Col: j, Self: addr, ReplicaAddrs: addrs}
	}
	return lt
}

func (lt loopTransport) Replica(ctx context.Context, addr, verb string, body any) (engine.Reply, error) {
	req, err := transport.NewMessage(verb, "initiator", body)
	if err != nil {
		return nil, err
	}
	reply, err := serverHalf{}.Handle(ctx, verb, wireReply{req}, lt[addr])
	if err != nil {
		return nil, err
	}
	resp, err := transport.NewMessage(verb+".ack", addr, reply)
	if err != nil {
		return nil, err
	}
	return wireReply{resp}, nil
}

// The initiator's scaled dual is, bit for bit and at every iteration, the
// warm offset plus what the per-client accumulators of the retired
// client.muupdate wave would hold (zero at the start of a round, one step
// of 1/|N| per iteration) — cold and with a non-zero WarmMu.
func TestRoundDualStepMatchesClientAccumulator(t *testing.T) {
	r := sim.NewRand(7)
	full, err := probgen.MustFeasible(r, probgen.Spec{Clients: 12, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	masked := maskedInstance(t, r, 8, 4)
	for _, tc := range []struct {
		name string
		prob *opt.Problem
		warm bool
	}{
		{"full cold", full, false},
		{"full warm", full, true},
		{"masked warm", masked, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob := tc.prob
			c, n := prob.C(), prob.N()
			addrs := make([]string, n)
			for j := range addrs {
				addrs[j] = fmt.Sprintf("r%d", j)
			}
			warm := make([]float64, c)
			rd := &engine.Round{Seq: 1, Prob: prob, ReplicaAddrs: addrs, MaxIters: 25, Tol: 1e-12}
			if tc.warm {
				for i := range warm {
					warm[i] = -3 + 0.37*float64(i) // awkward magnitudes: rounding must not depend on them
				}
				rd.WarmMu = append([]float64(nil), warm...)
			}
			clients := make([]float64, c) // the client-held accumulators
			step := 1 / float64(n)
			alg := &roundAlg{}
			iters := 0
			d := &engine.Driver{
				Transport: newLoopTransport(prob, addrs),
				Observe:   true,
				OnIterate: func(k int, _, _ float64) {
					iters = k
					for i := 0; i < c; i++ {
						served := 0.0
						for j := 0; j < n; j++ {
							served += alg.z[j][i]
						}
						clients[i] += step * (served - prob.Demands[i])
						if want := warm[i] + clients[i]; math.Float64bits(alg.u[i]) != math.Float64bits(want) {
							t.Fatalf("iteration %d: initiator u[%d] = %v, warm offset + client accumulator = %v", k, i, alg.u[i], want)
						}
					}
				},
			}
			if _, _, err := d.Run(context.Background(), alg, rd); err != nil {
				t.Fatal(err)
			}
			if iters < 10 {
				t.Fatalf("only %d iterations compared", iters)
			}
			for i, u := range alg.Duals() {
				if want := warm[i] + clients[i]; math.Float64bits(u) != math.Float64bits(want) {
					t.Fatalf("reported dual[%d] = %v, want %v", i, u, want)
				}
			}
		})
	}
}
