package admm

import (
	"context"
	"math"
	"testing"

	"edr/internal/engine"
	"edr/internal/engine/wiretest"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

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
			warm := make([]float64, c)
			lb, err := engine.NewLoopback(prob, 25, 1e-12, wiretest.Codec)
			if err != nil {
				t.Fatal(err)
			}
			rd := lb.Round()
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
				Transport: lb,
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

// Solve gives the same answer bit for bit with bodies handed over and
// through the real codecs (delta target frames included).
func TestSolveLoopbackMatchesCodec(t *testing.T) {
	r := sim.NewRand(41)
	full, err := probgen.MustFeasible(r, probgen.Spec{Clients: 12, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, prob := range map[string]*opt.Problem{"full": full, "masked": maskedInstance(t, r, 10, 4)} {
		t.Run(name, func(t *testing.T) {
			s := &Solver{MaxIters: 80, Tol: 1e-6}
			wiretest.SameOverCodec(t, func(carry engine.Carrier) (*solver.Result, error) {
				return s.solve(prob, carry)
			})
		})
	}
}
