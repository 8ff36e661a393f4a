package admm

import (
	"bytes"
	"context"
	"encoding"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
)

// A warm seed arrives packed in CSR order while z is held in CSC order: on
// a masked instance, where the two orders differ, Primal hands the seed
// back bit for bit right after Init.
func TestWarmSeedIsPrimalAfterInit(t *testing.T) {
	prob := maskedInstance(t, sim.NewRand(23), 12, 4)
	warm := make([]float64, prob.Sparsity().NNZ())
	for k := range warm {
		warm[k] = float64(k) + 0.25 // distinct, so any slot mix-up shows
	}
	rd := &engine.Round{Seq: 1, Prob: prob, ReplicaAddrs: make([]string, prob.N()), Warm: warm}
	alg := &roundAlg{}
	if _, err := alg.Init(rd); err != nil {
		t.Fatal(err)
	}
	for k, v := range alg.Primal() {
		if math.Float64bits(v) != math.Float64bits(warm[k]) {
			t.Fatalf("slot %d: Primal %v after Init, warm seed %v", k, v, warm[k])
		}
	}
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
			warm := make([]float64, c)
			lb, err := engine.NewLoopback(prob, 25, 1e-12)
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
			sp := prob.Sparsity()
			alg := &roundAlg{}
			iters := 0
			d := &engine.Driver{
				Transport: lb,
				Observe:   true,
				OnIterate: func(k int, _, _ float64) {
					iters = k
					for i := 0; i < c; i++ {
						// Client i's entries of the packed z, in replica order.
						served := 0.0
						for slot := sp.RowStart[i]; slot < sp.RowStart[i+1]; slot++ {
							served += alg.z[sp.PosCSC[slot]]
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

// rawBody hands bytes to a codec as they are: its binary form is itself.
type rawBody []byte

func (b rawBody) MarshalBinary() ([]byte, error) { return b, nil }

// wireBody is either ADMM body, for the fuzz target.
type wireBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// FuzzProxBodies feeds arbitrary bytes to both ADMM decoders — the first
// byte picks one, and a replica — and to the real Handle of that replica
// over an engine.Loopback and to the real Fold of the initiator. Nothing may panic; whatever decodes must re-encode to exactly
// the input bytes (the encoding is canonical); a request Handle serves must
// come back as a shift Fold accepts, and every refusal must name the
// replica. Handle refuses targets of the wrong length for the replica's
// support; Fold accepts exactly the 8-byte replies holding a shift s ≥ 0
// (+Inf included) and rebuilds the column as clip(t − s, 0, R_c) of the
// targets the wave sent, bit for bit.
func FuzzProxBodies(f *testing.F) {
	prob := maskedInstance(f, sim.NewRand(11), 8, 3)
	n := prob.N()
	sp := prob.Sparsity()
	lb, err := engine.NewLoopback(prob, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	rd := lb.Round()
	alg := &roundAlg{}
	ex, err := alg.Init(rd)
	if err != nil {
		f.Fatal(err)
	}

	support := func(j int) int { return sp.ColStart[j+1] - sp.ColStart[j] }
	target := make([]float64, support(0))
	for p := range target {
		target[p] = 0.5*float64(p) - 1
	}
	for k, s := range []wireBody{
		&ProxBody{Round: 1, Rho: alg.rho, Target: target},
		&ProxBody{Round: 1, Rho: 1, Target: append(make([]float64, max(support(1)-1, 0)), 2)},
		&ProxBody{Round: 1, Rho: 0.5, Target: []float64{}},
		&ProxReply{Shift: 0.25},
		&ProxReply{Shift: math.Inf(1)},
		&ProxReply{Shift: math.NaN()},
		&ProxReply{Shift: -1},
	} {
		bin, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		pick := byte(2 * k)
		if _, ok := s.(*ProxReply); ok {
			pick++
		}
		f.Add(append([]byte{pick}, bin...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		j, in := int(data[0]/2)%n, data[1:]
		addr := rd.ReplicaAddrs[j]
		lo, hi := sp.ColStart[j], sp.ColStart[j+1]
		var body wireBody = &ProxBody{}
		if data[0]%2 == 1 {
			body = &ProxReply{}
		}
		if body.UnmarshalBinary(in) == nil {
			out, err := body.MarshalBinary()
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%T: %d input bytes re-encode to %d different ones (err %v)", body, len(in), len(out), err)
			}
		}

		// The bytes as replica j's request.
		var req ProxBody
		wrongLength := req.UnmarshalBinary(in) == nil && len(req.Target) != hi-lo
		ex.Body(j)
		if resp, err := lb.Replica(context.Background(), addr, MsgProx, rawBody(in)); err != nil {
			if !strings.Contains(err.Error(), addr) {
				t.Fatalf("request refused without naming %s: %v", addr, err)
			}
		} else if wrongLength {
			t.Fatalf("%s served %d targets for a support of %d", addr, len(req.Target), hi-lo)
		} else if err := ex.Fold(j, resp); err != nil {
			t.Fatalf("%s served a shift its initiator refuses: %v", addr, err)
		}

		// The bytes as replica j's reply: the column is rebuilt from the
		// targets of the wave the reply answers.
		ex.Body(j)
		sent := slices.Clone(alg.targets[lo:hi])
		err := ex.Fold(j, engine.Reply{Verb: MsgProx + ".ack", Body: in})
		shift := math.NaN()
		if len(in) == 8 {
			shift = math.Float64frombits(binary.LittleEndian.Uint64(in))
		}
		if accept := shift >= 0; accept != (err == nil) || (err != nil && !strings.Contains(err.Error(), addr)) {
			t.Fatalf("%d reply bytes (shift %v) for %s: fold error %v, want accepted %v", len(in), shift, addr, err, accept)
		}
		if err != nil {
			return
		}
		for p, v := range alg.z[lo:hi] {
			want := clip(sent[p]-shift, prob.Demands[sp.RowIdx[lo+p]])
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("shift %v folded slot %d to %v, want clip(%v − s) = %v", shift, p, v, sent[p], want)
			}
		}
	})
}
