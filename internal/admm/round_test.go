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
// through the real codecs.
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

// rawBody hands bytes to a codec as they are: its binary form is itself.
type rawBody []byte

func (b rawBody) MarshalBinary() ([]byte, error) { return b, nil }

// wireBody is either ADMM body, for the fuzz target.
type wireBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// FuzzProxBodies feeds arbitrary bytes to both ADMM decoders — the first
// byte picks one, and a replica — and, through wiretest.Codec, to the real
// Handle of that replica over an engine.Loopback and to the real Fold of the
// initiator. Nothing may panic; whatever decodes must re-encode to exactly
// the input bytes (the encoding is canonical); a request Handle serves must
// come back as a column Fold accepts, and a refusal must name the replica.
// A column built from the same bytes is folded bit for bit when every entry
// lies in [0, R_c] on the replica's support and is zero off it, and refused
// with an error naming the replica otherwise.
func FuzzProxBodies(f *testing.F) {
	prob := maskedInstance(f, sim.NewRand(11), 8, 3)
	c, n := prob.C(), prob.N()
	allowed := prob.Allowed()
	lb, err := engine.NewLoopback(prob, 1, 0, wiretest.Codec)
	if err != nil {
		f.Fatal(err)
	}
	rd := lb.Round()
	rd.Pool = &opt.Pool{}
	alg := &roundAlg{}
	if err := alg.Init(rd); err != nil {
		f.Fatal(err)
	}
	fold := alg.exchanges[0].Fold

	target := make([]float64, c)
	for i := range target {
		target[i] = 0.5*float64(i) - 1
	}
	for k, s := range []wireBody{
		&ProxBody{Round: 1, Iter: 3, Rho: alg.rho, Target: target},
		&ProxBody{Round: 1, Iter: 1, Rho: 1, Target: append(make([]float64, c-1), 2)},
		&ProxBody{Round: 1, Iter: 2, Rho: 0.5, Target: []float64{}},
		&ProxReply{Column: make([]float64, c)},
		&ProxReply{Column: append([]float64{math.NaN(), -1}, target[2:]...)},
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

		// The bytes as replica j's request, then as its reply.
		if resp, err := lb.Send(context.Background(), addr, MsgProx, rawBody(in)); err != nil {
			if !strings.Contains(err.Error(), addr) {
				t.Fatalf("request refused without naming %s: %v", addr, err)
			}
		} else if err := fold(j, resp); err != nil {
			t.Fatalf("%s served a column its initiator refuses: %v", addr, err)
		}
		rep, _ := wiretest.Codec(MsgProx+".ack", rawBody(in))
		if err := fold(j, rep); err != nil && !strings.Contains(err.Error(), addr) {
			t.Fatalf("reply refused without naming %s: %v", addr, err)
		}

		// A column from the same bytes, 8 a client: the honest one keeps each
		// raw value a proximal solve could return and zeroes the rest.
		raw, honest, hostile := make([]float64, c), make([]float64, c), false
		for i := range raw {
			if 8*(i+1) <= len(in) {
				raw[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
			}
			if v := raw[i]; v == 0 || (allowed[i][j] && v >= 0 && v <= prob.Demands[i]) {
				honest[i] = v
			} else {
				hostile = true
			}
		}
		for _, tc := range []struct {
			col    []float64
			refuse bool
		}{{honest, false}, {honest[:c-1], true}, {raw, hostile}} {
			rep, err := wiretest.Codec(MsgProx+".ack", ProxReply{Column: tc.col})
			if err != nil {
				t.Fatal(err)
			}
			err = fold(j, rep)
			if tc.refuse != (err != nil) || (err != nil && !strings.Contains(err.Error(), addr)) {
				t.Fatalf("column %v for %s: fold error %v, want refused %v", tc.col, addr, err, tc.refuse)
			}
			if err == nil && !slices.EqualFunc(alg.z[j], tc.col, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("folded %v, sent %v", alg.z[j], tc.col)
			}
		}
	})
}
