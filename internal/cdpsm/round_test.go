package cdpsm

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
)

// One replica whose committed estimate holds a NaN poisons no consensus:
// every peer's step refuses it, naming that replica, and so does Recover —
// with bodies handed over and through the real codecs alike.
func TestNonFiniteEstimateRefusedNamingReplica(t *testing.T) {
	prob, err := probgen.MustFeasible(sim.NewRand(5), probgen.Spec{Clients: 6, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	for name, carry := range map[string]engine.Carrier{"hand-over": nil, "codec": wiretest.Codec} {
		t.Run(name, func(t *testing.T) {
			lb, err := engine.NewLoopback(prob, 1, 0, carry)
			if err != nil {
				t.Fatal(err)
			}
			st, err := state(lb.Server(bad))
			if err != nil {
				t.Fatal(err)
			}
			st.committed = slices.Clone(st.committed)
			st.committed[3] = math.NaN()
			rd := lb.Round()
			badAddr := rd.ReplicaAddrs[bad]
			for j, addr := range rd.ReplicaAddrs {
				if j == bad {
					continue
				}
				_, err := lb.Send(context.Background(), addr, MsgStep, StepBody{Round: rd.Seq, Step: DefaultStep})
				if err == nil || !strings.Contains(err.Error(), badAddr) {
					t.Fatalf("%s stepped on %s's NaN estimate: error %v", addr, badAddr, err)
				}
			}
			rd.MaxIters = 0 // straight to Recover
			_, _, err = (&engine.Driver{Transport: lb}).Run(context.Background(), &roundAlg{}, rd)
			if err == nil || !strings.Contains(err.Error(), badAddr) {
				t.Fatalf("Recover averaged %s's NaN estimate: error %v", badAddr, err)
			}
		})
	}
}

// rawBody hands bytes to a codec as they are: its binary form is itself.
type rawBody []byte

func (b rawBody) MarshalBinary() ([]byte, error) { return b, nil }

// wireBody is either estimate body, for the fuzz target.
type wireBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// FuzzEstimateBodies feeds arbitrary bytes to both estimate decoders — the
// first byte picks one, and a replica — and, through wiretest.Codec, to
// the real Handle of that replica over an engine.Loopback and to the real
// Fold of Recover's collection. Nothing may panic; whatever decodes must
// re-encode to exactly the input bytes (the encoding is canonical); a
// request Handle serves must come back as an estimate the Fold accepts,
// and a refusal must name the replica. A vector built from the same bytes
// is folded bit for bit when it holds one finite value per supported pair,
// and refused with an error naming the replica otherwise.
func FuzzEstimateBodies(f *testing.F) {
	prob := maskedInstance(f, sim.NewRand(11), 8, 3)
	nnz, n := prob.Sparsity().NNZ(), prob.N()
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
	ests := make([][]float64, n)
	fold := alg.collect(ests).Fold

	st, err := state(lb.Server(0))
	if err != nil {
		f.Fatal(err)
	}
	for k, s := range []wireBody{
		&EstimateBody{Round: 1},
		&EstimateReply{Estimate: st.committed},
		&EstimateReply{Estimate: append(make([]float64, nnz-1), 2)},
		&EstimateReply{Estimate: append([]float64{math.NaN(), math.Inf(-1)}, st.committed[2:]...)},
		&EstimateReply{Estimate: []float64{}},
	} {
		bin, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		pick := byte(2 * k)
		if _, ok := s.(*EstimateReply); ok {
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
		var body wireBody = &EstimateBody{}
		if data[0]%2 == 1 {
			body = &EstimateReply{}
		}
		if body.UnmarshalBinary(in) == nil {
			out, err := body.MarshalBinary()
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%T: %d input bytes re-encode to %d different ones (err %v)", body, len(in), len(out), err)
			}
		}

		// The bytes as replica j's request, then as its reply.
		if resp, err := lb.Send(context.Background(), addr, MsgEstimate, rawBody(in)); err != nil {
			if !strings.Contains(err.Error(), addr) {
				t.Fatalf("request refused without naming %s: %v", addr, err)
			}
		} else if err := fold(j, resp); err != nil {
			t.Fatalf("%s served an estimate its initiator refuses: %v", addr, err)
		}
		hostile := func(v []float64) bool {
			return len(v) != nnz || slices.ContainsFunc(v, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
		}
		check := func(rep engine.Reply, sent []float64, refuse bool) {
			t.Helper()
			err := fold(j, rep)
			if refuse != (err != nil) || (err != nil && !strings.Contains(err.Error(), addr)) {
				t.Fatalf("%d-value estimate for %s: fold error %v, want refused %v", len(sent), addr, err, refuse)
			}
			if err == nil && !slices.EqualFunc(ests[j], sent, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("folded %v, sent %v", ests[j], sent)
			}
		}
		var reply EstimateReply
		refuse := reply.UnmarshalBinary(in) != nil || hostile(reply.Estimate)
		rep, _ := wiretest.Codec(MsgEstimate+".ack", rawBody(in))
		check(rep, reply.Estimate, refuse)

		// A vector from the same bytes, 8 a value, then one value short and
		// one value long.
		raw := make([]float64, nnz)
		for k := range raw {
			if 8*(k+1) <= len(in) {
				raw[k] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*k:]))
			}
		}
		for _, v := range [][]float64{raw, raw[:nnz-1], append(slices.Clone(raw), 0)} {
			rep, err := wiretest.Codec(MsgEstimate+".ack", EstimateReply{Estimate: v})
			if err != nil {
				t.Fatal(err)
			}
			check(rep, v, hostile(v))
		}
	})
}
