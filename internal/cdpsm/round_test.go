package cdpsm

import (
	"bytes"
	"context"
	"encoding"
	"encoding/binary"
	"errors"
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

// poisonReply is a step reply whose estimate reads NaN at one slot once
// decoded, as a faulty replica would send it.
type poisonReply struct{ engine.Reply }

func (r poisonReply) Decode(into any) error {
	err := r.Reply.Decode(into)
	if reply, ok := into.(*StepReply); ok && err == nil {
		reply.Estimate = slices.Clone(reply.Estimate)
		reply.Estimate[3] = math.NaN()
	}
	return err
}

// poisonTransport carries a round over a loopback and poisons bad's replies.
type poisonTransport struct {
	lb  *engine.Loopback
	bad string
}

func (p poisonTransport) Replica(ctx context.Context, addr, verb string, body any) (engine.Reply, error) {
	rep, err := p.lb.Replica(ctx, addr, verb, body)
	if err == nil && addr == p.bad {
		rep = poisonReply{rep}
	}
	return rep, err
}

// A non-finite value poisons no consensus: the initiator refuses a step
// reply carrying a NaN as the sending replica's failure, naming it, and a
// replica refuses a step whose mean is not one finite value per supported
// pair, naming itself — with bodies handed over and through the real codecs
// alike.
func TestNonFiniteEstimateRefusedNamingReplica(t *testing.T) {
	prob, err := probgen.MustFeasible(sim.NewRand(5), probgen.Spec{Clients: 6, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	nnz := prob.Sparsity().NNZ()
	const bad = 2
	for name, carry := range map[string]engine.Carrier{"hand-over": nil, "codec": wiretest.Codec} {
		t.Run(name, func(t *testing.T) {
			lb, err := engine.NewLoopback(prob, 3, 0, carry)
			if err != nil {
				t.Fatal(err)
			}
			rd := lb.Round()
			badAddr := rd.ReplicaAddrs[bad]
			_, _, err = (&engine.Driver{Transport: poisonTransport{lb, badAddr}}).Run(context.Background(), &roundAlg{}, rd)
			var refused *engine.RefusedReplyError
			if !errors.As(err, &refused) || refused.Addr != badAddr || !strings.Contains(err.Error(), badAddr) {
				t.Fatalf("the initiator folded %s's NaN estimate: error %v", badAddr, err)
			}

			nan := make([]float64, nnz)
			nan[3] = math.NaN()
			for _, mean := range [][]float64{nan, make([]float64, nnz-1), nil} {
				for _, addr := range rd.ReplicaAddrs {
					_, err := lb.Replica(context.Background(), addr, MsgStep, StepBody{Round: rd.Seq, Step: DefaultStep, Mean: mean})
					if err == nil || !strings.Contains(err.Error(), addr) {
						t.Fatalf("%s stepped from a %d-value mean %v: error %v", addr, len(mean), mean, err)
					}
				}
			}
		})
	}
}

// rawBody hands bytes to a codec as they are: its binary form is itself.
type rawBody []byte

func (b rawBody) MarshalBinary() ([]byte, error) { return b, nil }

// wireBody is either step body, for the fuzz target.
type wireBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// FuzzStepBodies feeds arbitrary bytes to both step decoders — the first
// byte picks one, and a replica — and, through wiretest.Codec, to the real
// Handle of that replica over an engine.Loopback and to the real Fold of
// the step wave. Nothing may panic; whatever decodes must re-encode to
// exactly the input bytes (the encoding is canonical); a request Handle
// serves must come back as an estimate the Fold accepts, and a refusal
// must name the replica. A reply, and a vector built from the same bytes,
// is folded bit for bit when it holds one finite value per supported pair,
// and refused with an error naming the replica otherwise.
func FuzzStepBodies(f *testing.F) {
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
	fold := alg.exchanges[0].Fold

	seed := alg.ests[0]
	for k, s := range []wireBody{
		&StepBody{Round: 1, Step: DefaultStep, Mean: seed},
		&StepBody{Round: 1, Step: DefaultStep, Mean: append([]float64{math.NaN()}, seed[1:]...)},
		&StepReply{Estimate: seed},
		&StepReply{Estimate: append(make([]float64, nnz-1), 2)},
		&StepReply{Estimate: append([]float64{math.NaN(), math.Inf(-1)}, seed[2:]...)},
		&StepReply{Estimate: []float64{}},
	} {
		bin, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		pick := byte(2 * k)
		if _, ok := s.(*StepReply); ok {
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
		var body wireBody = &StepBody{}
		if data[0]%2 == 1 {
			body = &StepReply{}
		}
		if body.UnmarshalBinary(in) == nil {
			out, err := body.MarshalBinary()
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%T: %d input bytes re-encode to %d different ones (err %v)", body, len(in), len(out), err)
			}
		}

		// The bytes as replica j's request, then as its reply.
		if resp, err := lb.Replica(context.Background(), addr, MsgStep, rawBody(in)); err != nil {
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
			if err == nil && !slices.EqualFunc(alg.next[j], sent, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("folded %v, sent %v", alg.next[j], sent)
			}
		}
		var reply StepReply
		refuse := reply.UnmarshalBinary(in) != nil || hostile(reply.Estimate)
		rep, _ := wiretest.Codec(MsgStep+".ack", rawBody(in))
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
			rep, err := wiretest.Codec(MsgStep+".ack", StepReply{Estimate: v})
			if err != nil {
				t.Fatal(err)
			}
			check(rep, v, hostile(v))
		}
	})
}
