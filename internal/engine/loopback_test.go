package engine

import (
	"context"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/solver"
)

// Toy verb for the loopback tests: the replica answers an ask with the
// iteration it carried and its own column and address.
const loopAsk = "test.loop.ask"

// loopBody is the toy ask: the iteration, and a vector the replica writes
// into once it has decoded it. Its codec is eight bytes a number.
type loopBody struct {
	Iter int
	Vec  []float64
}

func (b loopBody) MarshalBinary() ([]byte, error) {
	out := binary.LittleEndian.AppendUint64(nil, uint64(b.Iter))
	for _, v := range b.Vec {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out, nil
}

func (b *loopBody) UnmarshalBinary(data []byte) error {
	if len(data) < 8 || len(data)%8 != 0 {
		return fmt.Errorf("toy ask of %d bytes", len(data))
	}
	b.Iter, b.Vec = int(binary.LittleEndian.Uint64(data)), nil
	for p := 8; p < len(data); p += 8 {
		b.Vec = append(b.Vec, math.Float64frombits(binary.LittleEndian.Uint64(data[p:])))
	}
	return nil
}

// loopReply crosses as bytes, as every reply does: its codec is a line of
// text.
type loopReply struct {
	Iter int
	Col  int
	Self string
}

func (r loopReply) MarshalBinary() ([]byte, error) {
	return fmt.Appendf(nil, "%d %d %s", r.Iter, r.Col, r.Self), nil
}

func (r *loopReply) UnmarshalBinary(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%d %d %s", &r.Iter, &r.Col, &r.Self)
	return err
}

type loopServer struct{}

func (loopServer) Handle(ctx context.Context, verb string, req Reply, sr *ServerRound) ([]byte, error) {
	var body loopBody
	if err := req.Decode(&body); err != nil {
		return nil, err
	}
	for k := range body.Vec {
		body.Vec[k] = -1 // the decoded request is the replica's own
	}
	return loopReply{Iter: body.Iter, Col: sr.Col, Self: sr.Self}.MarshalBinary()
}

func init() {
	Register(Registration{Name: "TEST-LOOP", New: func() Algorithm { return &loopAlg{} }, Server: loopServer{}, Verb: loopAsk})
}

// loopAlg asks every replica once per iteration and stops at doneAt (never
// when 0).
type loopAlg struct {
	rd      *Round
	doneAt  int
	k       int // the iteration the next wave asks
	replies []loopReply
}

func (a *loopAlg) Init(rd *Round) (Exchange, error) {
	a.rd, a.k = rd, 1
	a.replies = make([]loopReply, len(rd.ReplicaAddrs))
	return Exchange{
		Verb: loopAsk,
		Body: func(i int) encoding.BinaryMarshaler { return loopBody{Iter: a.k} },
		Fold: func(i int, r Reply) error { return r.Decode(&a.replies[i]) },
	}, nil
}

func (a *loopAlg) Converged(k int) (float64, bool) {
	a.k = k + 1
	return float64(k), k == a.doneAt
}

func (a *loopAlg) Recover() ([]float64, error) {
	return make([]float64, a.rd.Prob.Sparsity().NNZ()), nil
}

// newLoop builds a loopback round over n toy replicas.
func newLoop(t *testing.T, n, maxIters int) *Loopback {
	t.Helper()
	l, err := NewLoopback(loopProblem(t, n), maxIters, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func loopProblem(t *testing.T, n int) *opt.Problem {
	t.Helper()
	reps := make([]model.Replica, n)
	lat := [][]float64{make([]float64, n)}
	for j := range reps {
		reps[j] = model.NewReplica(fmt.Sprintf("r%d", j), 1)
	}
	sys, err := model.NewSystem(reps)
	if err != nil {
		t.Fatal(err)
	}
	return &opt.Problem{System: sys, Demands: []float64{1}, Latency: lat, MaxLatency: 1}
}

// Every verb reaches the server half registered for it on the addressed
// peer's column, and Solve reports the algorithm's own stop verdict, its
// history and its analytic communication.
func TestLoopbackRoutesVerbsAndPeers(t *testing.T) {
	lb := newLoop(t, 3, 10)
	alg := &loopAlg{doneAt: 4}
	res, err := lb.Solve(alg, solver.CommStats{Messages: 3, Scalars: 5}, func(k int, residual, cost float64) float64 {
		if !math.IsNaN(cost) {
			t.Errorf("iteration %d costed %v with no primal", k, cost)
		}
		return residual * 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 || !res.Converged {
		t.Fatalf("%d iterations, converged %v; want 4, true", res.Iterations, res.Converged)
	}
	if fmt.Sprint(res.History) != "[10 20 30 40]" {
		t.Fatalf("history %v", res.History)
	}
	if res.Comm != (solver.CommStats{Messages: 12, Scalars: 20}) {
		t.Fatalf("comm %+v", res.Comm)
	}
	for j, r := range alg.replies {
		if r.Iter != 4 || r.Col != j || r.Self != lb.Round().ReplicaAddrs[j] {
			t.Fatalf("replica %d answered %+v", j, r)
		}
	}
}

// A stop on the last allowed iteration is a stop on the rule; running out
// of iterations is not.
func TestLoopbackVerdictAtBound(t *testing.T) {
	for _, tc := range []struct {
		doneAt    int
		converged bool
	}{{5, true}, {0, false}} {
		lb := newLoop(t, 2, 5)
		res, err := lb.Solve(&loopAlg{doneAt: tc.doneAt}, solver.CommStats{}, func(int, float64, float64) float64 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 5 || res.Converged != tc.converged {
			t.Fatalf("doneAt %d: %d iterations, converged %v", tc.doneAt, res.Iterations, res.Converged)
		}
	}
	if got := newLoop(t, 2, 0).Round().MaxIters; got != DefaultMaxIters {
		t.Fatalf("MaxIters 0 gave %d", got)
	}
}

func TestLoopbackRefusesUnknownPeerAndVerb(t *testing.T) {
	lb := newLoop(t, 2, 1)
	if _, err := lb.Replica(context.Background(), "nowhere", loopAsk, loopBody{}); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("unknown peer: %v", err)
	}
	addr := lb.Round().ReplicaAddrs[0]
	if _, err := lb.Replica(context.Background(), addr, "test.loop.unknown", loopBody{}); err == nil || !strings.Contains(err.Error(), "test.loop.unknown") {
		t.Fatalf("unknown verb: %v", err)
	}
}

// brokenBody is a request its codec cannot write.
type brokenBody struct{}

func (brokenBody) MarshalBinary() ([]byte, error) { return nil, errors.New("no bytes for you") }

// A request crosses as the bytes its codec writes, as on the wire: a replica
// that writes into the request it decoded leaves its initiator's body as it
// was. A nil request crosses as the empty body, refused by the decoder
// naming the verb, a body its codec cannot write is refused naming the verb,
// and the reply crosses as the bytes its handler encoded, under the verb's
// ack.
func TestLoopbackCarriesBodiesThroughCodecs(t *testing.T) {
	lb := newLoop(t, 2, 1)
	addr := lb.Round().ReplicaAddrs[1]
	ask := func(body encoding.BinaryMarshaler) (Reply, error) {
		return lb.Replica(context.Background(), addr, loopAsk, body)
	}
	sent := loopBody{Iter: 7, Vec: []float64{1, 2, 3}}
	rep, err := ask(sent)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sent.Vec) != "[1 2 3]" {
		t.Fatalf("the replica wrote into the initiator's body: %v", sent.Vec)
	}
	var reply loopReply
	if rep.Verb != loopAsk+".ack" || rep.Decode(&reply) != nil || reply != (loopReply{Iter: 7, Col: 1, Self: addr}) {
		t.Fatalf("reply %q carrying %q decodes to %+v", rep.Verb, rep.Body, reply)
	}

	if _, err := ask(nil); err == nil || !strings.Contains(err.Error(), "0 bytes") || !strings.Contains(err.Error(), loopAsk) {
		t.Fatalf("nil body: %v; want the empty body refused naming %s", err, loopAsk)
	}
	if _, err := ask(brokenBody{}); err == nil || !strings.Contains(err.Error(), "no bytes for you") || !strings.Contains(err.Error(), loopAsk) {
		t.Fatalf("unwritable body: %v; want it refused naming %s", err, loopAsk)
	}
}
