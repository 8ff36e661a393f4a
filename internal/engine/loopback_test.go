package engine

import (
	"context"
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

type loopBody struct {
	Iter int `json:"iter"`
}

type loopReply struct {
	Iter int    `json:"iter"`
	Col  int    `json:"col"`
	Self string `json:"self"`
}

type loopServer struct{}

func (loopServer) Handle(ctx context.Context, verb string, req Reply, sr *ServerRound) (any, error) {
	var body loopBody
	if err := req.Decode(&body); err != nil {
		return nil, err
	}
	return loopReply{Iter: body.Iter, Col: sr.Col, Self: sr.Self}, nil
}

func init() {
	Register(Registration{Name: "TEST-LOOP", New: func() Algorithm { return &loopAlg{} }, Server: loopServer{}, Verbs: []string{loopAsk}})
}

// loopAlg asks every replica once per iteration and stops at doneAt (never
// when 0).
type loopAlg struct {
	rd      *Round
	doneAt  int
	k       int
	replies []loopReply
}

func (a *loopAlg) Init(rd *Round) error {
	a.rd = rd
	a.replies = make([]loopReply, len(rd.ReplicaAddrs))
	return nil
}

func (a *loopAlg) Iterate(k int) []Exchange {
	a.k = k
	return []Exchange{{
		Verb: loopAsk,
		Body: func(i int) any { return loopBody{Iter: a.k} },
		Fold: func(i int, r Reply) error { return r.Decode(&a.replies[i]) },
	}}
}

func (a *loopAlg) Converged(k int) (float64, bool) { return float64(k), k == a.doneAt }

func (a *loopAlg) Recover() ([]float64, error) {
	return make([]float64, a.rd.Prob.Sparsity().NNZ()), nil
}

// newLoop builds a loopback round over n toy replicas.
func newLoop(t *testing.T, n, maxIters int) *Loopback {
	t.Helper()
	l, err := NewLoopback(loopProblem(t, n), maxIters, 0, nil)
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

type handBody struct {
	N    int       `json:"n"`
	Vec  []float64 `json:"vec"`
	Base []float64 `json:"-"`
}

// A body is handed over as it is: the receiver gets the sent value, its
// slices and codec context included, with nothing copied.
func TestLoopbackHandsBodiesOver(t *testing.T) {
	sent := handBody{N: 3, Vec: []float64{1, 2}, Base: []float64{9}}
	got := handBody{Base: []float64{8}}
	if err := (handOver{sent}).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || &got.Vec[0] != &sent.Vec[0] || &got.Base[0] != &sent.Base[0] {
		t.Fatalf("decoded %+v, not the sent value", got)
	}
	if err := (handOver{&sent}).Decode(&got); err != nil {
		t.Fatalf("pointer body: %v", err)
	}
	untouched := loopBody{Iter: 5}
	if err := (handOver{nil}).Decode(&untouched); err != nil || untouched.Iter != 5 {
		t.Fatalf("nil body decoded into %+v, %v", untouched, err)
	}
	if err := (handOver{loopBody{}}).Decode(&got); err == nil {
		t.Fatal("decoded into the wrong type")
	}
	if err := (handOver{sent}).Decode(got); err == nil {
		t.Fatal("decoded into a value, not a pointer")
	}
}
