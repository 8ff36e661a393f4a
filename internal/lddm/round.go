package lddm

import (
	"context"
	"fmt"
	"sync"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/transport"
)

// MsgLocalSolve is initiator → replica: solve the replica-local problem
// for the current multipliers and return the resulting column.
const MsgLocalSolve = "replica.localsolve"

// SolveBody carries the clients' multipliers to one replica. On the
// binary codec the μ vector rides in a kinded frame (full/sparse/delta)
// with per-peer base negotiation: BaseIter declares which earlier
// iteration's vector the receiver already holds, Base/Resolve are
// marshal/decode context in the transport convention (never serialized
// themselves). The JSON codec always carries the full vector.
type SolveBody struct {
	Round int       `json:"round"`
	Iter  int       `json:"iter"`
	Mu    []float64 `json:"mu"`

	// BaseIter is the iteration id of the μ snapshot the receiver holds
	// (−1: none). Binary codec only.
	BaseIter int `json:"-"`
	// Base is the sender's copy of that snapshot (marshal-time context).
	Base []float64 `json:"-"`
	// Resolve maps a declared base iteration to the receiver's held
	// snapshot (decode-time context).
	Resolve func(iter int) []float64 `json:"-"`
}

// SolveReply returns the replica's column of the primal iterate.
type SolveReply struct {
	Column []float64 `json:"column"`
}

func init() {
	engine.Register(engine.Registration{
		Name:   "LDDM",
		New:    func() engine.Algorithm { return &roundAlg{} },
		Server: serverHalf{},
		Verbs:  []string{MsgLocalSolve},
	})
}

// roundAlg is the initiator half of Algorithm 2 over the fabric: replicas
// answer local solves, the initiator takes the multiplier step on the
// columns they return, and the final assignment is recovered from a
// doubling suffix average of the primal. One iteration is one wave of |N|
// RPCs. The paper assigns the μ update to the clients; in EDR's topology
// every input of that update (served, R_c, the step) reaches a client only
// through the initiator, so the step is taken where the data already is.
type roundAlg struct {
	rd   *engine.Round
	k    int
	tol  float64
	step float64

	mu          []float64
	muPeer      [][]float64 // per-replica μ projected onto its support
	sp          *opt.Sparsity
	tx          transport.DeltaTx
	primal, avg [][]float64
	rows        []float64
	windowStart int
	residual    float64

	exchanges []engine.Exchange
}

func (a *roundAlg) Init(rd *engine.Round) error {
	c, n := rd.Prob.C(), rd.Prob.N()
	a.rd = rd
	a.tol = rd.Tol
	if a.tol <= 0 {
		a.tol = 0.02
	}
	a.step = AutoStepValue(rd.Prob)
	a.mu = make([]float64, c) // escapes via Duals; not pool-owned
	if len(rd.WarmMu) == c {
		// Resume the dual ascent where the previous round left it: the
		// multipliers, not the primal, are LDDM's iterate.
		copy(a.mu, rd.WarmMu)
	}
	a.primal = rd.Pool.Matrix(c, n)
	a.avg = rd.Pool.Matrix(c, n)
	a.rows = rd.Pool.Vector(c)
	a.windowStart = 1
	// Each replica's local solve reads only its feasible clients'
	// multipliers, so ship μ projected onto that support. The structural
	// zeros are bit-stable across iterations, which is what lets the
	// kinded wire frames go sparse or delta.
	a.sp = rd.Prob.Sparsity()
	a.muPeer = rd.Pool.Matrix(n, c)
	a.exchanges = []engine.Exchange{
		{
			// Local solves, one per replica (Algorithm 2 lines 4–5;
			// parallel: disjoint primal columns and per-peer μ rows).
			Verb: MsgLocalSolve,
			Body: func(j int) any {
				mu := a.muPeer[j] // off-support entries stay zero
				for s := a.sp.ColStart[j]; s < a.sp.ColStart[j+1]; s++ {
					i := a.sp.RowIdx[s]
					mu[i] = a.mu[i]
				}
				body := SolveBody{Round: rd.Seq, Iter: a.k, Mu: mu}
				body.Base, body.BaseIter = a.tx.Stage(rd.ReplicaAddrs[j], a.k, mu)
				return body
			},
			Fold: func(j int, r engine.Reply) error {
				// The reply proves the peer decoded (and now holds) the
				// staged μ — promote it to the delta base.
				a.tx.Ack(rd.ReplicaAddrs[j])
				var reply SolveReply
				if err := r.Decode(&reply); err != nil {
					return err
				}
				if len(reply.Column) != c {
					return fmt.Errorf("lddm: %s returned %d entries for %d clients",
						rd.ReplicaAddrs[j], len(reply.Column), c)
				}
				for i := 0; i < c; i++ {
					a.primal[i][j] = reply.Column[i]
				}
				return nil
			},
		},
	}
	return nil
}

func (a *roundAlg) Iterate(k int) []engine.Exchange {
	a.k = k
	return a.exchanges
}

// Converged takes the dual step (Algorithm 2 line 6:
// μ_c += d·(Σ_n P_{c,n} − R_c)), then folds the fresh primal into the
// doubling suffix average and tests its demand residual: the raw
// water-filling iterate oscillates under a constant dual step, so the
// averaged iterate — also what Recover starts from — is the thing to test
// and to trace. The convergence gate waits for a window of 16 so a
// freshly-restarted average cannot spuriously pass.
func (a *roundAlg) Converged(k int) (float64, bool) {
	for i, row := range a.primal {
		served := 0.0
		for _, v := range row {
			served += v
		}
		a.mu[i] += a.step * (served - a.rd.Prob.Demands[i])
	}
	if k == a.windowStart*2 {
		a.windowStart = k
		opt.Fill(a.avg, 0)
	}
	w := k - a.windowStart + 1
	opt.Scale(a.avg, float64(w-1)/float64(w))
	opt.AXPY(a.avg, 1/float64(w), a.primal)
	a.residual = DemandResidual(a.avg, a.rd.Prob.Demands, a.rows)
	return a.residual, w >= 16 && a.residual <= a.tol
}

// Duals reports the final multipliers (engine.DualReporter) so the next
// round can warm-start from them. Returned in a non-pooled buffer.
func (a *roundAlg) Duals() []float64 { return a.mu }

// Primal exposes the suffix-averaged iterate for trajectory costing.
func (a *roundAlg) Primal() [][]float64 { return a.avg }

func (a *roundAlg) Recover(ctx context.Context, d *engine.Driver) ([][]float64, error) {
	final := opt.Clone(a.avg)
	if err := opt.ProjectFeasiblePar(a.rd.Prob, final, 1e-6, a.rd.Par); err != nil {
		return nil, fmt.Errorf("lddm: primal recovery: %w", err)
	}
	return final, nil
}

// serverState is one replica's LDDM view of a round: its local
// water-filling problem, re-solved against each iteration's multipliers,
// plus the delta-frame receive window for the μ stream.
type serverState struct {
	mu    sync.Mutex
	local *LocalProblem
	rx    transport.DeltaRx
}

// serverHalf answers MsgLocalSolve on a participant replica.
type serverHalf struct{}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	c := sr.Prob.C()
	// Fetch (or build) the round state before decoding: a delta μ frame
	// resolves its base from the receive window.
	st, err := sr.State("LDDM", func() (any, error) {
		sp := sr.Prob.Sparsity()
		return &serverState{local: &LocalProblem{
			Replica: sr.Prob.System.Replicas[sr.Col],
			Demands: sr.Prob.Demands,
			Clients: sp.RowIdx[sp.ColStart[sr.Col]:sp.ColStart[sr.Col+1]:sp.ColStart[sr.Col+1]],
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	ls := st.(*serverState)
	var body SolveBody
	body.Resolve = ls.rx.Resolve
	if err := req.Decode(&body); err != nil {
		return nil, err
	}
	if len(body.Mu) != c {
		return nil, fmt.Errorf("lddm: round %d: %d multipliers for %d clients", body.Round, len(body.Mu), c)
	}
	ls.rx.Absorb(body.Iter, body.Mu)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.local.Mu = body.Mu
	packed, err := SolveLocal(ls.local)
	if err != nil {
		return nil, err
	}
	col := make([]float64, c)
	for idx, i := range ls.local.Clients {
		col[i] = packed[idx]
	}
	return SolveReply{Column: col}, nil
}
