package admm

import (
	"context"
	"fmt"
	"math"

	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/transport"
)

// MsgProx is initiator → replica: solve the replica's proximal subproblem
// against an initiator-assembled target and return the new column.
const MsgProx = "replica.admm.prox"

// ProxBody carries one replica's proximal target. On the binary codec
// the target rides in a kinded frame (full/sparse/delta) with per-peer
// base negotiation: BaseIter declares which earlier iteration's target
// the receiver already holds; Base/Resolve are marshal/decode context in
// the transport convention (never serialized). JSON always carries the
// full vector.
type ProxBody struct {
	Round  int       `json:"round"`
	Iter   int       `json:"iter"`
	Rho    float64   `json:"rho"`
	Target []float64 `json:"target"`

	// BaseIter is the iteration id of the target snapshot the receiver
	// holds (−1: none). Binary codec only.
	BaseIter int `json:"-"`
	// Base is the sender's copy of that snapshot (marshal-time context).
	Base []float64 `json:"-"`
	// Resolve maps a declared base iteration to the receiver's held
	// snapshot (decode-time context).
	Resolve func(iter int) []float64 `json:"-"`
}

// ProxReply returns the replica's updated column z_n.
type ProxReply struct {
	Column []float64 `json:"column"`
}

func init() {
	engine.Register(engine.Registration{
		Name:   "ADMM",
		New:    func() engine.Algorithm { return &roundAlg{} },
		Server: serverHalf{},
		Verbs:  []string{MsgProx},
	})
}

// roundAlg is the initiator half of sharing-ADMM over the fabric: replicas
// answer proximal solves and the initiator holds the scaled dual,
// u += (served−R)/|N| on the columns they return. One iteration is one
// wave of |N| RPCs.
type roundAlg struct {
	rd  *engine.Round
	k   int
	tol float64
	rho float64

	z          [][]float64 // transposed: z[replica][client]
	targets    [][]float64 // per-replica proximal targets, same layout
	sp         *opt.Sparsity
	tx         transport.DeltaTx
	u          []float64
	warmU      []float64 // additive dual offset from the previous round
	acc        []float64 // this round's dual ascent, accumulated from zero
	share      []float64
	rowAvg     []float64
	primal     [][]float64 // client×replica scratch for trajectory costing
	demandNorm float64

	exchanges []engine.Exchange
}

func (a *roundAlg) Init(rd *engine.Round) error {
	c, n := rd.Prob.C(), rd.Prob.N()
	a.rd = rd
	a.tol = rd.Tol
	if a.tol <= 0 {
		a.tol = 1e-3
	}
	a.rho = autoRho(rd.Prob)
	a.z = rd.Pool.Matrix(n, c)
	a.targets = rd.Pool.Matrix(n, c)
	a.u = make([]float64, c) // escapes via Duals; not pool-owned
	a.acc = rd.Pool.Vector(c)
	a.warmU = rd.Pool.Vector(c)
	a.share = rd.Pool.Vector(c)
	a.rowAvg = rd.Pool.Vector(c)
	a.primal = rd.Pool.Matrix(c, n)
	a.demandNorm = 0
	for i := 0; i < c; i++ {
		a.share[i] = rd.Prob.Demands[i] / float64(n)
		a.demandNorm += rd.Prob.Demands[i] * rd.Prob.Demands[i]
	}
	a.demandNorm = math.Sqrt(a.demandNorm)
	if rd.Warm != nil && len(rd.Warm) == c {
		// Seed z from the warm-start assignment (transposed layout). The
		// warm split conserves demand, so the primal residual starts near
		// zero and the loop spends its iterations on optimality, not on
		// re-finding feasibility from the origin.
		for i := 0; i < c; i++ {
			if len(rd.Warm[i]) != n {
				continue
			}
			for j := 0; j < n; j++ {
				a.z[j][i] = rd.Warm[i][j]
			}
		}
	}
	// Each replica's proximal solve reads only its feasible clients'
	// targets, so build (and ship) the target projected onto that support.
	// The structural zeros are bit-stable across iterations, which lets the
	// kinded wire frames go sparse or delta.
	a.sp = rd.Prob.Sparsity()
	if len(rd.WarmMu) == c {
		// Warm-start the scaled dual: the previous round's final duals
		// enter as an additive offset on an accumulator that starts from
		// zero every round (u = warmU + acc, not u += step, so a warm round's
		// rounding does not depend on how large the offset is). Iteration
		// count in sharing-ADMM is dominated by the dual climbing to its
		// fixed point — starting it there is what makes warm rounds converge
		// in a handful of steps.
		copy(a.warmU, rd.WarmMu)
		copy(a.u, a.warmU)
	}
	a.exchanges = []engine.Exchange{
		{
			// Proximal solves (parallel: disjoint z and target rows; rowAvg
			// is frozen for the wave by Iterate).
			Verb: MsgProx,
			Body: func(j int) any {
				// Off-support entries stay zero: the pooled row was zeroed
				// at acquisition and is only ever written here.
				t := a.targets[j]
				for s := a.sp.ColStart[j]; s < a.sp.ColStart[j+1]; s++ {
					i := a.sp.RowIdx[s]
					t[i] = a.z[j][i] - a.rowAvg[i] + a.share[i] - a.u[i]
				}
				body := ProxBody{Round: rd.Seq, Iter: a.k, Rho: a.rho, Target: t}
				body.Base, body.BaseIter = a.tx.Stage(rd.ReplicaAddrs[j], a.k, t)
				return body
			},
			Fold: func(j int, r engine.Reply) error {
				// The reply proves the peer decoded (and now holds) the
				// staged target — promote it to the delta base.
				a.tx.Ack(rd.ReplicaAddrs[j])
				var reply ProxReply
				if err := r.Decode(&reply); err != nil {
					return err
				}
				if len(reply.Column) != c {
					return fmt.Errorf("admm: %s returned %d entries for %d clients",
						rd.ReplicaAddrs[j], len(reply.Column), c)
				}
				copy(a.z[j], reply.Column)
				return nil
			},
		},
	}
	return nil
}

// Iterate freezes the previous iterate's row averages so the proximal
// wave's concurrently-built targets all see one consistent snapshot.
func (a *roundAlg) Iterate(k int) []engine.Exchange {
	a.k = k
	c, n := a.rd.Prob.C(), a.rd.Prob.N()
	for i := 0; i < c; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a.z[j][i]
		}
		a.rowAvg[i] = sum / float64(n)
	}
	return a.exchanges
}

// Converged takes the scaled dual step on the fresh columns and tests the
// primal residual, both off one pass over each client's served total.
func (a *roundAlg) Converged(k int) (float64, bool) {
	c, n := a.rd.Prob.C(), a.rd.Prob.N()
	step := 1 / float64(n)
	maxPrimal := 0.0
	for i := 0; i < c; i++ {
		served := 0.0
		for j := 0; j < n; j++ {
			served += a.z[j][i]
		}
		gap := served - a.rd.Prob.Demands[i]
		a.acc[i] += step * gap
		a.u[i] = a.warmU[i] + a.acc[i]
		if r := math.Abs(gap); r > maxPrimal {
			maxPrimal = r
		}
	}
	return maxPrimal, maxPrimal <= a.tol*(1+a.demandNorm)
}

// Duals reports the final scaled dual values (engine.DualReporter) so the
// next round can warm-start from them. Returned in a non-pooled buffer.
func (a *roundAlg) Duals() []float64 { return a.u }

// Primal exposes the current iterate (transposed into client×replica
// form) for trajectory costing.
func (a *roundAlg) Primal() [][]float64 {
	c, n := a.rd.Prob.C(), a.rd.Prob.N()
	for j := 0; j < n; j++ {
		for i := 0; i < c; i++ {
			a.primal[i][j] = a.z[j][i]
		}
	}
	return a.primal
}

func (a *roundAlg) Recover(ctx context.Context, d *engine.Driver) ([][]float64, error) {
	c, n := a.rd.Prob.C(), a.rd.Prob.N()
	final := opt.NewMatrix(c, n)
	for j := 0; j < n; j++ {
		for i := 0; i < c; i++ {
			final[i][j] = a.z[j][i]
		}
	}
	if err := opt.ProjectFeasible(a.rd.Prob, final, 1e-6); err != nil {
		return nil, fmt.Errorf("admm: primal recovery: %w", err)
	}
	return final, nil
}

// serverState caches the replica's feasible client list and their caps so
// a round's repeated proximal solves skip rebuilding them.
type serverState struct {
	clients []int     // ascending ids of the clients within the latency bound
	caps    []float64 // per-client caps (demands) aligned with clients

	rx transport.DeltaRx // delta-frame receive window for the target stream
}

// serverHalf answers MsgProx on a participant replica.
type serverHalf struct{}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	c := sr.Prob.C()
	// Fetch (or build) the round state before decoding: a delta target
	// frame resolves its base from the receive window.
	st, err := sr.State("ADMM", func() (any, error) {
		sp := sr.Prob.Sparsity()
		s := &serverState{clients: sp.RowIdx[sp.ColStart[sr.Col]:sp.ColStart[sr.Col+1]:sp.ColStart[sr.Col+1]]}
		s.caps = make([]float64, len(s.clients))
		for idx, i := range s.clients {
			s.caps[idx] = sr.Prob.Demands[i]
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	ps := st.(*serverState)
	var body ProxBody
	body.Resolve = ps.rx.Resolve
	if err := req.Decode(&body); err != nil {
		return nil, err
	}
	if len(body.Target) != c {
		return nil, fmt.Errorf("admm: round %d: %d targets for %d clients", body.Round, len(body.Target), c)
	}
	ps.rx.Absorb(body.Iter, body.Target)
	// The proximal kernel is stateless over read-only inputs, so
	// concurrent solves need no lock.
	target := make([]float64, len(ps.clients))
	for idx, i := range ps.clients {
		target[idx] = body.Target[i]
	}
	packed, err := ProximalColumn(sr.Prob.System.Replicas[sr.Col], ps.caps, target, body.Rho)
	if err != nil {
		return nil, err
	}
	col := make([]float64, c)
	for idx, i := range ps.clients {
		col[i] = packed[idx]
	}
	return ProxReply{Column: col}, nil
}
