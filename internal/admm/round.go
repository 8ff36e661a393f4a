package admm

import (
	"context"
	"fmt"
	"math"

	"edr/internal/engine"
	"edr/internal/opt"
)

// MsgProx is initiator → replica: solve the replica's proximal subproblem
// against an initiator-assembled target and return the new column.
const MsgProx = "replica.admm.prox"

// ProxBody carries one replica's proximal target, zero off the replica's
// support. It rides a kinded frame, full or sparse (codec.go).
type ProxBody struct {
	Round  int
	Iter   int
	Rho    float64
	Target []float64
}

// ProxReply returns the replica's updated column z_n.
type ProxReply struct {
	Column []float64
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
	// On a masked instance the structural zeros let the kinded wire frame
	// go sparse.
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
				return ProxBody{Round: rd.Seq, Iter: a.k, Rho: a.rho, Target: t}
			},
			Fold: func(j int, r engine.Reply) error {
				var reply ProxReply
				err := r.Decode(&reply)
				if err == nil {
					err = a.checkColumn(j, reply.Column)
				}
				if err != nil {
					return fmt.Errorf("admm: reply from %s: %w", rd.ReplicaAddrs[j], err)
				}
				copy(a.z[j], reply.Column)
				return nil
			},
		},
	}
	return nil
}

// checkColumn refuses a reply column no proximal solve returns: one of the
// wrong length, with an entry outside [0, R_c] (non-finite included), or
// with a nonzero entry off replica j's support.
func (a *roundAlg) checkColumn(j int, col []float64) error {
	demands := a.rd.Prob.Demands
	if len(col) != len(demands) {
		return fmt.Errorf("%d entries for %d clients", len(col), len(demands))
	}
	support := a.sp.RowIdx[a.sp.ColStart[j]:a.sp.ColStart[j+1]]
	for i, v := range col {
		if len(support) > 0 && support[0] == i {
			support = support[1:]
		} else if v != 0 {
			return fmt.Errorf("client %d is off the support but served %v", i, v)
		}
		if !(v >= 0 && v <= demands[i]) {
			return fmt.Errorf("client %d served %v, outside [0, %v]", i, v, demands[i])
		}
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
}

// serverHalf answers MsgProx on a participant replica.
type serverHalf struct{}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	c := sr.Prob.C()
	var body ProxBody
	if err := req.Decode(&body); err != nil {
		return nil, fmt.Errorf("admm: replica %s: %w", sr.Self, err)
	}
	if len(body.Target) != c {
		return nil, fmt.Errorf("admm: replica %s: round %d: %d targets for %d clients", sr.Self, body.Round, len(body.Target), c)
	}
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
	// The proximal kernel is stateless over read-only inputs, so
	// concurrent solves need no lock.
	target := make([]float64, len(ps.clients))
	for idx, i := range ps.clients {
		target[idx] = body.Target[i]
	}
	packed, err := ProximalColumn(sr.Prob.System.Replicas[sr.Col], ps.caps, target, body.Rho)
	if err != nil {
		return nil, fmt.Errorf("admm: replica %s: %w", sr.Self, err)
	}
	col := make([]float64, c)
	for idx, i := range ps.clients {
		col[i] = packed[idx]
	}
	return ProxReply{Column: col}, nil
}
