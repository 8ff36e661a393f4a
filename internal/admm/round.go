package admm

import (
	"context"
	"fmt"
	"math"

	"edr/internal/engine"
	"edr/internal/opt"
)

// MsgProx is initiator → replica: solve the replica's proximal subproblem
// against an initiator-assembled target and return the optimal shift.
const MsgProx = "replica.admm.prox"

// ProxBody carries one replica's proximal targets, packed over its support:
// Target[p] is the target of the p-th client of the replica's CSC column
// (ascending client id).
type ProxBody struct {
	Round  int
	Rho    float64
	Target []float64
}

// ProxReply returns the replica's decision: the shift s from which the
// initiator rebuilds the column, z_c = clip(t_c − s, 0, R_c)
// (ProximalColumn). +Inf means the replica serves nothing.
type ProxReply struct {
	Shift float64
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
// answer proximal solves with a shift, the initiator rebuilds their columns
// and holds the scaled dual, u += (served−R)/|N|. One iteration is one wave
// of |N| RPCs. The iterate, its targets and the caps are nnz-length vectors
// in CSC order, so replica j's slice is ColStart[j]:ColStart[j+1].
type roundAlg struct {
	rd  *engine.Round
	tol float64
	rho float64

	sp         *opt.Sparsity
	z          []float64 // the iterate, packed
	targets    []float64 // the proximal targets each wave ships, packed
	caps       []float64 // R_c of each slot's client, packed
	u          []float64
	warmU      []float64 // additive dual offset from the previous round
	acc        []float64 // this round's dual ascent, accumulated from zero
	share      []float64
	served     []float64 // per-client totals of z, frozen for the next wave
	primal     []float64 // z in CSR order, for trajectory costing
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
	// Each replica's proximal solve reads only its feasible clients'
	// targets, so the iterate lives on the support alone.
	a.sp = rd.Prob.Sparsity()
	nnz := a.sp.NNZ()
	a.z = rd.Pool.Vector(nnz)
	a.targets = rd.Pool.Vector(nnz)
	a.caps = rd.Pool.Vector(nnz)
	a.u = make([]float64, c) // escapes via Duals; not pool-owned
	a.acc = rd.Pool.Vector(c)
	a.warmU = rd.Pool.Vector(c)
	a.share = rd.Pool.Vector(c)
	a.served = rd.Pool.Vector(c)
	a.primal = rd.Pool.Vector(nnz)
	a.demandNorm = 0
	for i := 0; i < c; i++ {
		a.share[i] = rd.Prob.Demands[i] / float64(n)
		a.demandNorm += rd.Prob.Demands[i] * rd.Prob.Demands[i]
	}
	a.demandNorm = math.Sqrt(a.demandNorm)
	warm := len(rd.Warm) == nnz
	for s, i := range a.sp.RowIdx {
		a.caps[s] = rd.Prob.Demands[i]
		// Seed z from the warm-start assignment. The warm split conserves
		// demand, so the primal residual starts near zero and the loop
		// spends its iterations on optimality, not on re-finding
		// feasibility from the origin.
		if warm {
			a.z[s] = rd.Warm[a.sp.PosCSR[s]]
		}
	}
	a.sumServed()
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
			// Proximal solves (parallel: disjoint z and target slices;
			// served is frozen for the wave).
			Verb: MsgProx,
			Body: func(j int) any {
				lo, hi := a.sp.ColStart[j], a.sp.ColStart[j+1]
				for s := lo; s < hi; s++ {
					i := a.sp.RowIdx[s]
					a.targets[s] = a.z[s] - a.served[i]/float64(n) + a.share[i] - a.u[i]
				}
				return ProxBody{Round: rd.Seq, Rho: a.rho, Target: a.targets[lo:hi:hi]}
			},
			Fold: func(j int, r engine.Reply) error {
				var reply ProxReply
				err := r.Decode(&reply)
				if err == nil && !(reply.Shift >= 0) {
					err = fmt.Errorf("shift %v is not a nonnegative number", reply.Shift)
				}
				if err != nil {
					return fmt.Errorf("admm: reply from %s: %w", rd.ReplicaAddrs[j], err)
				}
				// The rebuilt column lies in [0, R_c] on the support by
				// construction, whatever shift the replica chose.
				lo, hi := a.sp.ColStart[j], a.sp.ColStart[j+1]
				ProximalColumn(a.z[lo:hi], a.caps[lo:hi], a.targets[lo:hi], reply.Shift)
				return nil
			},
		},
	}
	return nil
}

// sumServed totals z per client in one CSC pass, each client's entries
// summed in replica order. The next wave's targets read the totals.
func (a *roundAlg) sumServed() {
	clear(a.served)
	for s, i := range a.sp.RowIdx {
		a.served[i] += a.z[s]
	}
}

// Iterate returns the proximal wave; the served totals it reads were
// frozen when the previous iterate was complete (Init, then Converged).
func (a *roundAlg) Iterate(k int) []engine.Exchange { return a.exchanges }

// Converged takes the scaled dual step on the fresh columns and tests the
// primal residual, both off each client's served total.
func (a *roundAlg) Converged(k int) (float64, bool) {
	a.sumServed()
	step := 1 / float64(a.rd.Prob.N())
	maxPrimal := 0.0
	for i, served := range a.served {
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

// Primal exposes the current iterate, in CSR order, for trajectory costing.
func (a *roundAlg) Primal() []float64 { return a.toCSR(a.primal) }

// toCSR writes z, held in CSC order, into x in CSR order.
func (a *roundAlg) toCSR(x []float64) []float64 {
	for s, k := range a.sp.PosCSR {
		x[k] = a.z[s]
	}
	return x
}

func (a *roundAlg) Recover() ([]float64, error) {
	final := a.toCSR(make([]float64, len(a.z)))
	if err := opt.ProjectFeasiblePacked(a.rd.Prob, final, 1e-6); err != nil {
		return nil, fmt.Errorf("admm: primal recovery: %w", err)
	}
	return final, nil
}

// serverState caches the caps (demands) of the replica's feasible clients,
// in support order, so a round's repeated proximal solves skip rebuilding
// them.
type serverState struct {
	caps []float64
}

// serverHalf answers MsgProx on a participant replica.
type serverHalf struct{}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	var body ProxBody
	if err := req.Decode(&body); err != nil {
		return nil, fmt.Errorf("admm: replica %s: %w", sr.Self, err)
	}
	st, err := sr.State("ADMM", func() (any, error) {
		sp := sr.Prob.Sparsity()
		clients := sp.RowIdx[sp.ColStart[sr.Col]:sp.ColStart[sr.Col+1]]
		s := &serverState{caps: make([]float64, len(clients))}
		for p, i := range clients {
			s.caps[p] = sr.Prob.Demands[i]
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	caps := st.(*serverState).caps
	if len(body.Target) != len(caps) {
		return nil, fmt.Errorf("admm: replica %s, round %d: %d targets for a support of %d clients", sr.Self, body.Round, len(body.Target), len(caps))
	}
	// The proximal kernel is stateless over read-only inputs, so
	// concurrent solves need no lock.
	shift, err := ProximalShift(sr.Prob.System.Replicas[sr.Col], caps, body.Target, body.Rho)
	if err != nil {
		return nil, fmt.Errorf("admm: replica %s: %w", sr.Self, err)
	}
	return ProxReply{Shift: shift}, nil
}
