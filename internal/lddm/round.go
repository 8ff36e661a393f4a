package lddm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"edr/internal/engine"
	"edr/internal/opt"
)

// MsgLocalSolve is initiator → replica: solve the replica-local problem
// for the current multipliers and return the resulting column.
const MsgLocalSolve = "replica.localsolve"

// SolveBody carries the clients' multipliers to one replica, packed over
// that replica's support: Mu[p] is μ of the p-th client of the replica's CSC
// column (ascending client id), the only multipliers its local solve reads.
type SolveBody struct {
	Round int       `json:"round"`
	Mu    []float64 `json:"mu"`
}

// SolveReply is a replica's water-filling decision over its support of M
// clients. Served is a ⌈M/8⌉-byte bitmap whose bit p (bit p%8 of byte p/8)
// is set where the p-th client's value equals its demand R_c bit for bit;
// Pos and Val list every other nonzero value by support position,
// ascending. The water-filling serves clients whole or not at all until the
// single partial share where it stops, so a reply is the bitmap plus
// usually one entry; the codec does not rely on that. The initiator
// rebuilds the column from its own demands (Unpack).
type SolveReply struct {
	M      int       `json:"m"`
	Served []byte    `json:"served"`
	Pos    []int     `json:"pos,omitempty"`
	Val    []float64 `json:"val,omitempty"`
}

// packReply encodes the packed column SolveLocal returned for clients.
func packReply(packed []float64, clients []int, demands []float64) SolveReply {
	r := SolveReply{M: len(packed), Served: make([]byte, (len(packed)+7)/8)}
	for p, v := range packed {
		switch bits := math.Float64bits(v); {
		case bits == math.Float64bits(demands[clients[p]]):
			r.Served[p>>3] |= 1 << (p & 7)
		case bits != 0:
			r.Pos = append(r.Pos, p)
			r.Val = append(r.Val, v)
		}
	}
	return r
}

// Unpack checks the reply against a support of len(clients) clients and
// writes it into packed x at the p-th client's slot slots[p]: for the p-th
// client i, demands[i] where bit p is set, the listed value where p is
// listed, 0 otherwise. No other slot is touched, nor is anything written
// when the reply is refused. A listed share must lie strictly inside
// (0, R_c): the honest partial take = min(R_c, …) always does, and
// anything else — negative, NaN, infinite, or a whole demand the bitmap
// should carry — would go straight into the primal and from there into μ.
func (r *SolveReply) Unpack(clients, slots []int, demands, x []float64) error {
	if r.M != len(clients) {
		return fmt.Errorf("decision over %d clients for a support of %d", r.M, len(clients))
	}
	if err := r.valid(); err != nil {
		return err
	}
	for e, p := range r.Pos {
		if v, d := r.Val[e], demands[clients[p]]; !(v > 0 && v < d) {
			return fmt.Errorf("share %v at position %d outside (0, %v)", v, p, d)
		}
	}
	for p, i := range clients {
		v := 0.0
		if r.served(p) {
			v = demands[i]
		}
		x[slots[p]] = v
	}
	for e, p := range r.Pos {
		x[slots[p]] = r.Val[e]
	}
	return nil
}

func (r *SolveReply) served(p int) bool { return r.Served[p>>3]&(1<<(p&7)) != 0 }

// valid checks what a reply must satisfy whatever the support: a
// ⌈M/8⌉-byte bitmap with no bit set at or past M, and one value per listed
// position, the positions strictly ascending, below M and clear in the
// bitmap — so every column has exactly one encoding.
func (r *SolveReply) valid() error {
	if r.M < 0 || len(r.Served) != (r.M+7)/8 {
		return fmt.Errorf("%d-byte bitmap over %d clients", len(r.Served), r.M)
	}
	if tail := r.M % 8; tail != 0 && r.Served[len(r.Served)-1]>>tail != 0 {
		return fmt.Errorf("bitmap sets bits past its %d clients", r.M)
	}
	if len(r.Pos) != len(r.Val) {
		return fmt.Errorf("%d positions for %d values", len(r.Pos), len(r.Val))
	}
	prev := -1
	for _, p := range r.Pos {
		if p <= prev || p >= r.M {
			return fmt.Errorf("position %d out of order or out of %d clients", p, r.M)
		}
		if r.served(p) {
			return fmt.Errorf("position %d is also in the bitmap", p)
		}
		prev = p
	}
	return nil
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
// doubling suffix average of the primal. The primal and its average are
// packed over the support in CSR order, so each client's served total is
// a contiguous sum. One iteration is one wave of |N| RPCs. The paper
// assigns the μ update to the clients; in EDR's topology every input of
// that update (served, R_c, the step) reaches a client only through the
// initiator, so the step is taken where the data already is.
type roundAlg struct {
	rd   *engine.Round
	tol  float64
	step float64 // constant dual step; preset by Solver, else AutoStepValue

	mu          []float64
	muPacked    []float64 // μ gathered in CSC order: replica j's body is its column's slice
	sp          *opt.Sparsity
	primal, avg []float64
	windowStart int
	residual    float64

	exchanges []engine.Exchange
}

func (a *roundAlg) Init(rd *engine.Round) error {
	c := rd.Prob.C()
	a.rd = rd
	a.tol = rd.Tol
	if a.tol <= 0 {
		a.tol = 0.02
	}
	if a.step == 0 {
		a.step = AutoStepValue(rd.Prob, 0) // the fleet presets none
	}
	a.mu = make([]float64, c) // escapes via Duals; not pool-owned
	if len(rd.WarmMu) == c {
		// Resume the dual ascent where the previous round left it: the
		// multipliers, not the primal, are LDDM's iterate.
		copy(a.mu, rd.WarmMu)
	}
	a.windowStart = 1
	// Each replica's local solve reads only its feasible clients'
	// multipliers, so each is sent just those, in its CSC column's order;
	// its reply covers the same support.
	a.sp = rd.Prob.Sparsity()
	nnz := a.sp.NNZ()
	a.primal, a.avg, a.muPacked = rd.Pool.Vector(nnz), rd.Pool.Vector(nnz), rd.Pool.Vector(nnz)
	a.exchanges = []engine.Exchange{
		{
			// Local solves, one per replica (Algorithm 2 lines 4–5;
			// parallel: disjoint primal columns and μ slices).
			Verb: MsgLocalSolve,
			Body: func(j int) any {
				lo, hi := a.sp.ColStart[j], a.sp.ColStart[j+1]
				for s := lo; s < hi; s++ {
					a.muPacked[s] = a.mu[a.sp.RowIdx[s]]
				}
				return SolveBody{Round: rd.Seq, Mu: a.muPacked[lo:hi:hi]}
			},
			Fold: func(j int, r engine.Reply) error {
				var reply SolveReply
				err := r.Decode(&reply)
				if err == nil {
					lo, hi := a.sp.ColStart[j], a.sp.ColStart[j+1]
					err = reply.Unpack(a.sp.RowIdx[lo:hi], a.sp.PosCSR[lo:hi], rd.Prob.Demands, a.primal)
				}
				if err != nil {
					return fmt.Errorf("lddm: local solve from %s: %w", rd.ReplicaAddrs[j], err)
				}
				return nil
			},
		},
	}
	return nil
}

func (a *roundAlg) Iterate(k int) []engine.Exchange { return a.exchanges }

// Converged takes the dual step (Algorithm 2 line 6:
// μ_c += d·(Σ_n P_{c,n} − R_c)), then folds the fresh primal into the
// doubling suffix average and tests its demand residual: the raw
// water-filling iterate oscillates under a constant dual step, so the
// averaged iterate — also what Recover starts from — is the thing to test
// and to trace. Its residual is the worst relative demand violation of
// the average's rows, max_c |Σ_n avg_{c,n} − R_c| / max(R_c, 1). The
// convergence gate waits for a window of 16 so a freshly-restarted average
// cannot spuriously pass.
func (a *roundAlg) Converged(k int) (float64, bool) {
	if k == a.windowStart*2 {
		a.windowStart = k
		clear(a.avg)
	}
	w := k - a.windowStart + 1
	keep, add := float64(w-1)/float64(w), 1/float64(w)
	a.residual = 0
	for i, d := range a.rd.Prob.Demands {
		lo, hi := a.sp.RowStart[i], a.sp.RowStart[i+1]
		served, averaged := 0.0, 0.0
		for t, v := range a.primal[lo:hi] {
			served += v
			// The scaled average is rounded before the fresh share is
			// added, so no fused multiply-add can move its bits.
			a.avg[lo+t] = float64(a.avg[lo+t] * keep)
			a.avg[lo+t] += add * v
			averaged += a.avg[lo+t]
		}
		a.mu[i] += a.step * (served - d)
		if rel := math.Abs(averaged-d) / math.Max(d, 1); rel > a.residual {
			a.residual = rel
		}
	}
	return a.residual, w >= 16 && a.residual <= a.tol
}

// Duals reports the final multipliers (engine.DualReporter) so the next
// round can warm-start from them. Returned in a non-pooled buffer.
func (a *roundAlg) Duals() []float64 { return a.mu }

// Primal exposes the suffix-averaged iterate for trajectory costing.
func (a *roundAlg) Primal() []float64 { return a.avg }

func (a *roundAlg) Recover() ([]float64, error) {
	final := slices.Clone(a.avg)
	if err := opt.ProjectFeasiblePacked(a.rd.Prob, final, 1e-6); err != nil {
		return nil, fmt.Errorf("lddm: primal recovery: %w", err)
	}
	return final, nil
}

// serverState is one replica's LDDM view of a round: its local
// water-filling problem, re-solved against each iteration's multipliers.
// local.Mu is full-length scratch the packed multipliers are scattered
// into; only the support's entries are ever written or read.
type serverState struct {
	mu    sync.Mutex
	local *LocalProblem
}

// serverHalf answers MsgLocalSolve on a participant replica. The reply is
// a function of the request alone.
type serverHalf struct{}

func (serverHalf) Handle(ctx context.Context, verb string, req engine.Reply, sr *engine.ServerRound) (any, error) {
	var body SolveBody
	if err := req.Decode(&body); err != nil {
		return nil, fmt.Errorf("lddm: replica %s: %w", sr.Self, err)
	}
	st, err := sr.State("LDDM", func() (any, error) {
		sp := sr.Prob.Sparsity()
		return &serverState{local: &LocalProblem{
			Replica: sr.Prob.System.Replicas[sr.Col],
			Mu:      make([]float64, sr.Prob.C()),
			Demands: sr.Prob.Demands,
			Clients: sp.RowIdx[sp.ColStart[sr.Col]:sp.ColStart[sr.Col+1]:sp.ColStart[sr.Col+1]],
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	ls := st.(*serverState)
	if len(body.Mu) != len(ls.local.Clients) {
		return nil, fmt.Errorf("lddm: replica %s, round %d: %d multipliers for a support of %d clients",
			sr.Self, body.Round, len(body.Mu), len(ls.local.Clients))
	}
	// A non-finite μ has no place in the fill's order: NaN is unordered
	// against every value, so it would scramble the finite ones' order too.
	for p, v := range body.Mu {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("lddm: replica %s, round %d: multiplier %v at position %d",
				sr.Self, body.Round, v, p)
		}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for p, i := range ls.local.Clients {
		ls.local.Mu[i] = body.Mu[p]
	}
	packed, err := SolveLocal(ls.local)
	if err != nil {
		return nil, err
	}
	return packReply(packed, ls.local.Clients, ls.local.Demands), nil
}
