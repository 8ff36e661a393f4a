package opt

import (
	"container/heap"
	"fmt"
	"math"

	"edr/internal/model"
)

// Min-cost flow on the replica-selection transportation polytope. Given
// per-entry linear costs w[c][n], MinCostAssignment finds the feasible
// assignment minimizing Σ w·p — the linear minimization oracle of the
// Frank-Wolfe solver (and a strong initializer: with w = price·α it is the
// exact optimum of the γ=1 problem).
//
// Where no bandwidth cap binds the oracle is a per-row argmin
// (assignSeparable). Otherwise the implementation is successive shortest
// augmenting paths with Johnson potentials (Dijkstra on reduced costs),
// which requires non-negative edge costs — satisfied here because marginal
// energy costs are non-negative. Arc structure matches CheckFeasible's
// network: source → clients (capacity R_c), client→replica (capacity R_c,
// cost w[c][n], present iff feasible), replica → sink (capacity B_n).

// mcfEdge is one arc of the residual network.
type mcfEdge struct {
	to, rev  int
	capacity float64
	cost     float64
}

type mcfGraph struct {
	adj [][]mcfEdge
}

func newMCFGraph(vertices int) *mcfGraph {
	return &mcfGraph{adj: make([][]mcfEdge, vertices)}
}

func (g *mcfGraph) addEdge(from, to int, capacity, cost float64) {
	g.adj[from] = append(g.adj[from], mcfEdge{to: to, rev: len(g.adj[to]), capacity: capacity, cost: cost})
	g.adj[to] = append(g.adj[to], mcfEdge{to: from, rev: len(g.adj[from]) - 1, capacity: 0, cost: -cost})
}

// dijkstraItem is a priority-queue entry.
type dijkstraItem struct {
	vertex int
	dist   float64
}

type dijkstraPQ []dijkstraItem

func (q dijkstraPQ) Len() int           { return len(q) }
func (q dijkstraPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q dijkstraPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *dijkstraPQ) Push(x any)        { *q = append(*q, x.(dijkstraItem)) }
func (q *dijkstraPQ) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// minCostFlow sends `want` units from s to t at minimum cost, returning
// the flow achieved and its cost.
func (g *mcfGraph) minCostFlow(s, t int, want float64) (flow, cost float64) {
	n := len(g.adj)
	potential := make([]float64, n)
	dist := make([]float64, n)
	parentV := make([]int, n)
	parentE := make([]int, n)
	const eps = 1e-12
	for flow < want-eps {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			parentV[i] = -1
		}
		dist[s] = 0
		pq := dijkstraPQ{{vertex: s}}
		for len(pq) > 0 {
			it := heap.Pop(&pq).(dijkstraItem)
			if it.dist > dist[it.vertex]+eps {
				continue
			}
			for ei, e := range g.adj[it.vertex] {
				if e.capacity <= eps {
					continue
				}
				nd := dist[it.vertex] + e.cost + potential[it.vertex] - potential[e.to]
				if nd < dist[e.to]-eps {
					dist[e.to] = nd
					parentV[e.to] = it.vertex
					parentE[e.to] = ei
					heap.Push(&pq, dijkstraItem{vertex: e.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return flow, cost // no more augmenting paths
		}
		for i := range potential {
			if !math.IsInf(dist[i], 1) {
				potential[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := want - flow
		for v := t; v != s; v = parentV[v] {
			e := g.adj[parentV[v]][parentE[v]]
			if e.capacity < push {
				push = e.capacity
			}
		}
		for v := t; v != s; v = parentV[v] {
			e := &g.adj[parentV[v]][parentE[v]]
			e.capacity -= push
			g.adj[e.to][e.rev].capacity += push
			cost += push * e.cost
		}
		flow += push
	}
	return flow, cost
}

// MinCostAssignment minimizes Σ_cn w[c][n]·p[c][n] over prob's feasible
// region. w must be non-negative on feasible entries (marginal energy
// costs always are). Returns an error when the instance is infeasible or
// w has the wrong shape.
func MinCostAssignment(prob *Problem, w [][]float64) ([][]float64, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	x := NewMatrix(prob.C(), prob.N())
	if err := minCostAssignInto(prob, w, x, make([]float64, prob.N())); err != nil {
		return nil, err
	}
	return x, nil
}

// minCostAssignInto is MinCostAssignment on a validated prob, writing the
// assignment into x and its column sums into loads (both overwritten) so an
// iterating caller reuses its buffers. The separable vertex is tried first;
// only when a column cap would bind does the flow network decide who spills
// where.
func minCostAssignInto(prob *Problem, w, x [][]float64, loads []float64) error {
	c, n := prob.C(), prob.N()
	if len(w) != c {
		return fmt.Errorf("opt: cost matrix has %d rows for %d clients", len(w), c)
	}
	mask := prob.Allowed()
	for i := range w {
		if len(w[i]) != n {
			return fmt.Errorf("opt: cost row %d has %d cols for %d replicas", i, len(w[i]), n)
		}
		for j, ok := range mask[i] {
			if ok && (w[i][j] < 0 || math.IsNaN(w[i][j])) {
				return fmt.Errorf("opt: negative/NaN cost w[%d][%d] = %g", i, j, w[i][j])
			}
		}
	}
	if assignSeparable(prob, w, x, loads) {
		return nil
	}
	return assignByFlow(prob, w, x, loads)
}

// assignSeparable sends each client's whole demand to its cheapest allowed
// column — the optimum of the LP without its column caps, which decouples
// per row — and reports whether every column stayed within its bandwidth.
// If so the vertex is feasible for the capped LP and optimal for a
// relaxation of it, hence optimal. On false, x and loads hold garbage.
func assignSeparable(prob *Problem, w, x [][]float64, loads []float64) bool {
	mask := prob.Allowed()
	for j := range loads {
		loads[j] = 0
	}
	for i, row := range x {
		best := -1
		for j := range row {
			row[j] = 0
			if mask[i][j] && (best < 0 || w[i][j] < w[i][best]) {
				best = j
			}
		}
		if prob.Demands[i] == 0 {
			continue
		}
		if best < 0 {
			return false // unservable row: the flow reports the shortfall
		}
		row[best] = prob.Demands[i]
		loads[best] += prob.Demands[i]
	}
	for j, load := range loads {
		if load > prob.System.Replicas[j].Bandwidth {
			return false
		}
	}
	return true
}

// assignByFlow solves the capped LP on the transportation network.
func assignByFlow(prob *Problem, w, x [][]float64, loads []float64) error {
	c, n := prob.C(), prob.N()
	mask := prob.Allowed()
	source, sink := 0, c+n+1
	g := newMCFGraph(c + n + 2)
	want := 0.0
	type edgeRef struct{ client, replica, idx int }
	var refs []edgeRef
	for i := 0; i < c; i++ {
		g.addEdge(source, 1+i, prob.Demands[i], 0)
		want += prob.Demands[i]
		for j := 0; j < n; j++ {
			x[i][j] = 0
			if !mask[i][j] {
				continue
			}
			refs = append(refs, edgeRef{client: i, replica: j, idx: len(g.adj[1+i])})
			g.addEdge(1+i, 1+c+j, prob.Demands[i], w[i][j])
		}
	}
	for j := 0; j < n; j++ {
		loads[j] = 0
		g.addEdge(1+c+j, sink, prob.System.Replicas[j].Bandwidth, 0)
	}
	flow, _ := g.minCostFlow(source, sink, want)
	if flow < want-1e-6*(1+want) {
		return fmt.Errorf("opt: infeasible instance: routed %g of %g MB", flow, want)
	}
	for _, ref := range refs {
		e := g.adj[1+ref.client][ref.idx]
		if sent := prob.Demands[ref.client] - e.capacity; sent > 1e-12 {
			x[ref.client][ref.replica] = sent
			loads[ref.replica] += sent
		}
	}
	return nil
}

// FWOptions configures FrankWolfe.
type FWOptions struct {
	// MaxIters bounds conditional-gradient steps; 0 means 300.
	MaxIters int
	// Tol stops when the Frank-Wolfe duality gap g(x) = <∇f(x), x − s>
	// falls below Tol·(1+|f|); 0 means 1e-4 (the gap of the
	// conditional-gradient method decays only O(1/k), so tolerances much
	// tighter than this are impractical).
	Tol float64
}

// FWResult reports a FrankWolfe run.
type FWResult struct {
	X          [][]float64
	Objective  float64
	Iterations int
	// Converged reports that the run stopped on its certificate, Gap ≤
	// Tol·(1+|f|), rather than on the iteration bound.
	Converged bool
	// Gap is the final duality gap — a certified bound on suboptimality.
	Gap float64
}

// FrankWolfe minimizes prob's convex objective by the conditional-gradient
// method from the min-cost vertex of the linearization at zero load — the
// exact optimum of the γ=1 relaxation. See FrankWolfeFrom.
func FrankWolfe(prob *Problem, opts FWOptions) (*FWResult, error) {
	return FrankWolfeFrom(prob, nil, opts)
}

// FrankWolfeFrom runs the conditional-gradient method on prob starting from
// x0 when x0 is feasible for prob (it is not modified), and from
// FrankWolfe's cold start otherwise. At each iterate the gradient is
// linearized and minimized exactly over the polytope (minCostAssignInto),
// then the iterate moves toward that vertex by an exact line search. Every
// iterate is a convex combination of feasible points — no Euclidean
// projections are involved — so a feasible start is never left, and the
// line search never increases the objective.
//
// The objective depends on the matrix only through its |N| column loads,
// and so do the gradient (constant down each column), the duality gap and
// the line search: one iteration costs the oracle plus O(|C|·|N|) to move
// the iterate, and allocates nothing.
func FrankWolfeFrom(prob *Problem, x0 [][]float64, opts FWOptions) (*FWResult, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 300
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	c, n := prob.C(), prob.N()
	reps := prob.System.Replicas
	// Every row of grad is the one marginal-cost vector.
	marginal := make([]float64, n)
	grad := make([][]float64, c)
	for i := range grad {
		grad[i] = marginal
	}
	price := func(loads []float64) {
		for j := range marginal {
			marginal[j] = reps[j].MarginalCost(loads[j])
		}
	}
	var x [][]float64
	var lx []float64
	if feasibleStart(prob, x0) {
		x = Clone(x0)
		lx = ColSums(x)
	} else {
		x, lx = NewMatrix(c, n), make([]float64, n)
		price(lx)
		if err := minCostAssignInto(prob, grad, x, lx); err != nil {
			return nil, err
		}
	}
	vertex, lv := NewMatrix(c, n), make([]float64, n)
	res := &FWResult{}
	for k := 1; k <= maxIters; k++ {
		res.Iterations = k
		price(lx)
		if err := minCostAssignInto(prob, grad, vertex, lv); err != nil {
			return nil, fmt.Errorf("opt: frank-wolfe LMO at iteration %d: %w", k, err)
		}
		// Duality gap <∇f(x), x − vertex>, column by column.
		res.Gap = 0
		for j := range marginal {
			res.Gap += marginal[j] * (lx[j] - lv[j])
		}
		if res.Gap <= tol*(1+math.Abs(prob.System.CostOfLoads(lx))) {
			res.Converged = true
			break
		}
		step := lineSearch(reps, lx, lv)
		if step <= 0 {
			break // rounding left no descent along the segment; uncertified
		}
		Scale(x, 1-step)
		AXPY(x, step, vertex)
		for j := range lx {
			lx[j] = (1-step)*lx[j] + step*lv[j]
		}
	}
	res.X = x
	res.Objective = prob.Cost(x)
	return res, nil
}

// feasibleStart reports whether x0 can seed FrankWolfeFrom: right shape and
// within rounding of prob's feasible region. The iterates inherit whatever
// violation the start carries (shrinking it every step), so the bar sits
// three orders below the 1e-6 the flow oracle itself tolerates.
func feasibleStart(prob *Problem, x0 [][]float64) bool {
	if len(x0) != prob.C() {
		return false
	}
	want := 0.0
	for i, row := range x0 {
		if len(row) != prob.N() {
			return false
		}
		want += prob.Demands[i]
	}
	return prob.Violation(x0) <= 1e-9*(1+want)
}

// lineSearch minimizes φ(s) = Σ_n Cost_n((1−s)·lx_n + s·lv_n) over [0, 1]:
// the objective along the segment between two assignments with column
// loads lx and lv. φ is convex, so φ′ is nondecreasing and bisection on its
// sign finds the minimizer at O(|N|) per probe.
func lineSearch(reps []model.Replica, lx, lv []float64) float64 {
	slope := func(s float64) float64 {
		d := 0.0
		for j := range reps {
			d += (lv[j] - lx[j]) * reps[j].MarginalCost((1-s)*lx[j]+s*lv[j])
		}
		return d
	}
	if slope(0) >= 0 {
		return 0
	}
	if slope(1) <= 0 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for hi-lo > 1e-12 {
		mid := (lo + hi) / 2
		if slope(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
