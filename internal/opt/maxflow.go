package opt

import (
	"fmt"
	"math"
)

// Feasibility of an EDR instance is a transportation problem: demand R_c
// must route from each client to latency-feasible replicas without
// exceeding any capacity B_n. We decide it exactly with a max-flow
// computation on the bipartite graph
//
//	source → client c   (capacity R_c)
//	client c → replica n (capacity R_c, present iff l_{c,n} ≤ T)
//	replica n → sink     (capacity B_n)
//
// The instance is feasible iff max flow = Σ R_c. Edmonds-Karp (BFS
// augmenting paths) is ample at paper scale.

type flowEdge struct {
	to, rev int // target vertex; index of reverse edge in graph[to]
	cap     float64
}

type flowGraph struct {
	adj [][]flowEdge
}

func newFlowGraph(vertices int) *flowGraph {
	return &flowGraph{adj: make([][]flowEdge, vertices)}
}

func (g *flowGraph) addEdge(from, to int, capacity float64) {
	g.adj[from] = append(g.adj[from], flowEdge{to: to, rev: len(g.adj[to]), cap: capacity})
	g.adj[to] = append(g.adj[to], flowEdge{to: from, rev: len(g.adj[from]) - 1, cap: 0})
}

// maxFlow runs Edmonds-Karp from s to t and returns the attained flow.
func (g *flowGraph) maxFlow(s, t int) float64 {
	total := 0.0
	for {
		// BFS for a shortest augmenting path.
		parentV := make([]int, len(g.adj))
		parentE := make([]int, len(g.adj))
		for i := range parentV {
			parentV[i] = -1
		}
		parentV[s] = s
		queue := []int{s}
		for len(queue) > 0 && parentV[t] == -1 {
			v := queue[0]
			queue = queue[1:]
			for ei, e := range g.adj[v] {
				if e.cap > 1e-12 && parentV[e.to] == -1 {
					parentV[e.to] = v
					parentE[e.to] = ei
					queue = append(queue, e.to)
				}
			}
		}
		if parentV[t] == -1 {
			return total
		}
		// Bottleneck along the path.
		bottleneck := math.Inf(1)
		for v := t; v != s; v = parentV[v] {
			e := g.adj[parentV[v]][parentE[v]]
			bottleneck = math.Min(bottleneck, e.cap)
		}
		// Augment.
		for v := t; v != s; v = parentV[v] {
			e := &g.adj[parentV[v]][parentE[v]]
			e.cap -= bottleneck
			g.adj[e.to][e.rev].cap += bottleneck
		}
		total += bottleneck
	}
}

// CheckFeasible decides whether prob admits any assignment satisfying all
// constraints. It returns nil when feasible and a diagnostic error
// (including the shortfall) otherwise. Most instances are settled by a
// witness — the uniform split fitting every capacity — and only the rest
// pay for max flow (FeasiblePoint).
func CheckFeasible(prob *Problem) error {
	if err := prob.Validate(); err != nil {
		return err
	}
	if uniformSplitFits(prob) {
		return nil
	}
	_, err := FeasiblePoint(prob)
	return err
}

// uniformSplitFits reports whether spreading each client's demand evenly
// over its latency-feasible replicas keeps every replica within its
// bandwidth. That split conserves demand and respects the mask, so true
// proves the instance feasible; false decides nothing (a client with no
// feasible replica, or a cap only a skewed split can respect).
func uniformSplitFits(prob *Problem) bool {
	sp := prob.Sparsity()
	load := make([]float64, sp.N)
	for i, d := range prob.Demands {
		lo, hi := sp.RowStart[i], sp.RowStart[i+1]
		if lo == hi {
			return false
		}
		share := d / float64(hi-lo)
		for _, j := range sp.ColIdx[lo:hi] {
			load[j] += share
		}
	}
	for j, l := range load {
		if !(l <= prob.System.Replicas[j].Bandwidth) {
			return false
		}
	}
	return true
}

// FeasiblePoint computes one feasible assignment by extracting the flow on
// client→replica edges after running max flow. Returns an error when the
// instance is infeasible.
func FeasiblePoint(prob *Problem) ([][]float64, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	c, n := prob.C(), prob.N()
	mask := prob.Allowed()
	source, sink := 0, c+n+1
	g := newFlowGraph(c + n + 2)
	want := 0.0
	// Remember original capacities of client→replica edges to recover flow.
	type edgeRef struct{ client, replica, idx int }
	var refs []edgeRef
	for i, r := range prob.Demands {
		g.addEdge(source, 1+i, r)
		want += r
		for j := 0; j < n; j++ {
			if mask[i][j] {
				refs = append(refs, edgeRef{client: i, replica: j, idx: len(g.adj[1+i])})
				g.addEdge(1+i, 1+c+j, r)
			}
		}
	}
	for j := 0; j < n; j++ {
		g.addEdge(1+c+j, sink, prob.System.Replicas[j].Bandwidth)
	}
	got := g.maxFlow(source, sink)
	if got < want-1e-6*(1+want) {
		return nil, fmt.Errorf("opt: infeasible instance: only %g of %g MB routable under capacity and latency constraints", got, want)
	}
	x := NewMatrix(c, n)
	for _, ref := range refs {
		e := g.adj[1+ref.client][ref.idx]
		flow := prob.Demands[ref.client] - e.cap // original − residual
		if flow > 1e-12 {
			x[ref.client][ref.replica] = flow
		}
	}
	return x, nil
}
