package edr_test

import (
	"math"
	"slices"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/central"
	"edr/internal/lddm"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

// FuzzSparseDenseEquiv checks the one packed solver core against exact
// references on random instances, masked (odd seeds: wide-area draws with
// structural zeros) and fully feasible (even seeds: cluster draws, the
// density-1 CSR) alike:
//
//   - kernel level: the packed projector behind opt.ProjectFeasible must
//     pass the projection certificate (see projectionGap) with a gap of at
//     most 1e-10, and opt.ProjectFeasiblePacked, the entry point the
//     engines call, must agree with ProjectFeasible bit for bit on the
//     support, refusing exactly when it refuses (the water-filling and
//     proximal-column kernels are checked, full masks included, in the
//     lddm and admm package tests). The draws leave every capacity slack,
//     so each is projected again with its bandwidths tightened until
//     capacities bind (tightened), and certified as
//     checkTightProjection says;
//   - engine level: every engine's result passes solver.Verify and puts
//     nothing on a latency-infeasible link, and LDDM and ADMM land within
//     5% of the centralized optimum (CDPSM's constant-step consensus does
//     not get that close in a bounded run, so it is held to feasibility).
func FuzzSparseDenseEquiv(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3))
	f.Add(uint64(42), uint8(10), uint8(4))
	f.Add(uint64(7), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, clients, replicas uint8) {
		c := 2 + int(clients)%12
		n := 2 + int(replicas)%5
		r := sim.NewRand(seed)
		prob, err := probgen.MustFeasible(r, probgen.Spec{
			Clients: c, Replicas: n, Geo: seed%2 == 1, DemandLo: 1, DemandHi: 6,
		})
		if err != nil {
			t.Skip("no feasible draw for this seed")
		}
		mask := prob.Allowed()

		x := opt.NewMatrix(c, n)
		for i := range x {
			for j := range x[i] {
				x[i][j] = r.Range(-5, 20) // off-support entries included: both sides must zero them
			}
		}
		packed, err := projectBoth(t, prob, x)
		if err != nil {
			t.Fatalf("packed projection: %v", err)
		}
		if viol := prob.Violation(packed); viol > 1e-6 {
			t.Fatalf("packed projection violation %g", viol)
		}
		if gap, err := projectionGap(prob, x, packed); err != nil || gap > 1e-10 {
			t.Fatalf("packed projection gap %g (%v): not the nearest feasible point", gap, err)
		}
		checkTightProjection(t, tightened(t, prob), x)

		ref, err := central.New().Solve(prob)
		if err != nil {
			t.Fatalf("central: %v", err)
		}
		engines := []struct {
			s          solver.Solver
			nearCenter bool
		}{
			{&cdpsm.Solver{MaxIters: 60}, false},
			{&lddm.Solver{MaxIters: 3000, Tol: 0.01}, true},
			{&admm.Solver{MaxIters: 500, Tol: 1e-4}, true},
		}
		for _, e := range engines {
			res, err := e.s.Solve(prob)
			if err != nil {
				t.Fatalf("%s: %v", e.s.Name(), err)
			}
			if err := solver.Verify(prob, res, 1e-4); err != nil {
				t.Fatalf("%s: %v", e.s.Name(), err)
			}
			for i, row := range res.Assignment {
				for j, v := range row {
					if !mask[i][j] && v != 0 {
						t.Fatalf("%s put %g on latency-infeasible link [%d][%d]", e.s.Name(), v, i, j)
					}
				}
			}
			if e.nearCenter && res.Objective > ref.Objective*1.05+1e-6 {
				t.Fatalf("%s objective %v vs central %v (>5%% gap)", e.s.Name(), res.Objective, ref.Objective)
			}
		}
	})
}

// projectBoth projects x onto prob's feasible region through
// opt.ProjectFeasible and opt.ProjectFeasiblePacked, which must agree bit
// for bit on the support and refuse alike, and returns the projection.
func projectBoth(t *testing.T, prob *opt.Problem, x [][]float64) ([][]float64, error) {
	t.Helper()
	packed, v := opt.Clone(x), prob.Sparsity().Gather(x)
	err, errPacked := opt.ProjectFeasible(prob, packed, 1e-6), opt.ProjectFeasiblePacked(prob, v, 1e-6)
	if (err == nil) != (errPacked == nil) {
		t.Fatalf("ProjectFeasible says %v, ProjectFeasiblePacked %v", err, errPacked)
	}
	if err != nil {
		return nil, err
	}
	for k, want := range prob.Sparsity().Gather(packed) {
		if math.Float64bits(v[k]) != math.Float64bits(want) {
			t.Fatalf("slot %d: ProjectFeasiblePacked %v, ProjectFeasible %v", k, v[k], want)
		}
	}
	return packed, nil
}

// checkTightProjection certifies the projection of x onto tight, a draw
// whose capacities bind. There ProjectFeasible meets them only to its
// stopping tolerance, and the certificate assumes a feasible point, so
// what is certified is the exact projection: the same sweeps run to a
// tolerance of 1e-13, then the support they reach solved exactly
// (polishProjection), and ProjectFeasible's answer must lie within 1e-5 of
// it. Near a vertex where some columns carry their rows' demand exactly
// the sweeps stall: ProjectFeasible refuses about 3 % of these draws, and
// at the vertex itself the support may admit no exact solution (about
// 0.2 %). Such a draw is left uncertified (ROADMAP item 3e); every
// projection ProjectFeasible does return is held to the exact one.
func checkTightProjection(t *testing.T, tight *opt.Problem, x [][]float64) {
	t.Helper()
	y, err := projectBoth(t, tight, x)
	if err != nil {
		return
	}
	if viol := tight.Violation(y); viol > 1e-6 {
		t.Fatalf("tight projection violation %g", viol)
	}
	exact, ok := polishProjection(tight, x, projectConverged(t, tight, x))
	if !ok {
		// From the rows' own projections, with no column binding.
		exact, ok = polishProjection(tight, x, rowProjections(tight, x))
	}
	if !ok {
		return
	}
	if d := opt.Dist(y, exact); d > 1e-5 {
		t.Fatalf("tight projection %g away from the exact one", d)
	}
	if gap, err := projectionGap(tight, x, exact); err != nil || gap > 1e-10 {
		t.Fatalf("tight projection gap %g (%v): not the nearest feasible point", gap, err)
	}
}

// tightened returns a copy of prob whose bandwidths are prob's scaled by
// one factor, 1.2× the least that keeps the copy feasible, so that its
// capacity halfspaces bind.
func tightened(t *testing.T, prob *opt.Problem) *opt.Problem {
	t.Helper()
	full := prob.System.Replicas
	sys, err := model.NewSystem(slices.Clone(full))
	if err != nil {
		t.Fatal(err)
	}
	tight := &opt.Problem{System: sys, Demands: prob.Demands, Latency: prob.Latency, MaxLatency: prob.MaxLatency}
	scale := func(f float64) {
		for n := range sys.Replicas {
			sys.Replicas[n].Bandwidth = f * full[n].Bandwidth
		}
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if scale(mid); opt.CheckFeasible(tight) == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	scale(math.Min(1, 1.2*hi))
	return tight
}

// projectConverged runs opt.ProjectFeasible's sweeps on x to a membership
// tolerance of 1e-13 instead of 1e-7, then its exact row pass.
func projectConverged(t *testing.T, prob *opt.Problem, x [][]float64) [][]float64 {
	t.Helper()
	sp := prob.Sparsity()
	bounds := make([]float64, sp.N)
	for n := range bounds {
		bounds[n] = prob.System.Replicas[n].Bandwidth
	}
	pj := opt.NewSparseProjector(sp, prob.Demands, bounds)
	v := sp.Gather(x)
	if _, err := pj.Project(v, opt.DykstraOptions{MaxSweeps: 100000, Tol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	if err := pj.FinishRows(v); err != nil {
		t.Fatal(err)
	}
	z := opt.NewMatrix(sp.C, sp.N)
	sp.Scatter(z, v)
	return z
}

// rowProjections projects each row of x onto its demand simplex over the
// mask, leaving the capacities aside.
func rowProjections(prob *opt.Problem, x [][]float64) [][]float64 {
	mask := prob.Allowed()
	z := opt.NewMatrix(prob.C(), prob.N())
	for i := range z {
		var seg []float64
		for j, ok := range mask[i] {
			if ok {
				seg = append(seg, x[i][j])
			}
		}
		opt.ProjectSimplexScratch(seg, make([]float64, len(seg)), prob.Demands[i])
		for j, ok := range mask[i] {
			if ok {
				z[i][j], seg = seg[0], seg[1:]
			}
		}
	}
	return z
}

// polishProjection returns the exact projection of x onto prob's feasible
// region, solved from the support z suggests, and whether it found one. The
// projection is y = max(0, x + α_c − β_n) over the mask, with α_c making
// row c sum to R_c and β_n ≥ 0 the multiplier of column n's capacity,
// zero unless the column binds. On a guessed support (the entries and
// binding columns) those conditions are linear equations in α and β; their
// solution moves the support, entries all at once and columns one at a
// time, until it no longer moves (a primal-dual active-set loop). There
// the optimality conditions hold exactly, up to rounding, and are checked.
func polishProjection(prob *opt.Problem, x, z [][]float64) ([][]float64, bool) {
	mask := prob.Allowed()
	bw := func(j int) float64 { return prob.System.Replicas[j].Bandwidth }
	active := make([][]bool, prob.C())
	for i := range active {
		active[i] = make([]bool, prob.N())
		for j := range active[i] {
			active[i][j] = mask[i][j] && z[i][j] > 1e-9
		}
	}
	bind := make([]bool, prob.N())
	for j, load := range opt.ColSums(z) {
		bind[j] = load > bw(j)-1e-7
	}
	for round := 0; round < 100; round++ {
		alpha, beta, ok := solveSupport(prob, x, active, bind)
		if !ok {
			return nil, false
		}
		moved := false
		y := opt.NewMatrix(prob.C(), prob.N())
		for i := range y {
			for j, ok := range mask[i] {
				if v := x[i][j] + alpha[i] - beta[j]; ok {
					y[i][j] = math.Max(v, 0)
					if on := v > 0; on != active[i][j] {
						active[i][j], moved = on, true
					}
				}
			}
		}
		// A column leaves with the most negative multiplier, or else joins
		// with the largest overload: binding every overloaded column at
		// once can close rows on columns that cannot carry their demand
		// exactly, where the equations have no solution.
		loads := opt.ColSums(y)
		flip, by := -1, 0.0
		for j := range bind {
			if bind[j] && -beta[j] > by {
				flip, by = j, -beta[j]
			}
		}
		for j := range bind {
			if flip < 0 && !bind[j] && loads[j]-bw(j) > by {
				flip, by = j, loads[j]-bw(j)
			}
		}
		if flip >= 0 {
			bind[flip], moved = !bind[flip], true
		}
		if moved {
			continue
		}
		const slack = 1e-11
		for i, sum := range opt.RowSums(y) {
			if math.Abs(sum-prob.Demands[i]) > slack*math.Max(1, prob.Demands[i]) {
				return nil, false
			}
		}
		for j, load := range loads {
			if beta[j] < -slack || load > bw(j)+slack*math.Max(1, bw(j)) {
				return nil, false
			}
		}
		return y, true
	}
	return nil, false
}

// solveSupport solves the projection's optimality conditions on a guessed
// support as linear equations: Σ_n (x_cn + α_c − β_n) = R_c over row c's
// active entries, the same sum over a binding column's active entries
// equal to its bandwidth, and β_n = 0 on the other columns. A support where
// some rows sit on binding columns that carry exactly their demand leaves
// α and β free along one direction; that direction is fixed at 0, and the
// equations must still hold. ok is false when they cannot.
func solveSupport(prob *opt.Problem, x [][]float64, active [][]bool, bind []bool) (alpha, beta []float64, ok bool) {
	c, n := prob.C(), prob.N()
	col := make([]int, n) // the unknown holding column j's β, or -1
	size := c
	for j := range col {
		col[j] = -1
		if bind[j] {
			col[j] = size
			size++
		}
	}
	a := opt.NewMatrix(size, size+1) // the augmented system, one equation a row
	for i := 0; i < c; i++ {
		a[i][size] = prob.Demands[i]
		for j, on := range active[i] {
			if !on {
				continue
			}
			a[i][i]++
			a[i][size] -= x[i][j]
			if k := col[j]; k >= 0 {
				a[i][k]--
				a[k][i]++
				a[k][k]--
				a[k][size] -= x[i][j]
			}
		}
	}
	for j, k := range col {
		if k >= 0 {
			a[k][size] += prob.System.Replicas[j].Bandwidth
		}
	}
	// Gauss-Jordan elimination with partial pivoting; an unknown with no
	// usable pivot is a free one.
	pivot, used := make([]int, size), make([]bool, size)
	for p := range pivot {
		best := -1
		for r := range a {
			if !used[r] && (best < 0 || math.Abs(a[r][p]) > math.Abs(a[best][p])) {
				best = r
			}
		}
		pivot[p] = -1
		if math.Abs(a[best][p]) < 1e-9 {
			continue
		}
		pivot[p], used[best] = best, true
		for r := range a {
			if f := a[r][p] / a[best][p]; r != best && f != 0 {
				for k := p; k <= size; k++ {
					a[r][k] -= f * a[best][k]
				}
			}
		}
	}
	for r, u := range used {
		if !u && math.Abs(a[r][size]) > 1e-9 {
			return nil, nil, false
		}
	}
	value := func(p int) float64 {
		if pivot[p] < 0 {
			return 0
		}
		return a[pivot[p]][size] / a[pivot[p]][p]
	}
	alpha, beta = make([]float64, c), make([]float64, n)
	for i := range alpha {
		alpha[i] = value(i)
	}
	for j, k := range col {
		if k >= 0 {
			beta[j] = value(k)
		}
	}
	return alpha, beta, true
}

// projectionGap certifies y as the Euclidean projection of x onto prob's
// feasible region by its optimality condition: y = P(x) exactly when y
// minimizes ⟨y − x, z⟩ over feasible z, so with w = y − x the gap
// ⟨w, y⟩ − min_z ⟨w, z⟩ is 0 at P(x) and bounds ‖y − P(x)‖ ≤ √(2·gap) at
// any feasible y. opt.MinCostAssignment solves the linear program exactly
// once each row of w is shifted to be non-negative on the mask; feasible
// rows sum to R_c, so the shift leaves the argmin alone.
func projectionGap(prob *opt.Problem, x, y [][]float64) (float64, error) {
	mask := prob.Allowed()
	w := opt.NewMatrix(prob.C(), prob.N())
	for c, row := range w {
		lo := math.Inf(1)
		for n, ok := range mask[c] {
			if ok {
				row[n] = y[c][n] - x[c][n]
				lo = math.Min(lo, row[n])
			}
		}
		for n, ok := range mask[c] {
			if ok {
				row[n] -= lo
			}
		}
	}
	z, err := opt.MinCostAssignment(prob, w)
	if err != nil {
		return 0, err
	}
	gap := 0.0
	for c, row := range w {
		for n, wv := range row {
			gap += wv * (y[c][n] - z[c][n])
		}
	}
	return gap, nil
}
