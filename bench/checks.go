package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"edr/internal/central"
	"edr/internal/cohort"
	"edr/internal/core"
	"edr/internal/opt"
)

// samplePerReplica is how many clients per replica the plan check, and how
// many suppressed clients the steady-allocation check, look at per round.
const samplePerReplica = 100

// tally counts operations against failures: each Submit, each RunRound and
// each per-round output check is one operation.
type tally struct {
	attempted, failed int
	// first keeps the first few failure messages for the report.
	first []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.first) < 8 {
		t.first = append(t.first, err.Error())
	}
}

// checker verifies each round's outputs from outside the fleet.
type checker struct {
	f *fleet
	// sample[j] are the seeded client rows whose installed plan on replica j
	// is compared with the report; steady is the seeded order in which
	// suppressed clients are asked for their committed row.
	sample [][]int
	steady []int
}

func newChecker(f *fleet, seed uint64) *checker {
	r := newRand(seed, streamSample)
	c := &checker{f: f, sample: make([][]int, f.w.replicas), steady: r.Perm(f.w.clients)}
	for j := range c.sample {
		perm := r.Perm(f.w.clients)
		c.sample[j] = perm[:min(samplePerReplica, len(perm))]
	}
	return c
}

// check runs every per-round check on win and tallies each as one
// operation, after the window's Submits and RunRound.
func (c *checker) check(ctx context.Context, win *window, t *tally) {
	t.attempted += len(c.f.clients)
	if win.submitErrs > 0 {
		t.failed += win.submitErrs
		t.first = append(t.first, fmt.Sprintf("%d submits failed", win.submitErrs))
	}
	t.op(win.roundErr)
	if win.roundErr != nil {
		return
	}
	if win.report.Degraded {
		t.fail(fmt.Errorf("round %d degraded", win.report.Round))
	}
	x, err := c.assignment(win)
	t.op(err)
	if err != nil {
		return
	}
	t.op(c.checkMatrix(win, x))
	t.op(c.checkPlans(win, x))
	t.op(win.drainErr)
	t.op(c.checkAllocations(win))
	t.op(c.checkSteady(ctx, win))
}

// assignment returns the report's matrix in instance row/column order.
func (c *checker) assignment(win *window) ([][]float64, error) {
	f, rep := c.f, win.report
	if len(rep.ClientAddrs) != len(f.clients) || len(rep.ReplicaAddrs) != len(f.replicas) || len(rep.Assignment) != len(f.clients) {
		return nil, fmt.Errorf("round %d reports %d clients x %d replicas, fleet has %d x %d",
			rep.Round, len(rep.ClientAddrs), len(rep.ReplicaAddrs), len(f.clients), len(f.replicas))
	}
	cols := make([]int, len(rep.ReplicaAddrs))
	for jj, addr := range rep.ReplicaAddrs {
		j, ok := f.replicaCol[addr]
		if !ok {
			return nil, fmt.Errorf("round %d reports unknown replica %s", rep.Round, addr)
		}
		cols[jj] = j
	}
	x := make([][]float64, len(f.clients))
	for ii, addr := range rep.ClientAddrs {
		i, ok := f.clientRow[addr]
		if !ok || x[i] != nil || len(rep.Assignment[ii]) != len(cols) {
			return nil, fmt.Errorf("round %d reports a bad row for %s", rep.Round, addr)
		}
		x[i] = make([]float64, len(cols))
		for jj, v := range rep.Assignment[ii] {
			x[i][cols[jj]] = v
		}
	}
	return x, nil
}

// checkMatrix: entries non-negative, zero where latency > T, row sums equal
// the submitted demands, column sums within capacity.
func (c *checker) checkMatrix(win *window, x [][]float64) error {
	f := c.f
	cols := make([]float64, f.w.replicas)
	for i, row := range x {
		sum := 0.0
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("round %d: x[%d][%d] = %g", win.report.Round, i, j, v)
			}
			if v != 0 && f.in.lat[i][j] > maxLatencySec {
				return fmt.Errorf("round %d: client %d gets %g MB from replica %d beyond the latency bound", win.report.Round, i, v, j)
			}
			sum += v
			cols[j] += v
		}
		if d := win.demands[i]; math.Abs(sum-d) > 1e-6*d {
			return fmt.Errorf("round %d: client %d assigned %.9g MB of %.9g", win.report.Round, i, sum, d)
		}
	}
	for j, load := range cols {
		if b := f.models[j].Bandwidth; load > b*(1+1e-6) {
			return fmt.Errorf("round %d: replica %d carries %.9g MB over capacity %g", win.report.Round, j, load, b)
		}
	}
	return nil
}

// checkPlans: what each replica installed for the round equals the
// report's column, on the seeded sample.
func (c *checker) checkPlans(win *window, x [][]float64) error {
	for j, rs := range c.f.replicas {
		for _, i := range c.sample[j] {
			got, want := rs.Plan(win.report.Round, c.f.clientAddrs[i]), x[i][j]
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				return fmt.Errorf("round %d: replica %d installed %.12g MB for client %d, report says %.12g", win.report.Round, j, got, i, want)
			}
		}
	}
	return nil
}

// checkAllocations: every allocation a client received sums to its demand.
func (c *checker) checkAllocations(win *window) error {
	for i, got := range win.got {
		if !got {
			continue
		}
		if err := allocationMass(win.allocs[i], win.demands[i]); err != nil {
			return fmt.Errorf("round %d: client %d: %w", win.report.Round, i, err)
		}
	}
	return nil
}

func allocationMass(a core.AllocationBody, demand float64) error {
	sum := 0.0
	for _, mb := range a.PerReplicaMB {
		sum += mb
	}
	if math.Abs(sum-demand) > 1e-6*demand {
		return fmt.Errorf("allocation sums to %.9g MB of %.9g", sum, demand)
	}
	return nil
}

// checkSteady: clients whose push was suppressed can still pull a row of
// the right mass (WaitAllocationSteady), on a seeded sample.
func (c *checker) checkSteady(ctx context.Context, win *window) error {
	if win.report.SuppressedNotifies == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	asked := 0
	for _, i := range c.steady {
		if win.got[i] {
			continue
		}
		if asked++; asked > samplePerReplica {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := c.f.clients[i].WaitAllocationSteady(ctx, time.Millisecond)
			if err == nil {
				err = allocationMass(a, win.demands[i])
			}
			if err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("round %d: suppressed client %d: %w", win.report.Round, i, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
}

// referenceGapTol is the relative duality gap within which the reference
// solution must be certified optimal before a cost ratio is taken from it.
const referenceGapTol = 1e-4

// referenceOptimum solves the window's instance with the centralized
// reference (central: projected gradient with a global view). Client-scale
// fleets are grouped first — cohort.Group merges only clients with
// identical feasibility masks, so the reduced optimum equals the ungrouped
// one — and the reduced instance is solved. The solver's own convergence
// flag (iterate movement) is returned for the report; what decides is a
// certificate: the Frank-Wolfe duality gap at the solution bounds its
// distance from the optimum, and a reference not certified within
// referenceGapTol is an error, never a ratio.
func (f *fleet) referenceOptimum(demands []float64) (objective float64, converged bool, err error) {
	prob, err := f.problem(demands)
	if err != nil {
		return 0, false, err
	}
	if f.w.cohortMin > 0 {
		g, err := cohort.Group(prob, cohort.Options{})
		if err != nil {
			return 0, false, err
		}
		prob = g.Reduced()
	}
	res, err := central.New().Solve(prob)
	if err != nil {
		return 0, false, err
	}
	grad := prob.Gradient(res.Assignment)
	vertex, err := opt.MinCostAssignment(prob, grad)
	if err != nil {
		return 0, false, err
	}
	gap := 0.0
	for c, row := range res.Assignment {
		for n, v := range row {
			gap += grad[c][n] * (v - vertex[c][n])
		}
	}
	if gap > referenceGapTol*res.Objective {
		return 0, res.Converged, fmt.Errorf("reference solution not certified: duality gap %.3g of objective %.6g after %d iterations (own flag %v)",
			gap, res.Objective, res.Iterations, res.Converged)
	}
	return res.Objective, res.Converged, nil
}
