package main

import (
	"fmt"
	"time"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/cohort"
	"edr/internal/lddm"
	"edr/internal/opt"
	"edr/internal/solver"
	"edr/internal/transport"
)

// probeReps is how often each probe runs; the median is reported.
const probeReps = 5

// timeMedian runs fn probeReps times and returns the median wall time in
// seconds of the successful runs' timed parts. fn returns how long its
// timed part took, so it can set up outside the clock.
func timeMedian(fn func() (time.Duration, error)) (float64, error) {
	times := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// timed measures one call.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// runProbes times calls into the layers' public functions on the
// workload's own last instance, after the loop. Solver, projection and
// feasibility probes run on the instance the engines see — the
// cohort-reduced one where the workload cohorts; the round diff, grouping
// and codec probes run at full client scale, as core runs them.
func runProbes(f *fleet, prev, last *window, put func(name string, v float64, unit string)) error {
	if prev == nil || last == nil || last.report == nil {
		return fmt.Errorf("no completed window to probe")
	}
	// Fresh problems per repetition where a probe would otherwise hit the
	// problem's cached mask and sparsity.
	full := func(win *window) (*opt.Problem, error) { return f.problem(win.demands) }
	prob, err := full(last)
	if err != nil {
		return err
	}
	grouping, err := cohort.Group(prob, cohort.Options{})
	if err != nil {
		return err
	}
	solve := prob
	if f.w.cohortMin > 0 {
		solve = grouping.Reduced()
	}

	// Kernels: seconds per iteration of the in-process solver, so the
	// number does not depend on where each method's stopping rule lands.
	kernels := []struct {
		name string
		s    solver.Solver
	}{
		{"lddm.kernel_s", &lddm.Solver{MaxIters: 200}},
		{"admm.kernel_s", &admm.Solver{MaxIters: 50}},
		{"cdpsm.kernel_s", &cdpsm.Solver{MaxIters: 10}},
	}
	for _, k := range kernels {
		v, err := timeMedian(func() (time.Duration, error) {
			var res *solver.Result
			d, err := timed(func() (err error) { res, err = k.s.Solve(solve); return err })
			if err != nil {
				return 0, fmt.Errorf("%s: %w", k.name, err)
			}
			if res.Iterations == 0 {
				return 0, fmt.Errorf("%s: solver ran no iteration", k.name)
			}
			return d / time.Duration(res.Iterations), nil
		})
		if err != nil {
			return err
		}
		put(k.name, v, "s")
	}

	start, err := solve.UniformStart()
	if err != nil {
		return err
	}
	v, err := timeMedian(func() (time.Duration, error) {
		x := opt.Clone(start)
		return timed(func() error { return opt.ProjectFeasible(solve, x, 1e-6) })
	})
	if err != nil {
		return err
	}
	put("opt.project_feasible_s", v, "s")
	if v, err = timeMedian(func() (time.Duration, error) {
		return timed(func() error { return opt.CheckFeasible(solve) })
	}); err != nil {
		return err
	}
	put("opt.check_feasible_s", v, "s")

	identity := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		return m
	}
	rows, cols := identity(prob.C()), identity(prob.N())
	if v, err = timeMedian(func() (time.Duration, error) {
		a, err := full(prev)
		if err != nil {
			return 0, err
		}
		b, err := full(last)
		if err != nil {
			return 0, err
		}
		return timed(func() error { _, err := opt.DiffRounds(a, b, rows, cols, 1e-3); return err })
	}); err != nil {
		return err
	}
	put("opt.diff_rounds_s", v, "s")

	if v, err = timeMedian(func() (time.Duration, error) {
		p, err := full(last)
		if err != nil {
			return 0, err
		}
		return timed(func() error { _, err := cohort.Group(p, cohort.Options{}); return err })
	}); err != nil {
		return err
	}
	put("cohort.group_s", v, "s")
	if v, err = timeMedian(func() (time.Duration, error) {
		reg := cohort.NewRegistry()
		if _, _, err := reg.Group(prob, cohort.Options{}); err != nil {
			return 0, err
		}
		return timed(func() error { _, _, err := reg.Group(prob, cohort.Options{}); return err })
	}); err != nil {
		return err
	}
	put("cohort.regroup_s", v, "s")
	xk, err := grouping.Reduced().UniformStart()
	if err != nil {
		return err
	}
	if v, err = timeMedian(func() (time.Duration, error) {
		return timed(func() error { _, err := grouping.Disaggregate(xk); return err })
	}); err != nil {
		return err
	}
	put("cohort.disaggregate_s", v, "s")

	// One kinded |C|x|N| frame: the round's committed assignment.
	m := last.report.Assignment
	var frame []byte
	if v, err = timeMedian(func() (time.Duration, error) {
		return timed(func() error { frame = transport.AppendMatrixKinded(frame[:0], m, nil); return nil })
	}); err != nil {
		return err
	}
	put("transport.encode_s", v, "s")
	if v, err = timeMedian(func() (time.Duration, error) {
		return timed(func() error { _, _, err := transport.ReadMatrixKinded(frame, nil); return err })
	}); err != nil {
		return err
	}
	put("transport.decode_s", v, "s")
	return nil
}
