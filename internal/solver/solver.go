// Package solver defines the common interface all replica-selection
// algorithms in this module implement — the two EDR distributed methods
// (CDPSM, LDDM), the centralized reference, the Round-Robin baseline, and
// the DONAR comparator — plus the shared result/accounting types the
// experiment harness consumes.
package solver

import (
	"fmt"

	"edr/internal/opt"
)

// Result is the outcome of one scheduling decision.
type Result struct {
	// Assignment is the load-split matrix P (clients × replicas).
	Assignment [][]float64
	// Objective is the total energy cost E_g(P) in model units.
	Objective float64
	// Iterations is the number of algorithm iterations executed
	// (1 for one-shot heuristics like Round-Robin).
	Iterations int
	// Converged reports whether the stopping criterion was met before the
	// iteration bound.
	Converged bool
	// History records the objective after each iteration — the
	// convergence curves of the paper's Fig. 5. May be nil when the
	// algorithm is one-shot.
	History []float64
	// Comm tallies the communication the algorithm performed.
	Comm CommStats
}

// CommStats counts distributed-coordination traffic. For in-process
// simulation these are analytic counts matching the complexity analysis in
// paper §III-D; for the live runtime they are measured.
type CommStats struct {
	// Messages is the number of point-to-point messages exchanged.
	Messages int
	// Scalars is the total float64 payload volume across all messages.
	Scalars int
}

// Solver computes a load split for one problem instance.
type Solver interface {
	// Name identifies the algorithm in figures ("LDDM", "CDPSM", ...).
	Name() string
	// Solve returns a feasible assignment for prob.
	Solve(prob *opt.Problem) (*Result, error)
}

// Verify checks that a result is structurally sound and feasible for prob
// within tol, returning a descriptive error otherwise. Experiment
// harnesses call this on every solver output so that a buggy algorithm
// fails loudly rather than skewing a figure.
func Verify(prob *opt.Problem, res *Result, tol float64) error {
	if res == nil || res.Assignment == nil {
		return fmt.Errorf("solver: nil result")
	}
	if len(res.Assignment) != prob.C() {
		return fmt.Errorf("solver: assignment has %d rows for %d clients", len(res.Assignment), prob.C())
	}
	for c, row := range res.Assignment {
		if len(row) != prob.N() {
			return fmt.Errorf("solver: row %d has %d cols for %d replicas", c, len(row), prob.N())
		}
	}
	// A NaN violation compares false against everything: it must fail.
	if v := prob.Violation(res.Assignment); !(v <= tol) {
		return fmt.Errorf("solver: assignment violates constraints by %g (tol %g)", v, tol)
	}
	return nil
}
