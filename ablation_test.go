package edr_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// network-energy degree γ (linear vs cubic switch fabrics), LDDM's dual
// step ramp and CDPSM's constant step, the fleet size (the |N|³
// communication asymmetry between CDPSM and LDDM), and the lineup of all
// five optimizers on one instance. Run a slice with e.g.
//
//	go test -bench=Ablation -benchmem

import (
	"fmt"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/central"
	"edr/internal/lddm"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

// BenchmarkAblationGamma sweeps the network-energy polynomial degree: γ=1
// (linear Batcher/Crossbar-style fabrics) makes the objective linear in
// loads, so water-filling degenerates to cheapest-first; γ=3 is the
// paper's data-intensive profile; γ=4 exaggerates the spreading pressure.
func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []float64{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("gamma=%g", gamma), func(b *testing.B) {
			prob, err := probgen.MustFeasible(sim.NewRand(11), probgen.Spec{
				Clients:  10,
				Replicas: 8,
				Prices:   []float64{1, 8, 1, 6, 1, 5, 2, 3},
				Gamma:    gamma,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var lastObjective float64
			for i := 0; i < b.N; i++ {
				res, err := lddm.New().Solve(prob)
				if err != nil {
					b.Fatal(err)
				}
				lastObjective = res.Objective
			}
			b.ReportMetric(lastObjective, "objective")
		})
	}
}

// BenchmarkAblationLDDMStepRamp sweeps the dual step's ramp length: short
// ramps converge in fewer iterations but oscillate harder (more work per
// recovered solution); the engine default is 50.
func BenchmarkAblationLDDMStepRamp(b *testing.B) {
	prob, err := probgen.MustFeasible(sim.NewRand(13), probgen.Spec{
		Clients:  10,
		Replicas: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ramp := range []float64{5, 10, 25, 50, 100} {
		b.Run(fmt.Sprintf("ramp=%g", ramp), func(b *testing.B) {
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				s := lddm.New()
				s.StepRamp = ramp
				res, err := s.Solve(prob)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkAblationCDPSMStep sweeps CDPSM's constant step: too small
// never converges within the bound, too large raises the consensus error
// floor.
func BenchmarkAblationCDPSMStep(b *testing.B) {
	prob, err := probgen.MustFeasible(sim.NewRand(17), probgen.Spec{
		Clients:  6,
		Replicas: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, step := range []float64{0.0005, 0.002, 0.01, 0.05} {
		b.Run(fmt.Sprintf("step=%g", step), func(b *testing.B) {
			b.ReportAllocs()
			var objective float64
			for i := 0; i < b.N; i++ {
				s := cdpsm.New()
				s.MaxIters = 400
				s.Step = step
				res, err := s.Solve(prob)
				if err != nil {
					b.Fatal(err)
				}
				objective = res.Objective
			}
			b.ReportMetric(objective, "objective")
		})
	}
}

// BenchmarkAblationFleetSize contrasts how the two distributed methods
// scale with the replica count: LDDM's per-iteration work is O(C·N) while
// CDPSM's is O(C·N³) — the core complexity claim of paper §III-D.
func BenchmarkAblationFleetSize(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12} {
		prob, err := probgen.MustFeasible(sim.NewRand(19), probgen.Spec{
			Clients:  8,
			Replicas: n,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("LDDM/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := lddm.New()
				s.MaxIters = 200
				if _, err := s.Solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CDPSM/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := cdpsm.New()
				s.MaxIters = 200
				if _, err := s.Solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSolverLineup compares all five optimizers on the same
// paper-scale instance: the two distributed EDR methods, the ADMM
// extension, and the two centralized references.
func BenchmarkAblationSolverLineup(b *testing.B) {
	prob, err := probgen.MustFeasible(sim.NewRand(29), probgen.Spec{
		Clients:  12,
		Replicas: 8,
		Prices:   []float64{1, 8, 1, 6, 1, 5, 2, 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	lineup := []solver.Solver{
		lddm.New(),
		func() solver.Solver { s := cdpsm.New(); s.MaxIters = 300; return s }(),
		admm.New(),
		central.New(),
		central.NewFrankWolfe(),
	}
	for _, s := range lineup {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var objective float64
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(prob)
				if err != nil {
					b.Fatal(err)
				}
				objective = res.Objective
			}
			b.ReportMetric(objective, "objective")
		})
	}
}
