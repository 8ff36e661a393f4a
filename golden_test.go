package edr_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/lddm"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

// goldenRow is one engine's result on one seeded instance, recorded at the
// commit before the dense solver cores were deleted (b3ab1c7): masked rows
// ran the packed kernels there, full rows the dense ones.
type goldenRow struct {
	instance, engine string
	iterations       int
	objective        uint64 // math.Float64bits of Result.Objective
	history          uint64 // FNV-1a over the bits of Result.History
}

var goldenInstances = []struct {
	name string
	seed uint64
	spec probgen.Spec
	full bool
}{
	{"masked10x4", 59, probgen.Spec{Clients: 10, Replicas: 4, Geo: true, DemandLo: 1, DemandHi: 6}, false},
	{"masked24x5", 2026, probgen.Spec{Clients: 24, Replicas: 5, Geo: true, DemandLo: 1, DemandHi: 6}, false},
	{"full6x4", 31, probgen.Spec{Clients: 6, Replicas: 4}, true},
	{"full12x8", 7, probgen.Spec{Clients: 12, Replicas: 8}, true},
}

var goldenEngines = []struct {
	name string
	mk   func() solver.Solver
}{
	{"LDDM", func() solver.Solver { return &lddm.Solver{MaxIters: 400} }},
	{"ADMM", func() solver.Solver { return &admm.Solver{MaxIters: 200} }},
	{"CDPSM", func() solver.Solver { return &cdpsm.Solver{MaxIters: 60} }},
}

var goldenRows = []goldenRow{
	{"masked10x4", "LDDM", 400, 0x4089416fc7c65d65, 0xfbff9f3bf062b916},
	{"masked10x4", "ADMM", 58, 0x408941462dc4a645, 0xa0931104b4fd8217},
	{"masked10x4", "CDPSM", 60, 0x408941843ceca84c, 0x48c2c1eaeab99397},
	{"masked24x5", "LDDM", 400, 0x409b2905aeb5693e, 0x79e30cb90c74484},
	{"masked24x5", "ADMM", 52, 0x409b288b4330ffd0, 0xfa8a8fae7d1bd020},
	{"masked24x5", "CDPSM", 60, 0x40a317287b96b3a2, 0xb293345fcdbb3332},
	{"full6x4", "LDDM", 337, 0x40b92963d4b4f3b1, 0xaae62b19fd19e2dd},
	{"full6x4", "ADMM", 40, 0x40b9284014045059, 0x20fcabde2d2d2681},
	{"full6x4", "CDPSM", 60, 0x40baabb261b14e4e, 0xf92332e6933b03b6},
	{"full12x8", "LDDM", 400, 0x40e51cac11ff6226, 0xc46427d5a6ce9392},
	{"full12x8", "ADMM", 108, 0x40e51c6c1adb3a62, 0x5b0f253ed026c8ab},
	{"full12x8", "CDPSM", 2, 0x40eb70288a375d42, 0x7cef00e1806e617e},
}

func historyHash(h []float64) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for _, v := range h {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		f.Write(b[:])
	}
	return f.Sum64()
}

// TestSolverGolden pins every engine's end result across the move to one
// packed core. Masked instances ran the packed kernels before and after,
// so they must match bit for bit (objective, iteration count, history).
// Full instances moved from the dense kernels onto the packed ones: same
// iteration count, objective within 1e-9 relative (the packed projector
// maintains column sums incrementally, which reorders float additions).
// ADMM's masked rows take the full rows' comparison too: its proximal
// kernel went from a ternary search over projections (the recorded values)
// to the exact KKT solve, which moves the objective in the last digits
// (≈ 2e-12 relative) but no iteration count.
func TestSolverGolden(t *testing.T) {
	want := make(map[string]goldenRow, len(goldenRows))
	for _, row := range goldenRows {
		want[row.instance+"/"+row.engine] = row
	}
	for _, inst := range goldenInstances {
		prob, err := probgen.MustFeasible(sim.NewRand(inst.seed), inst.spec)
		if err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		sp := prob.Sparsity()
		if full := sp.NNZ() == sp.C*sp.N; full != inst.full {
			t.Fatalf("%s: full mask = %v, want %v", inst.name, full, inst.full)
		}
		for _, eng := range goldenEngines {
			res, err := eng.mk().Solve(prob)
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.name, eng.name, err)
			}
			got := goldenRow{inst.name, eng.name, res.Iterations, math.Float64bits(res.Objective), historyHash(res.History)}
			literal := fmt.Sprintf("{%q, %q, %d, %#x, %#x},", got.instance, got.engine, got.iterations, got.objective, got.history)
			w, ok := want[inst.name+"/"+eng.name]
			if !ok {
				t.Errorf("no golden row; computed %s", literal)
				continue
			}
			if got.iterations != w.iterations {
				t.Errorf("%s/%s: %d iterations, golden %d; computed %s", inst.name, eng.name, got.iterations, w.iterations, literal)
				continue
			}
			if !inst.full && eng.name != "ADMM" {
				if got != w {
					t.Errorf("%s/%s: masked result not bit-identical to golden; computed %s", inst.name, eng.name, literal)
				}
				continue
			}
			ref := math.Float64frombits(w.objective)
			if gap := math.Abs(res.Objective - ref); gap > 1e-9*(1+math.Abs(ref)) {
				t.Errorf("%s/%s: objective %v vs golden %v (gap %g)", inst.name, eng.name, res.Objective, ref, gap)
			}
		}
	}
}
