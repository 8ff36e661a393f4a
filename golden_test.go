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

// goldenRow is one engine's result on one seeded instance, recorded when
// each Solver became the engine's round run over an in-process
// engine.Loopback — the loop the fleet runs.
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
	{"masked10x4", "LDDM", 342, 0x4089418e57d08f09, 0x3a36a5f08e696ecd},
	{"masked10x4", "ADMM", 31, 0x408941476b0f2d2e, 0x360d9522018c4f1d},
	{"masked10x4", "CDPSM", 60, 0x408941843ceca84c, 0xa9507154835a872b},
	{"masked24x5", "LDDM", 343, 0x409b290e985c5efd, 0x28328999c20b580e},
	{"masked24x5", "ADMM", 23, 0x409b2899dfb6f1fb, 0x312865c4b3a0a079},
	{"masked24x5", "CDPSM", 60, 0x40a317287b96b3a2, 0x264fd106b067682},
	{"full6x4", "LDDM", 232, 0x40b92bac3d7168d8, 0x4ca2489084478b49},
	{"full6x4", "ADMM", 21, 0x40b92848a9b58d3b, 0x4b29bac93cb42e1f},
	{"full6x4", "CDPSM", 60, 0x40baabb261b14cca, 0x24a99becb0d7bf14},
	{"full12x8", "LDDM", 400, 0x40e51cac11ff60c6, 0xb295e560bedd8fd2},
	{"full12x8", "ADMM", 59, 0x40e51c703a324f45, 0xccc1799fa87100c6},
	{"full12x8", "CDPSM", 2, 0x40eb70288a375e3a, 0xc797cdadb8a93527},
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

// TestSolverGolden pins every engine's end result bit for bit: objective,
// iteration count and history. A round's answer does not depend on the
// order its replies land in, so any change here is a change to an
// algorithm.
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
			if got != w {
				t.Errorf("%s/%s: result not bit-identical to golden; computed %s", inst.name, eng.name, literal)
			}
		}
	}
}
