// Package edr_test benchmarks every paper artifact this module
// regenerates (one benchmark per table/figure — see DESIGN.md §4 and
// cmd/edr-bench for the figure data itself) plus the micro-operations the
// solvers are built from. Run:
//
//	go test -bench=. -benchmem
package edr_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/central"
	"edr/internal/core"
	"edr/internal/donar"
	"edr/internal/experiments"
	"edr/internal/lddm"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// --- One benchmark per paper artifact -----------------------------------

func benchExperiment(b *testing.B, id string) {
	run, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ModelEval regenerates the Table I instantiation.
func BenchmarkTable1ModelEval(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig3PowerProfileCDPSM regenerates the CDPSM power profiles.
func BenchmarkFig3PowerProfileCDPSM(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4PowerProfileLDDM regenerates the LDDM power profiles.
func BenchmarkFig4PowerProfileLDDM(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5Convergence regenerates the convergence comparison.
func BenchmarkFig5Convergence(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6VideoStreaming regenerates the per-replica video costs.
func BenchmarkFig6VideoStreaming(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7DFS regenerates the per-replica DFS costs.
func BenchmarkFig7DFS(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8TotalEnergySingleRun measures one randomized configuration
// of the Fig 8 sweep (the full 40-run sweep is cmd/edr-bench territory —
// here one run keeps the regression signal per-op).
func BenchmarkFig8TotalEnergySingleRun(b *testing.B) {
	r := sim.NewRand(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prob, err := probgen.MustFeasible(r.Split(), probgen.Spec{Clients: 10, Replicas: 8, Geo: true})
		if err != nil {
			b.Fatal(err)
		}
		ld := lddm.New()
		ld.MaxIters = 250
		if _, err := ld.Solve(prob); err != nil {
			b.Fatal(err)
		}
		cd := cdpsm.New()
		cd.MaxIters = 250
		if _, err := cd.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEDRRound measures one live EDR scheduling round (96 requests,
// 3 replicas, LDDM over the in-process fabric) — the unit of work behind
// every Fig 9 data point, without the injected link delays. When
// observed is true the full telemetry stack is on: instrumented fabric,
// subscribed bus, collector minting Prometheus series and trajectories.
// Comparing the two guards the zero-overhead-when-off contract:
//
//	go test -bench 'Fig9EDRRound' -benchmem
func benchEDRRound(b *testing.B, observed bool) {
	const count = 96
	prices := []float64{3, 7, 12}
	names := []string{"replica1", "replica2", "replica3"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var net transport.Network = transport.NewInProcNetwork()
		var bus *telemetry.Bus
		if observed {
			bus = telemetry.NewBus()
			collector := telemetry.NewCollector(telemetry.DefaultRoundLog)
			collector.Attach(bus)
			net = transport.NewInstrumented(net, collector.Registry, bus)
		}
		var replicas []*core.ReplicaServer
		for j, price := range prices {
			cfg := core.ReplicaConfig{
				Replica:   model.NewReplica(names[j], price),
				Algorithm: core.LDDM,
				MaxIters:  12,
				Tol:       0.2,
				Telemetry: bus,
			}
			rs, err := core.NewReplicaServer(net, names[j], names, cfg)
			if err != nil {
				b.Fatal(err)
			}
			replicas = append(replicas, rs)
		}
		lat := map[string]float64{"replica1": 0.0005, "replica2": 0.0005, "replica3": 0.0005}
		ctx := context.Background()
		var clients []*core.Client
		for c := 0; c < count; c++ {
			cl, err := core.NewClient(net, fmt.Sprintf("client%d", c+1))
			if err != nil {
				b.Fatal(err)
			}
			clients = append(clients, cl)
		}
		b.StartTimer()
		for _, cl := range clients {
			if err := cl.Submit(ctx, "replica1", 1.0, lat); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := replicas[0].RunRound(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, cl := range clients {
			cl.Close()
		}
		for _, rs := range replicas {
			rs.Close()
		}
		b.StartTimer()
	}
}

// BenchmarkFig9EDRRound is the unobserved baseline: no bus, no metric
// registry, no transport wrapper — the default production hot path.
func BenchmarkFig9EDRRound(b *testing.B) { benchEDRRound(b, false) }

// BenchmarkFig9EDRRoundTelemetry runs the identical round with the admin
// plane's whole pipeline live (minus the HTTP listener, which is off the
// round path entirely).
func BenchmarkFig9EDRRoundTelemetry(b *testing.B) { benchEDRRound(b, true) }

// BenchmarkSteadyStateRound measures back-to-back scheduling rounds on one
// long-lived unobserved fleet at paper scale (100 clients, 10 replicas) —
// the steady state a deployed initiator sits in. Unlike benchEDRRound, the
// fleet is built once outside the timer, so the per-op allocation figure
// isolates the round hot path itself: the number this guards is what the
// engine's buffer pool (opt.Pool) exists to keep flat across rounds. The
// kernels are serial; the round's replicas step concurrently, one
// engine.Driver sender each, so GOMAXPROCS sets how many run at once.
func BenchmarkSteadyStateRound(b *testing.B) {
	const nReplicas = 10
	prices := []float64{3, 7, 12, 5, 9, 2, 14, 6, 11, 4}[:nReplicas]
	names := make([]string, nReplicas)
	for j := range names {
		names[j] = fmt.Sprintf("replica%d", j+1)
	}
	net := transport.NewInProcNetwork()
	var replicas []*core.ReplicaServer
	for j, price := range prices {
		cfg := core.ReplicaConfig{
			Replica:   model.NewReplica(names[j], price),
			Algorithm: core.LDDM,
			MaxIters:  12,
			Tol:       0.2,
		}
		rs, err := core.NewReplicaServer(net, names[j], names, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer rs.Close()
		replicas = append(replicas, rs)
	}
	const count = 100
	ctx := context.Background()
	lat := make(map[string]float64, nReplicas)
	for _, name := range names {
		lat[name] = 0.0005
	}
	var clients []*core.Client
	for c := 0; c < count; c++ {
		cl, err := core.NewClient(net, fmt.Sprintf("client%d", c+1))
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		clients = append(clients, cl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cl := range clients {
			if err := cl.Submit(ctx, "replica1", 1.0, lat); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := replicas[0].RunRound(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver benchmarks (paper-scale instances) --------------------------

func paperScaleProblem(b *testing.B, seed uint64) *opt.Problem {
	b.Helper()
	prob, err := probgen.MustFeasible(sim.NewRand(seed), probgen.Spec{
		Clients:  12,
		Replicas: 8,
		Prices:   []float64{1, 8, 1, 6, 1, 5, 2, 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// solveScaleProblem builds the larger instance the Solve benchmarks run
// on: C=100 clients over N=10 replicas, with a geographic latency mask.
func solveScaleProblem(b *testing.B, seed uint64) *opt.Problem {
	b.Helper()
	prob, err := probgen.MustFeasible(sim.NewRand(seed), probgen.Spec{
		Clients: 100, Replicas: 10, Geo: true, DemandLo: 1, DemandHi: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// BenchmarkSolve measures each distributed solver's full Solve on the
// C=100, N=10 instance with iteration bounds held fixed, so ns/op tracks
// per-iteration kernel cost: the serial kernels plus the loopback round
// that carries each iteration's wave to the in-process replicas.
func BenchmarkSolve(b *testing.B) {
	prob := solveScaleProblem(b, 2026)
	b.Run("LDDM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := lddm.New()
			s.MaxIters = 400
			if _, err := s.Solve(prob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CDPSM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := cdpsm.New()
			s.MaxIters = 25
			if _, err := s.Solve(prob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ADMM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := admm.New()
			s.MaxIters = 60
			if _, err := s.Solve(prob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolverLDDM runs the LDDM engine on the paper-scale instance.
func BenchmarkSolverLDDM(b *testing.B) {
	prob := paperScaleProblem(b, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lddm.New().Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverCDPSM runs the CDPSM engine on the paper-scale instance.
func BenchmarkSolverCDPSM(b *testing.B) {
	prob := paperScaleProblem(b, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := cdpsm.New()
		s.MaxIters = 300
		if _, err := s.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverCentral runs the centralized reference.
func BenchmarkSolverCentral(b *testing.B) {
	prob := paperScaleProblem(b, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := central.New().Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverDONAR runs the DONAR comparator.
func BenchmarkSolverDONAR(b *testing.B) {
	prob := paperScaleProblem(b, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := donar.New().Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks ----------------------------------------------------

// BenchmarkProjectSimplex measures the sort-based simplex projection.
func BenchmarkProjectSimplex(b *testing.B) {
	r := sim.NewRand(2)
	x := make([]float64, 64)
	src := make([]float64, 64)
	scratch := make([]float64, 64)
	for i := range src {
		src[i] = r.Range(-10, 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		opt.ProjectSimplexScratch(x, scratch, 25)
	}
}

// BenchmarkProjectCappedSimplex measures the bisection projection.
func BenchmarkProjectCappedSimplex(b *testing.B) {
	r := sim.NewRand(3)
	x := make([]float64, 64)
	src := make([]float64, 64)
	u := make([]float64, 64)
	for i := range src {
		src[i] = r.Range(-10, 10)
		u[i] = r.Range(0.5, 5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		if err := opt.ProjectCappedSimplex(x, u, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectFeasible measures the Dykstra feasible-set projection on
// the paper-scale polytope.
func BenchmarkProjectFeasible(b *testing.B) {
	prob := paperScaleProblem(b, 4)
	start, err := prob.UniformStart()
	if err != nil {
		b.Fatal(err)
	}
	x := opt.Clone(start)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Copy(x, start)
		opt.Scale(x, 1.7) // push it off the polytope
		if err := opt.ProjectFeasible(prob, x, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaterFilling measures one LDDM local solve at paper shape: a
// replica reaching 70 of 100 clients, with multipliers near the round's
// equilibrium so the fill stops after about 10 of them (reported as
// served/op).
func BenchmarkWaterFilling(b *testing.B) {
	r := sim.NewRand(5)
	const c = 100
	lp := &lddm.LocalProblem{
		Replica: model.NewReplica("r", 3),
		Mu:      make([]float64, c),
		Demands: make([]float64, c),
	}
	for i := 0; i < c; i++ {
		lp.Mu[i] = r.Range(-140, -20)
		lp.Demands[i] = r.Range(1, 6)
		if i%10 < 7 {
			lp.Clients = append(lp.Clients, i)
		}
	}
	p, err := lddm.SolveLocal(lp)
	if err != nil {
		b.Fatal(err)
	}
	served := 0
	for _, v := range p {
		if v > 0 {
			served++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if waterFillingSink, err = lddm.SolveLocal(lp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(served), "served/op")
}

// waterFillingSink keeps the benchmarked solve observable.
var waterFillingSink []float64

// BenchmarkMaxFlowFeasibility measures the feasibility oracle.
func BenchmarkMaxFlowFeasibility(b *testing.B) {
	prob := paperScaleProblem(b, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := opt.CheckFeasible(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrixWireBytes round-trips the frame each CDPSM replica returns
// every iteration — the packed estimate of a fully feasible 100×10
// instance, 1 000 values — through the wire codec, reporting bytes/frame.
func BenchmarkMatrixWireBytes(b *testing.B) {
	r := sim.NewRand(7)
	est := make([]float64, 100*10)
	for k := range est {
		est[k] = r.Range(0, 40)
	}
	body := cdpsm.StepReply{Estimate: est}
	bench := func(b *testing.B, msg transport.Message) {
		var buf bytes.Buffer
		if err := transport.WriteFrame(&buf, msg); err != nil {
			b.Fatal(err)
		}
		frameBytes := float64(buf.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := transport.WriteFrame(&buf, msg); err != nil {
				b.Fatal(err)
			}
			got, err := transport.ReadFrame(&buf)
			if err != nil {
				b.Fatal(err)
			}
			var back cdpsm.StepReply
			if err := got.DecodeBody(&back); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(frameBytes, "bytes/frame")
	}
	b.Run("Binary", func(b *testing.B) {
		msg, err := transport.NewMessage(cdpsm.MsgStep+".ack", "replica1", body)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, msg)
	})
}

// BenchmarkWireCodec measures one frame round-trip of the TCP codec.
func BenchmarkWireCodec(b *testing.B) {
	payload := make([]float64, 96*3)
	msg, err := transport.NewMessage("replica.solution", "replica1", payload)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := transport.WriteFrame(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
