package core

import (
	"context"
	"testing"

	"edr/internal/central"
	"edr/internal/model"
	"edr/internal/opt"
)

// rebuildProblem reconstructs the optimization instance a test fleet's
// round solved, so the live result can be scored against a reference.
func rebuildProblem(t *testing.T, prices []float64, report *RoundReport, demandOf map[string]float64) *opt.Problem {
	t.Helper()
	replicas := make([]model.Replica, len(report.ReplicaAddrs))
	// Fleet replicas are named replica<i>; recover each column's price by
	// matching addresses against creation order names.
	for j, addr := range report.ReplicaAddrs {
		var price float64
		found := false
		for i := range prices {
			if replicaName(i) == addr {
				price = prices[i]
				found = true
			}
		}
		if !found {
			t.Fatalf("unknown replica address %q", addr)
		}
		replicas[j] = model.NewReplica(addr, price)
	}
	sys, err := model.NewSystem(replicas)
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]float64, len(report.ClientAddrs))
	lat := opt.NewMatrix(len(report.ClientAddrs), len(replicas))
	for i, addr := range report.ClientAddrs {
		d, ok := demandOf[addr]
		if !ok {
			t.Fatalf("unknown client address %q", addr)
		}
		demands[i] = d
		for j := range replicas {
			lat[i][j] = 0.0005
		}
	}
	return &opt.Problem{System: sys, Demands: demands, Latency: lat, MaxLatency: 0.0018}
}

// The live message-passing LDDM round must land within a few percent of
// the Frank-Wolfe reference optimum on the same instance — the end-to-end
// correctness check tying the runtime to the optimization theory.
func TestLiveLDDMRoundNearOptimal(t *testing.T) {
	prices := []float64{1, 9, 4}
	f := newFleet(t, prices, 4, LDDM)
	// Raise the live iteration budget for reference-grade quality.
	for _, rs := range f.replicas {
		rs.cfg.MaxIters = 800
		rs.cfg.Tol = 0.005
	}
	ctx := context.Background()
	demandOf := map[string]float64{}
	for i, cl := range f.clients {
		d := float64(15 + 10*i)
		demandOf[cl.Addr()] = d
		if err := cl.Submit(ctx, f.replicas[0].Addr(), d, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prob := rebuildProblem(t, prices, report, demandOf)
	if v := prob.Violation(report.Assignment); v > 1e-4 {
		t.Fatalf("live assignment violates rebuilt instance by %g", v)
	}
	ref, err := central.NewFrankWolfe().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	liveCost := prob.Cost(report.Assignment)
	if liveCost > ref.Objective*1.05+1e-6 {
		t.Fatalf("live LDDM %.2f vs reference %.2f (>5%% gap)", liveCost, ref.Objective)
	}
	// The report's own objective must agree with the rebuilt instance.
	if rel := (report.Objective - liveCost) / liveCost; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("report objective %.4f vs rebuilt %.4f", report.Objective, liveCost)
	}
}

// Same check for the live CDPSM round.
func TestLiveCDPSMRoundNearOptimal(t *testing.T) {
	prices := []float64{2, 7, 3}
	f := newFleet(t, prices, 3, CDPSM)
	for _, rs := range f.replicas {
		rs.cfg.MaxIters = 400
		rs.cfg.Tol = 1e-4
	}
	ctx := context.Background()
	demandOf := map[string]float64{}
	for i, cl := range f.clients {
		d := float64(20 + 5*i)
		demandOf[cl.Addr()] = d
		if err := cl.Submit(ctx, f.replicas[0].Addr(), d, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prob := rebuildProblem(t, prices, report, demandOf)
	ref, err := central.NewFrankWolfe().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	liveCost := prob.Cost(report.Assignment)
	if liveCost > ref.Objective*1.06+1e-6 {
		t.Fatalf("live CDPSM %.2f vs reference %.2f (>6%% gap)", liveCost, ref.Objective)
	}
}

// The live ADMM round must also verify against the Frank-Wolfe reference.
func TestLiveADMMRoundNearOptimal(t *testing.T) {
	prices := []float64{1, 9, 4}
	f := newFleet(t, prices, 4, ADMM)
	for _, rs := range f.replicas {
		rs.cfg.MaxIters = 300
		rs.cfg.Tol = 1e-4
	}
	ctx := context.Background()
	demandOf := map[string]float64{}
	for i, cl := range f.clients {
		d := float64(15 + 10*i)
		demandOf[cl.Addr()] = d
		if err := cl.Submit(ctx, f.replicas[0].Addr(), d, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Algorithm != "ADMM" {
		t.Fatalf("algorithm = %q", report.Algorithm)
	}
	prob := rebuildProblem(t, prices, report, demandOf)
	if v := prob.Violation(report.Assignment); v > 1e-4 {
		t.Fatalf("live ADMM assignment violates rebuilt instance by %g", v)
	}
	ref, err := central.NewFrankWolfe().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	liveCost := prob.Cost(report.Assignment)
	if liveCost > ref.Objective*1.05+1e-6 {
		t.Fatalf("live ADMM %.2f vs reference %.2f (>5%% gap)", liveCost, ref.Objective)
	}
}
