// Algorithms: run the same request batch through all three distributed
// optimizers on live fleets — LDDM and CDPSM from the paper, plus the
// sharing-ADMM extension — and compare decision quality, iteration
// counts, and coordination traffic.
//
//	go run ./examples/algorithms
package main

import (
	"context"
	"fmt"
	"log"

	"edr/internal/core"
	"edr/internal/model"
	"edr/internal/transport"
)

func main() {
	prices := []float64{1, 8, 3, 12}
	demands := []float64{35, 20, 45, 15, 25}

	fmt.Printf("%-7s %14s %12s %16s %12s\n",
		"algo", "energy cost", "iterations", "coord messages", "restarts")
	for _, alg := range []core.Algorithm{core.LDDM, core.CDPSM, core.ADMM} {
		report, coordMsgs, err := runFleet(alg, prices, demands)
		if err != nil {
			log.Fatalf("%v: %v", alg, err)
		}
		fmt.Printf("%-7s %14.1f %12d %16d %12d\n",
			report.Algorithm, report.Objective, report.Iterations, coordMsgs, report.Restarts)
	}
	fmt.Println("\nAll three converge to (nearly) the same energy-cost optimum; they differ")
	fmt.Println("in how much coordination that decision takes. CDPSM ships a full solution")
	fmt.Println("estimate to and from every replica every iteration; LDDM and ADMM exchange")
	fmt.Println("only per-client scalars, with ADMM's proximal damping needing the fewest")
	fmt.Println("iterations.")
}

// runFleet boots a fresh fleet for one algorithm and runs one round.
func runFleet(alg core.Algorithm, prices, demands []float64) (*core.RoundReport, int64, error) {
	net := transport.NewInProcNetwork()
	names := make([]string, len(prices))
	for j := range prices {
		names[j] = fmt.Sprintf("replica%d", j+1)
	}
	var replicas []*core.ReplicaServer
	for j, price := range prices {
		rs, err := core.NewReplicaServer(net, names[j], names, core.ReplicaConfig{
			Replica:   model.NewReplica(names[j], price),
			Algorithm: alg,
			MaxIters:  400,
		})
		if err != nil {
			return nil, 0, err
		}
		defer rs.Close()
		replicas = append(replicas, rs)
	}
	latencies := map[string]float64{}
	for _, n := range names {
		latencies[n] = 0.0005
	}
	ctx := context.Background()
	for i, demand := range demands {
		cl, err := core.NewClient(net, fmt.Sprintf("client%d", i+1))
		if err != nil {
			return nil, 0, err
		}
		defer cl.Close()
		if err := cl.Submit(ctx, names[0], demand, latencies); err != nil {
			return nil, 0, err
		}
	}
	report, err := replicas[0].RunRound(ctx)
	if err != nil {
		return nil, 0, err
	}
	coord := int64(0)
	for _, rs := range replicas {
		coord += rs.Stats.CoordMessages.Value()
	}
	return report, coord, nil
}
