// Quickstart: bring up a three-replica EDR fleet in-process, submit
// demands from four clients, run one LDDM scheduling round, and download
// the selected bytes — the smallest end-to-end tour of the system.
//
//	go run ./examples/quickstart
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
	// One in-process fabric hosts everything; swap in
	// transport.NewTCPNetwork() and host:port addresses for a real
	// deployment (see cmd/edrd).
	net := transport.NewInProcNetwork()

	// Three replicas in regions with very different electricity prices.
	prices := map[string]float64{"replica-oregon": 2, "replica-virginia": 9, "replica-texas": 5}
	names := []string{"replica-oregon", "replica-virginia", "replica-texas"}
	var replicas []*core.ReplicaServer
	for _, name := range names {
		rs, err := core.NewReplicaServer(net, name, names, core.ReplicaConfig{
			Replica:   model.NewReplica(name, prices[name]),
			Algorithm: core.LDDM,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		replicas = append(replicas, rs)
	}
	fmt.Println("fleet:", replicas[0].Ring().Snapshot())

	// Four clients, each asking for a different amount of data. Every
	// client reports its measured latency to each replica; all are within
	// the 1.8 ms tolerance here.
	latencies := map[string]float64{}
	for _, name := range names {
		latencies[name] = 0.0005
	}
	ctx := context.Background()
	demands := map[string]float64{"alice": 30, "bob": 15, "carol": 25, "dave": 10}
	var clients []*core.Client
	for name, demand := range demands {
		cl, err := core.NewClient(net, name)
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Submit(ctx, "replica-oregon", demand, latencies); err != nil {
			log.Fatal(err)
		}
		clients = append(clients, cl)
	}

	// Any replica with pending requests can initiate the round; the
	// optimization itself is distributed (replicas solve local problems
	// against multipliers the initiator steps each iteration).
	report, err := replicas[0].RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round %d via %s converged in %d distributed iterations; total energy cost %.1f\n",
		report.Round, report.Algorithm, report.Iterations, report.Objective)
	for j, addr := range report.ReplicaAddrs {
		load := 0.0
		for i := range report.ClientAddrs {
			load += report.Assignment[i][j]
		}
		fmt.Printf("  %-18s price %2.0f ¢/kWh  serves %6.1f MB\n", addr, prices[addr], load)
	}

	// Clients receive their split and download from every selected
	// replica in parallel.
	for _, cl := range clients {
		alloc, err := cl.WaitAllocation(ctx)
		if err != nil {
			log.Fatal(err)
		}
		n, err := cl.Download(ctx, alloc)
		if err != nil {
			log.Fatal(err)
		}
		selected := 0
		for _, mb := range alloc.PerReplicaMB {
			if mb > 0 {
				selected++
			}
		}
		fmt.Printf("  %-6s downloaded %5d payload bytes from %d replicas\n",
			cl.Addr(), n, selected)
	}
}
