// Fault tolerance: EDR's ring structure under injected faults (paper
// §III-C plus this module's transient-fault hysteresis). A four-replica
// fleet runs on a fault-injection fabric and faces three escalating
// failures:
//
//  1. a transient link fault — heartbeats miss, the successor is
//     suspected but NOT declared dead, and the suspicion clears when the
//     link heals;
//
//  2. a full partition that outlasts the round's retry budget — the
//     round degrades to the last-known-good assignment over the
//     reachable replicas instead of failing or falsely pruning;
//
//  3. a real crash — after SuspectAfter consecutive missed heartbeats
//     the member is declared dead, pruned everywhere, and scheduling
//     continues on the survivors without client involvement.
//
//     go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"edr/internal/core"
	"edr/internal/model"
	"edr/internal/transport"
)

func main() {
	// Wrap the in-process fabric with seeded fault injection.
	net := transport.NewFaultyNetwork(transport.NewInProcNetwork(), 42)
	names := []string{"r1", "r2", "r3", "r4"}
	prices := []float64{2, 8, 4, 6}
	var replicas []*core.ReplicaServer
	for i, name := range names {
		rs, err := core.NewReplicaServer(net, name, names, core.ReplicaConfig{
			Replica:   model.NewReplica(name, prices[i]),
			Algorithm: core.LDDM,
			// Short RPC budget with two retries per send, and no round
			// restarts: a member that stays unreachable degrades the round
			// rather than getting pruned by the initiator. Only the
			// heartbeat protocol (3 consecutive misses) declares death.
			RPCTimeout:   150 * time.Millisecond,
			SendRetries:  1,
			RetryBase:    20 * time.Millisecond,
			RoundRetries: -1,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		rs.Monitor().Timeout = 100 * time.Millisecond
		rs.Monitor().OnFailure = func(dead string) {
			fmt.Printf("  [%s] member %s declared dead; ring now %s\n",
				name, dead, rs.Ring().Snapshot())
		}
		replicas = append(replicas, rs)
	}
	fmt.Println("initial ring:", replicas[0].Ring().Snapshot())

	ctx := context.Background()
	latencies := map[string]float64{}
	for _, n := range names {
		latencies[n] = 0.0005
	}
	client, err := core.NewClient(net, "client")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	submit := func() {
		if err := client.Submit(ctx, "r1", 40, latencies); err != nil {
			log.Fatal(err)
		}
	}
	collect := func() core.AllocationBody {
		alloc, err := client.WaitAllocation(ctx)
		if err != nil {
			log.Fatal(err)
		}
		return alloc
	}

	// Round 1: everyone healthy.
	submit()
	report, err := replicas[0].RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round %d used %d replicas (degraded: %v)\n",
		report.Round, len(report.ReplicaAddrs), report.Degraded)
	collect()

	// Failure 1: a transient fault on the r2→r3 heartbeat link. Two
	// missed beats raise suspicion but stay below the threshold of 3, so
	// the ring does not shrink on a glitch.
	fmt.Println("\n*** transient fault: r2→r3 link black-holed ***")
	net.SetLink("r2", "r3", transport.Faults{Cut: true})
	replicas[1].Monitor().Beat()
	replicas[1].Monitor().Beat()
	suspect, misses := replicas[1].Monitor().Suspicion()
	fmt.Printf("r2 has suspected successor %s after %d missed heartbeats — not dead yet\n", suspect, misses)
	net.ClearLink("r2", "r3")
	replicas[1].Monitor().Beat()
	suspect, misses = replicas[1].Monitor().Suspicion()
	fmt.Printf("link healed; suspicion cleared (suspect=%q, misses=%d); ring still %s\n",
		suspect, misses, replicas[1].Ring().Snapshot())

	// Failure 2: r4 is fully partitioned away for longer than the round's
	// retry budget. The round falls back to the last-known-good
	// assignment over the reachable replicas and reports Degraded.
	fmt.Println("\n*** partition: r4 unreachable for a whole round ***")
	net.Partition([]string{"r4"}, []string{"r1", "r2", "r3"})
	submit()
	report, err = replicas[0].RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round %d degraded: %v — reused last-good split over %v\n",
		report.Round, report.Degraded, report.ReplicaAddrs)
	if collect().MB("r4") > 0 {
		log.Fatal("degraded allocation still points at the partitioned replica!")
	}
	fmt.Println("degraded round kept every MB of demand served; r4 was not falsely pruned")
	net.Heal()

	// Failure 3: r3 actually crashes. Its predecessor's heartbeats miss
	// three times in a row — now it is declared dead and pruned.
	fmt.Println("\n*** crash: r3 goes down for good ***")
	net.Crash("r3")
	for i := 0; i < 3; i++ {
		replicas[1].Monitor().Beat()
	}

	// Round 3: re-scheduled on the pruned ring, back to full quality.
	submit()
	report, err = replicas[0].RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round %d used %d replicas (degraded: %v); survivors: %v\n",
		report.Round, len(report.ReplicaAddrs), report.Degraded, report.ReplicaAddrs)
	if collect().MB("r3") > 0 {
		log.Fatal("dead replica still selected!")
	}
	stats := net.Stats()
	fmt.Printf("\nfabric stats: %d sends, %d cut off, %d refused by crashed nodes\n",
		stats.Sent, stats.CutOff, stats.Refused)
	fmt.Println("client allocation avoids the dead replica — service continued uninterrupted")
}
