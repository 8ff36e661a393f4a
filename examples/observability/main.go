// Observability: the telemetry subsystem end to end. A three-replica
// fleet runs with the full stack edrd -admin wires up — instrumented
// fabric, event bus, Prometheus collector, HTTP admin plane — then this
// program scrapes its own admin endpoints the way Prometheus and
// `edrctl status` would:
//
//  1. a healthy LDDM round, observed live on the bus (per-iteration
//     residual and energy-cost trajectories included);
//
//  2. a crashed replica and a degraded round, visible in the
//     edr_rounds_degraded_total counter and the /status degraded flag;
//
//  3. a /metrics scrape showing round, transport, and histogram series
//     in Prometheus text exposition format.
//
// Run with: go run ./examples/observability
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"edr/internal/core"
	"edr/internal/model"
	"edr/internal/telemetry"
	"edr/internal/telemetry/admin"
	"edr/internal/transport"
)

func main() {
	// The stack, wired exactly like edrd -admin: bus → collector →
	// instrumented fabric, and the bus handed to every replica.
	inner := transport.NewInProcNetwork()
	bus := telemetry.NewBus()
	collector := telemetry.NewCollector(telemetry.DefaultRoundLog)
	collector.Attach(bus)
	var net transport.Network = transport.NewInstrumented(inner, collector.Registry, bus)

	// A second subscriber narrates the event stream live.
	cancel := bus.Subscribe(func(e telemetry.Event) {
		switch ev := e.(type) {
		case telemetry.RoundCompleted:
			fmt.Printf("  event: round %d completed (%s, %d iterations, degraded=%v)\n",
				ev.Round, ev.Algorithm, ev.Iterations, ev.Degraded)
		case telemetry.RoundDegraded:
			fmt.Printf("  event: round %d degraded after %s failed\n", ev.Round, ev.FailedMember)
		}
	})
	defer cancel()

	names := []string{"r1", "r2", "r3"}
	prices := []float64{1, 6, 11}
	var replicas []*core.ReplicaServer
	for i, name := range names {
		rs, err := core.NewReplicaServer(net, name, names, core.ReplicaConfig{
			Replica:      model.NewReplica(name, prices[i]),
			Algorithm:    core.LDDM,
			Telemetry:    bus,
			RPCTimeout:   150 * time.Millisecond,
			SendRetries:  -1,
			RoundRetries: -1,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		replicas = append(replicas, rs)
	}
	replicas[0].RegisterMetrics(collector.Registry)
	plane, err := admin.Serve("127.0.0.1:0", admin.Config{
		Registry: collector.Registry,
		Status:   func() any { return replicas[0].Status() },
		Rounds:   collector.Rounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	base := "http://" + plane.Addr()
	fmt.Println("admin plane listening on", base)

	ctx := context.Background()
	lat := map[string]float64{"r1": 0.0005, "r2": 0.0005, "r3": 0.0005}
	// Clients stay up across rounds to receive their allocations.
	var clients []*core.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	submit := func(n int) {
		for i := 0; i < n; i++ {
			cl, err := core.NewClient(net, fmt.Sprintf("c%d", len(clients)+1))
			if err != nil {
				log.Fatal(err)
			}
			clients = append(clients, cl)
			if err := cl.Submit(ctx, "r1", 10, lat); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\n--- healthy round ---")
	submit(3)
	report, err := replicas[0].RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  trajectory: %d iterations, residual %.4f -> %.4f, cost %.2f -> %.2f\n",
		len(report.Residuals),
		report.Residuals[0], report.Residuals[len(report.Residuals)-1],
		report.Costs[0], report.Costs[len(report.Costs)-1])

	fmt.Println("\n--- crash r3, degraded round ---")
	inner.Crash("r3")
	submit(3)
	if _, err := replicas[0].RunRound(ctx); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- GET /status ---")
	var st core.Status
	getJSON(base+"/status", &st)
	fmt.Printf("  replica %s: %d rounds initiated, degraded=%v, last assignment %dx%d\n",
		st.Addr, st.RoundsInitiated, st.Degraded,
		len(st.LastRound.Assignment), len(st.LastRound.ReplicaAddrs))

	fmt.Println("\n--- GET /metrics (edr_ series) ---")
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	shown := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "edr_rounds") ||
			strings.HasPrefix(line, "edr_round_duration_seconds_count") ||
			strings.HasPrefix(line, "edr_transport_messages_total") {
			fmt.Println(" ", line)
			shown++
		}
	}
	fmt.Printf("(%d samples shown; full exposition at %s/metrics)\n", shown, base)
}

func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}
