// Command edrd runs one EDR replica server: it listens for client
// requests, participates in the ring fault-tolerance protocol with its
// peers, and periodically initiates distributed scheduling rounds over the
// pending requests using LDDM or CDPSM.
//
// A three-replica fleet on one machine:
//
//	edrd -listen 127.0.0.1:7001 -peers 127.0.0.1:7002,127.0.0.1:7003 -price 1
//	edrd -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7003 -price 8
//	edrd -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002 -price 3
//
// then submit demand with edrctl. Pass -admin 127.0.0.1:9090 to expose
// the telemetry plane (/metrics, /healthz, /status, /debug/rounds).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edr/internal/core"
	"edr/internal/engine"
	"edr/internal/membership"
	"edr/internal/model"
	"edr/internal/telemetry"
	"edr/internal/telemetry/admin"
	"edr/internal/transport"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7001", "address to bind (host:port)")
		peers     = flag.String("peers", "", "comma-separated peer replica addresses")
		price     = flag.Float64("price", 5, "electricity price u_n in ¢/kWh")
		bandwidth = flag.Float64("bandwidth", 100, "bandwidth capacity B_n in MB/s")
		alpha     = flag.Float64("alpha", model.DefaultAlpha, "server-energy weight α_n")
		beta      = flag.Float64("beta", model.DefaultBeta, "network-energy weight β_n")
		gamma     = flag.Float64("gamma", model.DefaultGamma, "network-energy degree γ_n")
		algorithm = flag.String("algorithm", "LDDM", "scheduling algorithm: "+strings.Join(engine.Names(), ", "))
		window    = flag.Duration("batch-window", 2*time.Second, "how often to run a scheduling round over pending requests")
		join      = flag.String("join", "", "live fleet member to join through (proposes this node into the cluster epoch at startup)")

		// Energy-aware elasticity (the autoscaler drains the priciest
		// replica when the fleet idles and powers drained ones back up
		// under load, with hysteresis; see internal/membership.Policy).
		autoscale = flag.Bool("autoscale", false, "evaluate the energy-aware scale policy after every round this node initiates")
		scaleLow  = flag.Float64("scale-low", 0, "utilization floor below which the fleet scales in (0 = default 0.30)")
		scaleHigh = flag.Float64("scale-high", 0, "utilization ceiling above which the fleet scales out (0 = default 0.75)")
		adminAddr = flag.String("admin", "", "admin-plane bind address (e.g. 127.0.0.1:9090); empty disables telemetry at zero cost")
		roundLog  = flag.Int("round-log", telemetry.DefaultRoundLog, "round reports retained for /debug/rounds")
		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "ring heartbeat interval")
		maxIters  = flag.Int("max-iters", 200, "distributed iteration bound per round")

		// Client-scale cohort aggregation (internal/cohort): rounds with at
		// least -cohort-min pending requests merge clients sharing a
		// feasibility mask into virtual clients, solve at cohort
		// granularity, and disaggregate back to exact per-client
		// allocations.
		cohortMin = flag.Int("cohort-min", 0, "pending-request threshold that enables cohort aggregation (0 disables)")

		// Cross-round incremental re-optimization: diff each round against
		// the committed one and re-solve only the clients that drifted,
		// suppressing notifies for clients whose allocation barely moved.
		incremental = flag.Bool("incremental", false, "re-solve only the dirty client subset on steady-state rounds")
		deltaEps    = flag.Float64("delta-eps", 0, "relative drift threshold for the incremental diff and notify suppression (0 = 1e-3)")

		// Transient-fault tolerance knobs.
		rpcTimeout   = flag.Duration("rpc-timeout", 3*time.Second, "deadline per coordination RPC attempt; a first attempt's clock starts with its fan-out wave (lower it when injecting faults: a black-holed send stalls this long)")
		sendRetries  = flag.Int("send-retries", 2, "coordination RPC retries before a failure is attributed to the peer (-1 disables)")
		retryBase    = flag.Duration("retry-base", 50*time.Millisecond, "backoff before the first RPC retry; doubles per attempt with jitter")
		roundRetries = flag.Int("round-retries", 3, "round restarts after member failures before degrading (-1 disables)")
		suspectAfter = flag.Int("suspect-after", 3, "consecutive missed heartbeats before a successor is declared dead")

		// Fault injection (testing only): wraps the TCP fabric when any is
		// set, so a fleet can rehearse loss, latency, and duplication.
		faultDrop   = flag.Float64("fault-drop", 0, "probability [0,1) an outgoing RPC is black-holed")
		faultDup    = flag.Float64("fault-dup", 0, "probability [0,1) an outgoing RPC is duplicated")
		faultDelay  = flag.Duration("fault-delay", 0, "fixed extra latency per outgoing RPC")
		faultJitter = flag.Duration("fault-jitter", 0, "random extra latency in [0, jitter) per outgoing RPC")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for the fault-injection RNG")
	)
	flag.Parse()

	alg, err := core.ParseAlgorithm(*algorithm)
	if err != nil {
		log.Fatal(err)
	}
	rep := model.Replica{
		Name:      *listen,
		Price:     *price,
		Alpha:     *alpha,
		Beta:      *beta,
		Gamma:     *gamma,
		Bandwidth: *bandwidth,
	}
	var members []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			members = append(members, p)
		}
	}
	var network transport.Network = transport.NewTCPNetwork()
	if *faultDrop > 0 || *faultDup > 0 || *faultDelay > 0 || *faultJitter > 0 {
		faulty := transport.NewFaultyNetwork(network, *faultSeed)
		faulty.SetDefault(transport.Faults{
			Drop:   *faultDrop,
			Dup:    *faultDup,
			Delay:  *faultDelay,
			Jitter: *faultJitter,
		})
		network = faulty
		log.Printf("edrd: fault injection on (drop %g, dup %g, delay %s, jitter %s, seed %d)",
			*faultDrop, *faultDup, *faultDelay, *faultJitter, *faultSeed)
	}
	// Observability is opt-in: without -admin there is no bus, no metric
	// registry, and no transport wrapper — the round hot path pays only
	// nil checks (see the benchmark pair in bench_test.go).
	var (
		bus       *telemetry.Bus
		collector *telemetry.Collector
	)
	if *adminAddr != "" {
		bus = telemetry.NewBus()
		collector = telemetry.NewCollector(*roundLog)
		collector.Attach(bus)
		// Instrumented wraps outermost so injected faults are counted too.
		network = transport.NewInstrumented(network, collector.Registry, bus)
		transport.RegisterTCPStats(collector.Registry)
	}
	server, err := core.NewReplicaServer(network, *listen, members, core.ReplicaConfig{
		Replica:      rep,
		Algorithm:    alg,
		MaxIters:     *maxIters,
		RPCTimeout:   *rpcTimeout,
		SendRetries:  *sendRetries,
		RetryBase:    *retryBase,
		RoundRetries: *roundRetries,
		Telemetry:    bus,

		CohortMinClients: *cohortMin,

		Incremental: *incremental,
		DeltaEps:    *deltaEps,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	if *adminAddr != "" {
		server.RegisterMetrics(collector.Registry)
		adminSrv, err := admin.Serve(*adminAddr, admin.Config{
			Registry: collector.Registry,
			Status:   func() any { return server.Status() },
			Rounds:   collector.Rounds,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer adminSrv.Close()
		log.Printf("edrd: admin plane on http://%s (/metrics /healthz /status /debug/rounds /debug/pprof/)", adminSrv.Addr())
	}

	server.Monitor().Interval = *heartbeat
	server.Monitor().SuspectAfter = *suspectAfter
	server.Monitor().OnFailure = func(dead string) {
		log.Printf("ring: member %s declared dead; ring now %s", dead, server.Ring().Snapshot())
	}
	server.Monitor().Start()
	log.Printf("edrd: replica %s up (price %g ¢/kWh, B %g MB/s, %s); ring %s",
		server.Addr(), *price, *bandwidth, alg, server.Ring().Snapshot())

	ctx, cancel := context.WithCancel(context.Background())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Println("edrd: shutting down")
		cancel()
	}()

	if *join != "" {
		epoch, err := server.Membership().JoinVia(ctx, *join)
		if err != nil {
			log.Fatalf("edrd: join via %s: %v", *join, err)
		}
		log.Printf("edrd: joined epoch %d via %s; ring %s", epoch.Seq, *join, server.Ring().Snapshot())
	}

	var policy *membership.Policy
	if *autoscale {
		policy = &membership.Policy{LowUtil: *scaleLow, HighUtil: *scaleHigh}
	}
	server.ServeRounds(ctx, *window,
		func(report *core.RoundReport) {
			extra := ""
			if report.WarmStarted {
				extra = " (warm-started)"
			}
			if report.Cohorts > 0 {
				extra += fmt.Sprintf(" [%d cohorts, %.1fx]", report.Cohorts, report.CohortRatio)
			}
			if report.Incremental {
				extra += fmt.Sprintf(" [incremental dirty %d/%d, gap %.2g, suppressed %.0f%%]",
					report.DirtyClients, len(report.ClientAddrs), report.SubsolveGap,
					100*float64(report.SuppressedNotifies)/math.Max(1, float64(len(report.ClientAddrs))))
			}
			if report.Degraded {
				extra = " DEGRADED (last-good fallback)"
			}
			log.Printf("round %d (%s): %d clients over %d replicas in %d iterations, cost %.2f, restarts %d%s",
				report.Round, report.Algorithm, len(report.ClientAddrs), len(report.ReplicaAddrs),
				report.Iterations, report.Objective, report.Restarts, extra)
			if policy != nil {
				d, applied, err := server.AutoScale(ctx, policy)
				switch {
				case err != nil:
					log.Printf("autoscale: %s %s failed: %v", d.Action, d.Target, err)
				case applied:
					log.Printf("autoscale: %s %s (utilization %.2f, %s); epoch %d",
						d.Action, d.Target, d.Util, d.Reason, server.Membership().Current().Seq)
				}
			}
		},
		func(err error) { log.Printf("round failed: %v", err) },
	)
}
