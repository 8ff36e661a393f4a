// Command edrctl is the EDR client: it measures its latency to every
// replica, submits a demand to a contact replica, waits for the fleet's
// scheduling decision, and (optionally) downloads the selected bytes from
// each chosen replica in parallel.
//
//	edrctl -replicas 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -demand 25 -download
//
// The status subcommand queries a replica's admin plane (edrd -admin)
// instead of submitting demand:
//
//	edrctl status -admin 127.0.0.1:9090
//
// The membership subcommands propose live reconfigurations through any
// reachable fleet member (the contact coordinates the epoch change and
// disseminates it):
//
//	edrctl join    -replica 127.0.0.1:7001 -addr 127.0.0.1:7004
//	edrctl drain   -replica 127.0.0.1:7001 -addr 127.0.0.1:7003
//	edrctl undrain -replica 127.0.0.1:7001 -addr 127.0.0.1:7003
//	edrctl remove  -replica 127.0.0.1:7001 -addr 127.0.0.1:7003
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"edr/internal/core"
	"edr/internal/membership"
	"edr/internal/transport"
)

func main() {
	// All work happens in run/runStatus/runMembership, which return errors
	// instead of calling log.Fatal: a Fatal after the client or response
	// body is open would skip the deferred Close.
	var err error
	sub := ""
	if len(os.Args) > 1 {
		sub = os.Args[1]
	}
	switch sub {
	case "status":
		err = runStatus(os.Args[2:])
	case "join":
		err = runMembership(membership.OpJoin, os.Args[2:])
	case "drain":
		err = runMembership(membership.OpDrain, os.Args[2:])
	case "undrain":
		err = runMembership(membership.OpUndrain, os.Args[2:])
	case "remove":
		err = runMembership(membership.OpRemove, os.Args[2:])
	default:
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "edrctl:", err)
		os.Exit(1)
	}
}

// runMembership sends one membership proposal to a contact replica, which
// coordinates the epoch change fleet-wide and returns the committed epoch.
func runMembership(op membership.Op, args []string) error {
	fs := flag.NewFlagSet("edrctl "+string(op), flag.ExitOnError)
	var (
		replica = fs.String("replica", "127.0.0.1:7001", "contact replica coordinating the change (any live member)")
		addr    = fs.String("addr", "", "member address the operation applies to")
		listen  = fs.String("listen", "127.0.0.1:0", "local bind address")
		timeout = fs.Duration("timeout", 10*time.Second, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("%s: -addr is required", op)
	}
	node, err := transport.NewTCPNetwork().Listen(*listen, func(ctx context.Context, m transport.Message) (transport.Message, error) {
		return transport.Message{}, fmt.Errorf("edrctl: unexpected message %q", m.Type)
	})
	if err != nil {
		return err
	}
	defer node.Close()
	req, err := transport.NewMessage(membership.ProposeType, node.Name(), membership.ProposeBody{Op: op, Addr: *addr})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := node.Send(ctx, *replica, req)
	if err != nil {
		return err
	}
	var e membership.Epoch
	if err := resp.DecodeBody(&e); err != nil {
		return err
	}
	fmt.Printf("epoch %d committed: %d members, active [%s]", e.Seq, len(e.Members), strings.Join(e.Active(), " "))
	if len(e.Drained) > 0 {
		fmt.Printf(", drained [%s]", strings.Join(e.Drained, " "))
	}
	fmt.Println()
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("edrctl", flag.ExitOnError)
	var (
		replicas = fs.String("replicas", "127.0.0.1:7001", "comma-separated replica addresses (first is the contact)")
		listen   = fs.String("listen", "127.0.0.1:0", "client bind address")
		demand   = fs.Float64("demand", 10, "requested traffic R_c in MB")
		download = fs.Bool("download", false, "download the payload after allocation")
		timeout  = fs.Duration("timeout", 30*time.Second, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var addrs []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("no replicas given")
	}
	client, err := core.NewClient(transport.NewTCPNetwork(), *listen)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Measure the network view the optimizer will respect.
	latencies := make(map[string]float64, len(addrs))
	for _, addr := range addrs {
		rtt, err := client.Ping(ctx, addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edrctl: replica %s unreachable (%v); excluded\n", addr, err)
			continue
		}
		latencies[addr] = rtt.Seconds()
		fmt.Printf("ping %-22s %v\n", addr, rtt.Round(time.Microsecond))
	}
	if len(latencies) == 0 {
		return fmt.Errorf("no reachable replicas")
	}

	start := time.Now()
	if err := client.Submit(ctx, addrs[0], *demand, latencies); err != nil {
		return err
	}
	fmt.Printf("submitted %.1f MB to %s; waiting for the fleet's decision...\n", *demand, addrs[0])
	// Steady wait: prefer the push, but poll the committed round too — an
	// incremental fleet suppresses the push when this client's split did
	// not move, and a one-shot CLI has no prior allocation to keep serving.
	alloc, err := client.WaitAllocationSteady(ctx, time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("allocation (round %d, %s, %d iterations, %v):\n",
		alloc.Round, alloc.Algorithm, alloc.Iterations, time.Since(start).Round(time.Millisecond))
	selected := 0
	for j, mb := range alloc.PerReplicaMB {
		if mb > 0 {
			fmt.Printf("  %-22s %8.2f MB\n", alloc.Replicas[j], mb)
			selected++
		}
	}
	if *download {
		n, err := client.Download(ctx, alloc)
		if err != nil {
			return err
		}
		fmt.Printf("downloaded %d payload bytes across %d replicas\n", n, selected)
	}
	return nil
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("edrctl status", flag.ExitOnError)
	var (
		admin   = fs.String("admin", "127.0.0.1:9090", "replica admin-plane address (edrd -admin)")
		timeout = fs.Duration("timeout", 5*time.Second, "request deadline")
		raw     = fs.Bool("json", false, "print the raw /status JSON instead of the rendered view")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	httpc := &http.Client{Timeout: *timeout}
	resp, err := httpc.Get("http://" + *admin + "/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /status: %s", resp.Status)
	}
	var st core.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding /status: %w", err)
	}
	if *raw {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	printStatus(os.Stdout, &st)
	return nil
}

// printStatus renders a Status the way an operator reads it: identity,
// ring health, counters, then the last round's assignment matrix.
func printStatus(w *os.File, st *core.Status) {
	fmt.Fprintf(w, "replica   %s (%s)\n", st.Addr, st.Algorithm)
	fmt.Fprintf(w, "ring      %s\n", strings.Join(st.Ring, " -> "))
	fmt.Fprintf(w, "epoch     %d\n", st.Epoch)
	if len(st.Drained) > 0 {
		fmt.Fprintf(w, "drained   %s\n", strings.Join(st.Drained, ", "))
	}
	if st.Suspect != "" {
		fmt.Fprintf(w, "suspect   %s (%d missed heartbeats)\n", st.Suspect, st.SuspectMisses)
	}
	fmt.Fprintf(w, "pending   %d requests\n", st.Pending)
	fmt.Fprintf(w, "counters  requests %d, rounds %d (restarted %d, degraded %d), downloads %d, rpc retries %d\n",
		st.RequestsReceived, st.RoundsInitiated, st.RoundsRestarted, st.RoundsDegraded,
		st.DownloadsServed, st.SendRetried)
	fmt.Fprintf(w, "tcp pool  %d dials, %d reuses, %d stale redials; %d idle, %d served connections\n",
		st.TCP.Dials, st.TCP.Reuses, st.TCP.Redials, st.TCP.Idle, st.TCP.Served)
	if st.LastRound == nil {
		fmt.Fprintln(w, "last round: none yet")
		return
	}
	r := st.LastRound
	flag := ""
	if r.WarmStarted {
		flag = "  warm-started"
	}
	if r.Cohorts > 0 {
		flag += fmt.Sprintf("  cohorted (%d virtual clients, %.1fx compression)", r.Cohorts, r.CohortRatio)
	}
	if r.Incremental {
		suppressed := 0.0
		if n := len(r.ClientAddrs); n > 0 {
			suppressed = 100 * float64(r.SuppressedNotifies) / float64(n)
		}
		flag += fmt.Sprintf("  incremental (dirty %d/%d, gap %.2g, suppressed %.0f%%)",
			r.DirtyClients, len(r.ClientAddrs), r.SubsolveGap, suppressed)
	}
	if r.Degraded {
		flag = "  DEGRADED (last-good fallback)"
	}
	fmt.Fprintf(w, "last round %d: %s, %d iterations, cost %.2f, %v%s\n",
		r.Round, r.Algorithm, r.Iterations, r.Objective, r.Duration.Round(time.Millisecond), flag)
	if len(r.Assignment) == 0 {
		return
	}
	fmt.Fprintf(w, "assignment (MB, %d clients x %d replicas):\n", len(r.ClientAddrs), len(r.ReplicaAddrs))
	fmt.Fprintf(w, "  %-22s", "")
	for _, rep := range r.ReplicaAddrs {
		fmt.Fprintf(w, " %20s", rep)
	}
	fmt.Fprintln(w)
	for i, row := range r.Assignment {
		client := ""
		if i < len(r.ClientAddrs) {
			client = r.ClientAddrs[i]
		}
		fmt.Fprintf(w, "  %-22s", client)
		for _, mb := range row {
			fmt.Fprintf(w, " %20.2f", mb)
		}
		fmt.Fprintln(w)
	}
}
