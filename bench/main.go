// Command bench is EDR's real-path fleet benchmark: whole fleets of
// replicas and clients, in one process, driven only through the production
// entry points (Client.Submit → ReplicaServer.RunRound →
// Client.WaitAllocation) in a closed loop by scheduling window, with every
// number measured from outside the product. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process; empty runs all of them, one child process each")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace     = flag.Int("trace", -1, "0 reports the end-to-end metrics; 1 traces every second window and reports the per-layer metrics; with -workload the default is 0, without it both kinds run")
		traceOut  = flag.String("trace-out", "", "with -trace 1: directory for each workload's phase table (JSON) and the median window's spans (Chrome trace-event format)")
		calibrate = flag.Int("calibrate", 0, "run N back-to-back sets of every workload, set i with seed+i, and print each metric's median, quartiles and range")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds <= 0 || *calibrate < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *trace, *traceOut, *calibrate); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	info := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	res, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut, minMeasured: minMeasured}, info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
