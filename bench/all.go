package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// runKinds are the two runs of a workload: untraced for the end-to-end
// metrics, per-layer for the rest.
var runKinds = []struct {
	trace int
	title string
}{{0, "end-to-end"}, {1, "per-layer"}}

// child runs one workload in a fresh process — fresh heap, fresh sockets —
// echoes its commentary and returns its result line.
func child(name string, seed uint64, seconds float64, trace int, traceOut string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		fmt.Printf("  %s\n", line)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s -trace %d printed no result (%v): %v", name, trace, runErr, err)
	}
	return &res, nil
}

// runAll runs every workload, one child process per run. Plain, it prints
// every metric by name with its unit. With calibrate = N it runs N sets,
// set i seeded seed+i — the driver's acceptance runs differ in seed, so
// calibration does too — and prints each metric's spread. trace restricts
// the runs to one kind (-1: both).
func runAll(seed uint64, seconds float64, trace int, traceOut string, calibrate int) error {
	sets := max(1, calibrate)
	// values[workload][metric] collects one value per set.
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	failed := 0
	for set := 0; set < sets; set++ {
		for _, w := range withSideRun() {
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, kind := range runKinds {
				if trace >= 0 && trace != kind.trace || w.name == rigInProc.name && kind.trace == 1 {
					continue
				}
				fmt.Printf("== %s, seed %d, %s\n", w.name, seed+uint64(set), kind.title)
				if set == 0 && kind.trace == runKinds[0].trace {
					fmt.Printf("  # why: %s\n", w.why)
				}
				res, err := child(w.name, seed+uint64(set), seconds, kind.trace, traceOut)
				if err != nil {
					return err
				}
				failed += res.Failed
				fmt.Printf("  correct %v, %d operations attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
				for _, name := range sortedKeys(res.Metrics) {
					m := res.Metrics[name]
					values[w.name][name] = append(values[w.name][name], m.Value)
					units[name] = m.Unit
					if calibrate == 0 {
						fmt.Printf("  %-32s %14.6g %s\n", name, m.Value, m.Unit)
					}
				}
			}
		}
	}
	if tcp, inproc := values["rig12-lddm-tcp"]["round_s"], values[rigInProc.name]["round_s"]; len(tcp) > 0 && len(inproc) > 0 {
		fmt.Printf("== rig12 round_s over TCP / in-proc: %.2fx (%.4g s / %.4g s)\n", median(tcp)/median(inproc), median(tcp), median(inproc))
	}
	if calibrate > 0 {
		printCalibration(values, units, sets)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is what
// the driver computes a metric's spread from.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// printCalibration prints, per metric and workload, the median, the
// quartiles, the interquartile spread and the range, both as shares of the
// median, as a markdown table (CALIBRATION.md is this output).
func printCalibration(values map[string]map[string][]float64, units map[string]string, sets int) {
	fmt.Printf("\n## Calibration: %d sets\n\n", sets)
	fmt.Println("| metric | workload | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	worst := make(map[string]float64)
	for _, metric := range sortedKeys(units) {
		for _, wname := range sortedKeys(values) {
			v := values[wname][metric]
			if len(v) == 0 {
				continue
			}
			s := sorted(v)
			med := median(v)
			q1, q3 := quartiles(v)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr, rng = (q3-q1)/med, (s[len(s)-1]-s[0])/med
			}
			if wname != rigInProc.name {
				worst[metric] = max(worst[metric], iqr)
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f |\n", metric, wname, units[metric], med, q1, q3, iqr, rng)
		}
	}
	fmt.Printf("\nWidest interquartile spread per metric over the workloads (a bound should be at least three times it):\n\n")
	for _, metric := range sortedKeys(worst) {
		fmt.Printf("- `%s`: %.4f\n", metric, worst[metric])
	}
	fmt.Println(strings.Repeat("-", 3))
}
