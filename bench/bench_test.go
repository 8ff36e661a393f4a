package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"edr/internal/cdpsm"
	"edr/internal/core"
)

func TestIntervalSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		span     interval
		children []interval
		want     int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"disjoint children", interval{0, 100}, []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping children count once", interval{0, 100}, []interval{{10, 40}, {30, 60}, {35, 38}}, 50},
		{"touching children merge", interval{0, 100}, []interval{{10, 20}, {20, 30}}, 80},
		{"children clipped to the span", interval{50, 100}, []interval{{0, 60}, {90, 200}}, 30},
		{"fully covered", interval{10, 20}, []interval{{0, 100}}, 0},
		{"unsorted children", interval{0, 100}, []interval{{80, 90}, {0, 10}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	u := union([]interval{{5, 7}, {1, 3}, {2, 4}, {7, 9}})
	if want := []interval{{1, 4}, {5, 9}}; !reflect.DeepEqual(u, want) {
		t.Errorf("union = %v, want %v", u, want)
	}
	d := subtract([]interval{{0, 10}, {20, 30}}, []interval{{2, 4}, {8, 22}, {25, 26}})
	if want := []interval{{0, 2}, {4, 8}, {22, 25}, {26, 30}}; !reflect.DeepEqual(d, want) {
		t.Errorf("subtract = %v, want %v", d, want)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	if got, rank := tail(v); rank != 0.90 || math.Abs(got-89.1) > 1e-9 {
		t.Errorf("tail of 0..99 = %g at p%g, want 89.1 at p90", got, 100*rank)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestVerbPhase(t *testing.T) {
	for verb, want := range map[string]phase{
		core.MsgReplicaInfo: phaseInfo, core.MsgRoundStart: phaseInstall,
		core.MsgLocalSolve: phaseIterate, core.MsgMuUpdate: phaseIterate, core.MsgADMMProx: phaseIterate,
		cdpsm.MsgStep: phaseIterate, cdpsm.MsgEstimate: phaseIterate, cdpsm.MsgCommit: phaseIterate,
		core.MsgAssign: phaseAssign, core.MsgAllocation: phaseNotify,
		core.MsgCohortAllocation: phaseNotify, core.MsgCohortDuals: phaseNotify,
		core.MsgClientRequest: phaseIngest,
	} {
		if got, err := phaseOf(verb); err != nil || got != want {
			t.Errorf("phaseOf(%q) = %v, %v; want %v", verb, got, err, want)
		}
	}
	if _, err := phaseOf("replica.newverb"); err == nil {
		t.Error("an unknown verb got a phase")
	}
	// An unknown verb inside a window fails the reduction instead of
	// counting as local time.
	spans := []span{
		{kind: spanBench, name: "round", node: -1, start: 0, end: 100},
		{kind: spanSend, name: "replica.newverb", node: 0, peer: "r1", start: 10, end: 20},
	}
	if _, err := reduceWindow(spans, []string{"r0", "r1"}, "r0"); err == nil || !strings.Contains(err.Error(), "replica.newverb") {
		t.Errorf("reduceWindow with an unknown verb: %v", err)
	}
}

func TestReduceWindow(t *testing.T) {
	names := []string{"r0", "r1", "c0"}
	send := func(verb string, from int32, to string, start, end int64) span {
		return span{kind: spanSend, name: verb, node: from, peer: to, parent: -1, start: start, end: end, tx: 10, rx: 5}
	}
	handler := func(verb string, on int32, from string, start, end int64) span {
		return span{kind: spanHandler, name: verb, node: on, peer: from, parent: -1, start: start, end: end}
	}
	spans := []span{
		{kind: spanBench, name: "submit", node: -1, start: 0, end: 90},
		{kind: spanBench, name: "round", node: -1, start: 100, end: 1000},
		{kind: spanBench, name: "drain", node: -1, start: 1000, end: 1030},
		send(core.MsgClientRequest, 2, "r0", 10, 60),    // 3
		handler(core.MsgClientRequest, 0, "c0", 20, 50), // 4
		send(core.MsgReplicaInfo, 0, "r1", 110, 150),    // 5
		send(cdpsm.MsgStep, 0, "r1", 200, 600),          // 6
		handler(cdpsm.MsgStep, 1, "r0", 250, 550),       // 7
		send(cdpsm.MsgEstimate, 1, "r0", 300, 400),      // 8: issued by handler 7
		handler(cdpsm.MsgEstimate, 0, "r1", 320, 380),   // 9
		send(core.MsgAssign, 0, "r1", 650, 750),         // 10
		send(core.MsgAllocation, 0, "c0", 700, 800),     // 11: overlaps assign
		{kind: spanSend, name: core.MsgAssign, node: 0}, // reserved, never completed
	}
	spans[8].parent = 7
	wt, err := reduceWindow(spans, names, "r0")
	if err != nil {
		t.Fatal(err)
	}
	if spans[7].parent != 6 || spans[9].parent != 8 || spans[4].parent != 3 {
		t.Errorf("handler parents = %d, %d, %d; want 6, 8, 3", spans[7].parent, spans[9].parent, spans[4].parent)
	}
	wantNs := map[phase]float64{phaseInfo: 40, phaseInstall: 0, phaseIterate: 400, phaseAssign: 100, phaseNotify: 50, phaseLocal: 310, phaseIngest: 50}
	inRound := 0.0
	for p, want := range wantNs {
		if got := wt.phases[p].Ns; got != want {
			t.Errorf("phase %s = %g ns, want %g", phaseNames[p], got, want)
		}
		if p <= phaseLocal {
			inRound += wt.phases[p].Ns
		}
	}
	if inRound != float64(wt.roundNs) || wt.roundNs != 900 {
		t.Errorf("in-round phases sum to %g, round is %d", inRound, wt.roundNs)
	}
	if got := wt.phases[phaseIterate]; got.RPCs != 2 || got.Bytes != 30 {
		t.Errorf("iterate phase = %+v, want 2 RPCs, 30 bytes", got)
	}
	if got := wt.verbs[cdpsm.MsgStep].selfNs; got != 200 {
		t.Errorf("step handler self time %g, want 200 (300 minus the 100 its estimate pull covers)", got)
	}
	// Fabric time: every Send minus its handler; Sends without a handler
	// span (untraced peer) count whole.
	if want := int64((50 - 30) + 40 + (400 - 300) + (100 - 60) + 100 + 100); wt.fabricNs != want {
		t.Errorf("fabric time %d, want %d", wt.fabricNs, want)
	}
	if wt.drainNs != 30 || wt.sends != 6 || wt.waves != 4 {
		t.Errorf("drain %d ns, %d sends, %d waves; want 30, 6, 4", wt.drainNs, wt.sends, wt.waves)
	}
}

func TestCountWaves(t *testing.T) {
	var spans []span
	var idx []int
	add := func(verb, to string, start int64) {
		idx = append(idx, len(spans))
		spans = append(spans, span{kind: spanSend, name: verb, peer: to, start: start, end: start + 1})
	}
	// Two LDDM iterations over two replicas and three clients, recorded
	// out of order within a wave: 4 waves although no two Sends overlap.
	for it := int64(0); it < 2; it++ {
		add("replica.localsolve", "r1", 100*it+2)
		add("replica.localsolve", "r0", 100*it+1)
		add("client.muupdate", "c2", 100*it+13)
		add("client.muupdate", "c0", 100*it+11)
		add("client.muupdate", "c1", 100*it+12)
	}
	if got := countWaves(spans, idx); got != 4 {
		t.Errorf("waves = %d, want 4", got)
	}
	// One verb fanned out twice to the same peers: the repeat starts a wave.
	spans, idx = nil, nil
	add("replica.admm.prox", "r0", 1)
	add("replica.admm.prox", "r1", 2)
	add("replica.admm.prox", "r0", 3)
	add("replica.admm.prox", "r1", 4)
	if got := countWaves(spans, idx); got != 2 {
		t.Errorf("waves = %d, want 2", got)
	}
}

func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		w = reduced(w)
		a, b, c := inputDigest(w, 7), inputDigest(w, 7), inputDigest(w, 8)
		if a != b {
			t.Errorf("%s: same seed, digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w.name, a)
		}
	}
	lddm, _ := findWorkload("paper100-lddm")
	admm, _ := findWorkload("paper100-admm")
	if inputDigest(reduced(lddm), 7) != inputDigest(reduced(admm), 7) {
		t.Error("paper100-lddm and paper100-admm should run the same inputs")
	}
	// The demand stream is a function of (seed, window), however it is read.
	w := reduced(workloads[4])
	g1, g2 := newDemandGen(w, 3), newDemandGen(w, 3)
	g1.window()
	first := append([]float64(nil), g1.window()...)
	g2.window()
	if second := g2.window(); !reflect.DeepEqual(first, second) {
		t.Error("two generators of one seed disagree on window 2")
	}
	moved := 0
	base := append([]float64(nil), g2.window()...)
	for i, d := range g2.window() {
		if d != base[i] {
			moved++
		}
	}
	if want := int(math.Ceil(w.drift * float64(w.clients))); moved != want {
		t.Errorf("drift moved %d clients, want %d", moved, want)
	}
}

// reduced shrinks a workload to smoke-test size, keeping its shape.
func reduced(w workload) workload {
	switch w.shape {
	case shapePaper:
		w.clients, w.replicas = 20, 5
	case shapeRig:
		w.clients, w.replicas = 6, 4
	case shapeRegion:
		w.clients, w.regions, w.replicas = 200, 10, 6
	}
	return w
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test pins.
type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload shape at reduced size for four windows
// (seven in a per-layer run, which alternates), both run kinds, and checks
// the run is green and emits exactly BENCHMARK.json's metrics.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %g, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range withSideRun() {
		for _, traced := range []bool{false, true} {
			w, traced := reduced(w), traced
			name := w.name + map[bool]string{false: "/end-to-end", true: "/per-layer"}[traced]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := runConfig{w: w, seed: 11, seconds: 0.05, traced: traced, minMeasured: 1}
				if traced {
					cfg.traceOut = t.TempDir()
				}
				res, err := runWorkload(cfg, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				var got, missing []string
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %g", name, m.Value)
					}
					if unit, ok := want[traced][name]; !ok || unit != m.Unit {
						got = append(got, name+" ["+m.Unit+"]")
					}
				}
				for name := range want[traced] {
					if _, ok := res.Metrics[name]; !ok {
						missing = append(missing, name)
					}
				}
				sort.Strings(got)
				sort.Strings(missing)
				if len(got)+len(missing) > 0 {
					t.Errorf("metrics not in BENCHMARK.json (or unit differs): %v; in BENCHMARK.json but not emitted: %v", got, missing)
				}
				if traced {
					for _, file := range []string{".phases.json", ".trace.json"} {
						raw, err := os.ReadFile(cfg.traceOut + "/" + w.name + file)
						if err != nil || !json.Valid(raw) {
							t.Errorf("trace output %s: %v, valid JSON %v", file, err, json.Valid(raw))
						}
					}
				}
			})
		}
	}
}
