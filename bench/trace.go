package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/core"
	"edr/internal/engine"
	"edr/internal/lddm"
)

// phase is one row of the round's phase table. The five fan-out phases
// are listed in attribution order: time covered by two phases at once
// belongs to the one listed first, and what no Send covers is local.
type phase int

const (
	phaseInfo phase = iota
	phaseInstall
	phaseIterate
	phaseAssign
	phaseNotify
	phaseLocal   // RunRound self time; derived, no verb maps here
	phaseIngest  // client.request, outside the round
	phaseOutside // check traffic between windows; never inside a window
)

var phaseNames = [...]string{
	phaseInfo: "info", phaseInstall: "install", phaseIterate: "iterate",
	phaseAssign: "assign", phaseNotify: "notify", phaseLocal: "local",
	phaseIngest: "ingest",
}

// verbPhase maps every wire verb a benchmark fleet can send to its phase.
// A verb missing here fails the run (phaseOf) rather than landing in
// local: a new verb must be placed in the table on purpose.
var verbPhase = map[string]phase{
	core.MsgReplicaInfo:      phaseInfo,
	core.MsgRoundStart:       phaseInstall,
	lddm.MsgLocalSolve:       phaseIterate,
	engine.MsgMuUpdate:       phaseIterate,
	admm.MsgProx:             phaseIterate,
	cdpsm.MsgStep:            phaseIterate,
	cdpsm.MsgEstimate:        phaseIterate,
	cdpsm.MsgCommit:          phaseIterate,
	core.MsgAssign:           phaseAssign,
	core.MsgAllocation:       phaseNotify,
	core.MsgCohortAllocation: phaseNotify,
	core.MsgCohortDuals:      phaseNotify,
	core.MsgClientRequest:    phaseIngest,
	core.MsgAllocationPull:   phaseOutside,
}

func phaseOf(verb string) (phase, error) {
	p, ok := verbPhase[verb]
	if !ok {
		return 0, fmt.Errorf("trace: verb %q has no phase; add it to verbPhase", verb)
	}
	return p, nil
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// union returns the sorted disjoint cover of ivs (ivs is reordered).
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := []interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtract returns a minus b; both must be sorted and disjoint.
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		lo := iv.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < iv.hi; k++ {
			if b[k].lo > lo {
				out = append(out, interval{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
		}
		if lo < iv.hi {
			out = append(out, interval{lo, iv.hi})
		}
	}
	return out
}

// clip restricts sorted disjoint ivs to [lo, hi).
func clip(ivs []interval, lo, hi int64) []interval {
	return subtract(ivs, []interval{{-1 << 62, lo}, {hi, 1 << 62}})
}

func total(ivs []interval) int64 {
	var sum int64
	for _, iv := range ivs {
		sum += iv.hi - iv.lo
	}
	return sum
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s interval, children []interval) int64 {
	return total(subtract([]interval{s}, union(children)))
}

// phaseRow is one phase's cost in one window (or, averaged, in a run).
type phaseRow struct {
	Ns    float64 `json:"ns"`
	Bytes float64 `json:"bytes"`
	RPCs  float64 `json:"rpcs"`
}

// verbRow is one verb's handler-side cost in one window.
type verbRow struct {
	selfNs float64 // Σ handler self time
	count  float64 // handler executions
	bytes  float64 // Σ request + response body bytes of the verb's sends
}

// windowTrace is one traced window reduced to the numbers the per-layer
// metrics are built from.
type windowTrace struct {
	roundNs  int64
	phases   [phaseIngest + 1]phaseRow // indexed by phase; phaseLocal has Ns only
	drainNs  int64
	verbs    map[string]*verbRow
	sends    int
	txBytes  int64
	rxBytes  int64
	sendNs   int64 // Σ Send span durations
	fabricNs int64 // Σ (Send span − its handler span)
	failed   int
	waves    int
	sendDur  []int64 // every Send span's duration
}

// resolveParents gives each handler span its parent: the tightest Send
// span of the same verb, sender and receiver that contains it.
func resolveParents(spans []span, names []string) {
	type key struct{ verb, from, to string }
	sends := make(map[key][]int32)
	for i := range spans {
		if s := &spans[i]; s.kind == spanSend && s.end > 0 {
			k := key{s.name, names[s.node], s.peer}
			sends[k] = append(sends[k], int32(i))
		}
	}
	for _, list := range sends {
		sort.Slice(list, func(a, b int) bool { return spans[list[a]].start < spans[list[b]].start })
	}
	for i := range spans {
		h := &spans[i]
		if h.kind != spanHandler || h.end == 0 {
			continue
		}
		list := sends[key{h.name, h.peer, names[h.node]}]
		// Candidates start at or before the handler; the nearest ones are
		// the tightest, and one pair's Sends rarely overlap, so the walk
		// back is short.
		best := int32(-1)
		for k := sort.Search(len(list), func(k int) bool { return spans[list[k]].start > h.start }) - 1; k >= 0; k-- {
			s := &spans[list[k]]
			if s.end >= h.end && (best < 0 || s.end-s.start < spans[best].end-spans[best].start) {
				best = list[k]
			}
			if best >= 0 && h.start-s.start > spans[best].end-spans[best].start {
				break // every earlier candidate is longer than the best
			}
		}
		h.parent = best
	}
}

// reduceWindow turns one window's spans into a windowTrace. initiator is
// the fabric address of the replica that ran the round.
func reduceWindow(spans []span, names []string, initiator string) (*windowTrace, error) {
	resolveParents(spans, names)
	wt := &windowTrace{verbs: make(map[string]*verbRow)}
	var round, submit interval
	for i := range spans {
		s := &spans[i]
		if s.kind != spanBench || s.end == 0 {
			continue
		}
		switch s.name {
		case "round":
			round = interval{s.start, s.end}
		case "submit":
			submit = interval{s.start, s.end}
		case "drain":
			wt.drainNs = s.end - s.start
		}
	}
	if round.hi == 0 {
		return nil, fmt.Errorf("trace: window has no round span")
	}
	wt.roundNs = round.hi - round.lo

	// Children of each handler (the Sends it issued) for self time, and the
	// handler of each Send for fabric time.
	children := make(map[int32][]interval)
	handlerOf := make(map[int32]int64)
	for i := range spans {
		s := &spans[i]
		if s.end == 0 || s.parent < 0 {
			continue
		}
		switch s.kind {
		case spanSend:
			if spans[s.parent].kind == spanHandler {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		case spanHandler:
			handlerOf[s.parent] += s.end - s.start
		}
	}

	var byPhase [phaseIngest + 1][]interval
	var initiatorSends []int
	for i := range spans {
		s := &spans[i]
		if s.end == 0 || s.kind == spanBench {
			continue
		}
		p, err := phaseOf(s.name)
		if err != nil {
			return nil, err
		}
		if p == phaseOutside {
			return nil, fmt.Errorf("trace: verb %q inside a window", s.name)
		}
		row := wt.verbs[s.name]
		if row == nil {
			row = &verbRow{}
			wt.verbs[s.name] = row
		}
		if s.kind == spanHandler {
			row.selfNs += float64(selfTime(interval{s.start, s.end}, children[int32(i)]))
			row.count++
			continue
		}
		dur := s.end - s.start
		wt.sends++
		wt.txBytes += int64(s.tx)
		wt.rxBytes += int64(s.rx)
		wt.sendNs += dur
		wt.fabricNs += dur - handlerOf[int32(i)]
		wt.sendDur = append(wt.sendDur, dur)
		if s.failed {
			wt.failed++
		}
		row.bytes += float64(s.tx + s.rx)
		inRound := s.start >= round.lo && s.end <= round.hi
		inSubmit := s.start >= submit.lo && s.end <= submit.hi
		if (p == phaseIngest && !inSubmit) || (p != phaseIngest && !inRound) {
			return nil, fmt.Errorf("trace: %s send outside its phase's bench span", s.name)
		}
		byPhase[p] = append(byPhase[p], interval{s.start, s.end})
		wt.phases[p].Bytes += float64(s.tx + s.rx)
		wt.phases[p].RPCs++
		if inRound && names[s.node] == initiator {
			initiatorSends = append(initiatorSends, i)
		}
	}

	// Partition the round: each fan-out phase gets the part of its Sends'
	// union no earlier-listed phase already claimed; the rest is local.
	var claimed []interval
	for p := phaseInfo; p < phaseLocal; p++ {
		u := clip(union(byPhase[p]), round.lo, round.hi)
		wt.phases[p].Ns = float64(total(subtract(u, claimed)))
		claimed = union(append(claimed, u...))
	}
	wt.phases[phaseLocal].Ns = float64(wt.roundNs - total(claimed))
	wt.phases[phaseIngest].Ns = float64(total(union(byPhase[phaseIngest])))

	wt.waves = countWaves(spans, initiatorSends)
	return wt, nil
}

// countWaves counts the sequentially dependent fan-out waves among the
// initiator's Sends — what a WAN round trip would multiply. A fan-out
// addresses distinct peers with one verb and the next starts only after it
// returned, so in start order a new wave begins where the verb changes or
// a destination repeats.
func countWaves(spans []span, sends []int) int {
	sort.Slice(sends, func(a, b int) bool { return spans[sends[a]].start < spans[sends[b]].start })
	waves := 0
	verb := ""
	seen := make(map[string]bool)
	for _, i := range sends {
		s := &spans[i]
		if waves == 0 || s.name != verb || seen[s.peer] {
			waves++
			verb = s.name
			clear(seen)
		}
		seen[s.peer] = true
	}
	return waves
}

// phaseTable is the -trace-out JSON document: the run's mean phase costs
// and the check that the six in-round phases partition the round.
type phaseTable struct {
	Workload    string              `json:"workload"`
	Seed        uint64              `json:"seed"`
	Windows     int                 `json:"windows"`
	RoundNs     float64             `json:"round_ns"`
	Phases      map[string]phaseRow `json:"phases"`
	PhaseSumNs  float64             `json:"phase_sum_ns"`
	SumRelError float64             `json:"sum_rel_error"`
}

// meanPhases averages the windows' phase rows and checks the partition.
func meanPhases(name string, seed uint64, wts []*windowTrace) (*phaseTable, error) {
	pt := &phaseTable{Workload: name, Seed: seed, Windows: len(wts), Phases: make(map[string]phaseRow)}
	if len(wts) == 0 {
		return nil, fmt.Errorf("trace: no traced windows")
	}
	n := float64(len(wts))
	for p := phaseInfo; p <= phaseIngest; p++ {
		var row phaseRow
		for _, wt := range wts {
			row.Ns += wt.phases[p].Ns
			row.Bytes += wt.phases[p].Bytes
			row.RPCs += wt.phases[p].RPCs
		}
		row = phaseRow{row.Ns / n, row.Bytes / n, row.RPCs / n}
		pt.Phases[phaseNames[p]] = row
		if p <= phaseLocal {
			pt.PhaseSumNs += row.Ns
		}
	}
	for _, wt := range wts {
		pt.RoundNs += float64(wt.roundNs)
	}
	pt.RoundNs /= n
	pt.SumRelError = (pt.PhaseSumNs - pt.RoundNs) / pt.RoundNs
	if pt.SumRelError > 0.01 || pt.SumRelError < -0.01 {
		return pt, fmt.Errorf("trace: in-round phases sum to %.0f ns, round is %.0f ns", pt.PhaseSumNs, pt.RoundNs)
	}
	return pt, nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTraceOut writes the phase table and one window's spans under dir.
func writeTraceOut(dir string, pt *phaseTable, spans []span, names []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	table, err := json.MarshalIndent(pt, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, pt.Workload+".phases.json"), table, 0o644); err != nil {
		return err
	}
	kinds := [...]string{spanBench: "bench", spanSend: "send", spanHandler: "handler"}
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		ev := chromeEvent{
			Name: s.name, Cat: kinds[s.kind], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.node + 1,
			Args: map[string]any{"span": i, "parent": s.parent},
		}
		if s.kind != spanBench {
			ev.Args["node"] = names[s.node]
			ev.Args["peer"] = s.peer
		}
		if s.kind == spanSend {
			ev.Args["tx"], ev.Args["rx"], ev.Args["failed"] = s.tx, s.rx, s.failed
		}
		events = append(events, ev)
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, pt.Workload+".trace.json"), doc, 0o644)
}
