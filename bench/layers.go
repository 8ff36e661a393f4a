package main

import (
	"fmt"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/engine"
	"edr/internal/lddm"
)

// perLayer reports the per-layer metrics of a per-layer run: the traced
// windows' spans reduced by layer, the untraced windows' heap activity,
// the round reports' own counters, and the probes.
func perLayer(cfg runConfig, f *fleet, rec *recording, res *result, info func(string, ...any)) error {
	all := append(append([]*measured(nil), rec.plain...), rec.traces...)
	wts := make([]*windowTrace, len(rec.traces))
	for i, m := range rec.traces {
		wts[i] = m.trace
	}
	// Trace-derived numbers are means over the traced windows, so the
	// phase rows add up; report-derived ones are means over all measured
	// windows.
	traced := func(get func(*windowTrace) float64) float64 {
		sum := 0.0
		for _, wt := range wts {
			sum += get(wt)
		}
		return sum / float64(len(wts))
	}
	reported := func(get func(*measured) float64) float64 { return mean(column(all, get)) }
	handler := func(verb string, get func(*verbRow) float64) float64 {
		return traced(func(wt *windowTrace) float64 {
			if row := wt.verbs[verb]; row != nil {
				return get(row)
			}
			return 0
		})
	}
	selfS := func(r *verbRow) float64 { return r.selfNs / 1e9 }
	count := func(r *verbRow) float64 { return r.count }

	// core: the phase table, checked to partition the round.
	pt, err := meanPhases(cfg.w.name, cfg.seed, wts)
	rec.tally.op(err)
	if pt == nil {
		return err
	}
	info("phase check: in-round phases sum to %.0f ns, traced round is %.0f ns (%+.4f %%)", pt.PhaseSumNs, pt.RoundNs, 100*pt.SumRelError)
	for p := phaseInfo; p <= phaseIngest; p++ {
		row := pt.Phases[phaseNames[p]]
		res.put("core.phase."+phaseNames[p]+"_s", row.Ns/1e9, "s")
		if p != phaseLocal {
			res.put("core.phase."+phaseNames[p]+"_bytes", row.Bytes, "B")
			res.put("core.phase."+phaseNames[p]+"_rpcs", row.RPCs, "count")
		}
	}
	roundS := column(rec.plain, func(m *measured) float64 { return m.roundS })
	roundTail, rank := tail(roundS)
	info("core.round_tail_s is p%g of %d untraced rounds", 100*rank, len(roundS))
	res.put("core.drain_s", traced(func(wt *windowTrace) float64 { return float64(wt.drainNs) / 1e9 }), "s")
	res.put("core.cold_round_s", rec.coldRoundS, "s")
	res.put("core.round_tail_s", roundTail, "s")
	res.put("core.incremental_share", reported(func(m *measured) float64 { return m.incremental }), "ratio")
	res.put("core.escalated_rounds", float64(rec.escalated), "count")
	res.put("core.degraded_rounds", sum(column(all, func(m *measured) float64 { return m.degraded })), "count")
	res.put("core.restarts", sum(column(all, func(m *measured) float64 { return m.restarts })), "count")
	res.put("core.dirty_clients", reported(func(m *measured) float64 { return m.dirty }), "count")
	res.put("core.suppressed_notifies", reported(func(m *measured) float64 { return m.suppressed }), "count")
	res.put("core.warm_share", reported(func(m *measured) float64 { return m.warm }), "ratio")

	// engine
	res.put("engine.iterations", reported(func(m *measured) float64 { return m.iterations }), "count")
	iterS := 0.0
	if iters := mean(column(rec.traces, func(m *measured) float64 { return m.iterations })); iters > 0 {
		iterS = pt.Phases["iterate"].Ns / 1e9 / iters
	}
	res.put("engine.iter_s", iterS, "s")
	res.put("engine.rtt_waves", traced(func(wt *windowTrace) float64 { return float64(wt.waves) }), "count")

	// lddm, admm, cdpsm: handler self time and count by verb.
	res.put("lddm.localsolve_s", handler(lddm.MsgLocalSolve, selfS), "s")
	res.put("lddm.localsolve_rpcs", handler(lddm.MsgLocalSolve, count), "count")
	res.put("lddm.muupdate_s", handler(engine.MsgMuUpdate, selfS), "s")
	res.put("lddm.muupdate_rpcs", handler(engine.MsgMuUpdate, count), "count")
	res.put("admm.prox_s", handler(admm.MsgProx, selfS), "s")
	res.put("admm.prox_rpcs", handler(admm.MsgProx, count), "count")
	res.put("cdpsm.step_s", handler(cdpsm.MsgStep, selfS), "s")
	res.put("cdpsm.estimate_s", handler(cdpsm.MsgEstimate, selfS), "s")
	res.put("cdpsm.estimate_bytes", handler(cdpsm.MsgEstimate, func(r *verbRow) float64 { return r.bytes }), "B")

	// cohort
	res.put("cohort.cohorts", reported(func(m *measured) float64 { return m.cohorts }), "count")
	res.put("cohort.ratio", reported(func(m *measured) float64 { return m.ratio }), "ratio")

	// transport
	var sendNs, fabricNs float64
	var durs []float64
	for _, wt := range wts {
		sendNs += float64(wt.sendNs)
		fabricNs += float64(wt.fabricNs)
		for _, d := range wt.sendDur {
			durs = append(durs, float64(d)/1e9)
		}
	}
	sendTail, rank := tail(durs)
	info("transport.send_tail_s is p%g of %d sends", 100*rank, len(durs))
	res.put("transport.sends", traced(func(wt *windowTrace) float64 { return float64(wt.sends) }), "count")
	res.put("transport.tx_bytes", traced(func(wt *windowTrace) float64 { return float64(wt.txBytes) }), "B")
	res.put("transport.rx_bytes", traced(func(wt *windowTrace) float64 { return float64(wt.rxBytes) }), "B")
	res.put("transport.fabric_s", fabricNs/1e9/float64(len(wts)), "s")
	res.put("transport.fabric_share", fabricNs/sendNs, "ratio")
	res.put("transport.send_p50_s", median(durs), "s")
	res.put("transport.send_tail_s", sendTail, "s")
	res.put("transport.errors", traced(func(wt *windowTrace) float64 { return float64(wt.failed) }), "count")
	frames := float64(rec.frames[0] + rec.frames[1] + rec.frames[2])
	res.put("transport.frames_full", float64(rec.frames[0])/float64(len(all)), "count")
	res.put("transport.frames_sparse", float64(rec.frames[1])/float64(len(all)), "count")
	res.put("transport.frames_delta", float64(rec.frames[2])/float64(len(all)), "count")
	hit := 0.0
	if frames > 0 {
		hit = float64(rec.frames[2]) / frames
	}
	res.put("transport.delta_hit_rate", hit, "ratio")

	// proc: the untraced windows' timed parts.
	plain := func(get func(*measured) float64) []float64 { return column(rec.plain, get) }
	res.put("proc.allocs_per_window", mean(plain(func(m *measured) float64 { return m.mallocs })), "count")
	res.put("proc.alloc_bytes_per_window", mean(plain(func(m *measured) float64 { return m.allocBytes })), "B")
	res.put("proc.gc_cycles", sum(plain(func(m *measured) float64 { return m.gcCycles })), "count")
	res.put("proc.gc_pause_s", sum(plain(func(m *measured) float64 { return m.gcPauseS })), "s")
	res.put("proc.goroutines_peak", float64(rec.goroutines), "count")

	// bench
	res.put("bench.trace_overhead", median(column(rec.traces, func(m *measured) float64 { return m.roundS }))/median(roundS), "ratio")
	res.put("bench.windows", float64(len(all)), "count")

	if err := runProbes(f, rec.prev, rec.last, res.put); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	res.put("bench.failure_rate", float64(rec.tally.failed)/float64(rec.tally.attempted), "ratio")
	if cfg.traceOut != "" {
		return writeTraceOut(cfg.traceOut, pt, medianWindow(rec), f.fab.nodeNames())
	}
	return nil
}
