package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edr/internal/transport"
)

// procStart approximates process start (package initialisation runs before
// main), the origin of the first set-up sample.
var procStart = time.Now()

const (
	// Set-up is repeated until it has taken 1/setupShare of the run's
	// seconds in total, at least setupMin and at most setupMax times.
	// setup_s is the builds' 10th percentile: a sub-millisecond build in a
	// tight loop is slowed by the collector every few builds, which puts
	// the median on the steep part of the distribution (it moved ±20 %
	// between identical runs) while the low decile — set-up's own work —
	// repeats within 2 %. Work moved into set-up shows in it all the same.
	setupShare    = 30
	setupMin      = 3
	setupMax      = 200
	setupQuantile = 0.10
	// minMeasured is the fewest measured windows of a kind (untraced,
	// traced) the command accepts before the clock may end a run.
	minMeasured = 5
	// referenceSamples is how many measured windows cost_ratio solves the
	// reference optimum for, evenly spaced over the run.
	referenceSamples = 10
	// rssWindows fixes when peak_rss_mb is read: once this many windows
	// were measured (at exit in a shorter run). Read at exit, a faster
	// round would fit more windows in the run and, as long as replicas
	// keep every round's state, read as more memory.
	rssWindows = 16
	// spanCapacity is the tracer's initial per-window buffer; it doubles
	// between windows when a window half fills it.
	spanCapacity = 1 << 18
	// retainSpans bounds the raw spans kept for -trace-out across windows.
	retainSpans = 1 << 20
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the driver contract's object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// put reports a metric; each name is reported once.
func (r *result) put(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	r.Metrics[name] = metric{v, unit}
}

// runConfig is one measurement run.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	// traced selects the per-layer run: every second measured window is
	// traced and the per-layer metrics are reported instead of the
	// end-to-end ones.
	traced   bool
	traceOut string // directory for the phase table and Chrome trace, "" for none
	// minMeasured is the fewest measured windows of a kind (untraced,
	// traced) the run accepts before the clock may end it.
	minMeasured int
}

// measured is what a run keeps of one measured window once its outputs
// were checked.
type measured struct {
	demands                     []float64
	roundS, windowS, cpuS       float64
	sends, bytes                float64
	objective                   float64
	iterations, restarts, dirty float64
	suppressed, cohorts, ratio  float64
	incremental, warm, degraded float64 // 0 or 1
	// Heap activity inside the window's timed part (per-layer runs,
	// untraced windows only).
	mallocs, allocBytes, gcCycles, gcPauseS float64
	trace                                   *windowTrace // traced windows only
}

func column(ms []*measured, get func(*measured) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = get(m)
	}
	return out
}

// recording is everything a run's closed loop produced.
type recording struct {
	tally      tally
	coldRoundS float64
	plain      []*measured // measured untraced windows
	traces     []*measured // measured traced windows
	retained   [][]span    // traces[i]'s raw spans, nil beyond retainSpans
	prev, last *window
	frames     [3]uint64 // kinded frames emitted over the measured windows
	escalated  int64
	goroutines int64
	rssMB      float64
}

// runWorkload performs one run; info receives the human-readable lines
// (input digest, sample counts, failures).
func runWorkload(cfg runConfig, info func(format string, args ...any)) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	f, setups, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.close()
	info("workload %s seed %d input_digest %s", cfg.w.name, cfg.seed, inputDigest(cfg.w, cfg.seed))
	info("set-up: p%g of %d builds", 100*setupQuantile, len(setups))

	rec, err := measure(ctx, cfg, f)
	if err != nil {
		return nil, err
	}
	info("windows: %d warm-up, %d measured untraced, %d measured traced", warmupWindows, len(rec.plain), len(rec.traces))

	res := &result{Metrics: make(map[string]metric)}
	if cfg.traced {
		err = perLayer(cfg, f, rec, res, info)
	} else {
		res.put("setup_s", quantile(sorted(setups), setupQuantile), "s")
		endToEnd(f, rec, res, info)
	}
	if err != nil {
		return nil, err
	}
	for _, msg := range rec.tally.first {
		info("FAILED: %s", msg)
	}
	res.Correct, res.Attempted, res.Failed = rec.tally.failed == 0, rec.tally.attempted, rec.tally.failed
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %g", name, m.Value)
		}
	}
	return res, nil
}

// setUp builds the workload's fleet repeatedly and returns the last build
// with every build's duration: process start (later: the previous fleet
// closed) → fleet built and the first Submit possible.
func setUp(cfg runConfig) (*fleet, []float64, error) {
	var (
		f      *fleet
		setups []float64
	)
	from := procStart
	budget := time.Duration(cfg.seconds * float64(time.Second) / setupShare)
	for spent := time.Duration(0); len(setups) < setupMin || (spent < budget && len(setups) < setupMax); {
		if f != nil {
			f.close()
			from = time.Now()
		}
		var tr *tracer
		if cfg.traced {
			tr = newTracer(spanCapacity)
		}
		var err error
		if f, err = buildFleet(cfg.w, newInstance(cfg.w, cfg.seed), tr); err != nil {
			return nil, nil, err
		}
		d := time.Since(from)
		setups = append(setups, d.Seconds())
		spent += d
	}
	return f, setups, nil
}

// measure runs the closed loop for cfg.seconds, or until the workload's
// window cap: warm-up windows, then measured ones, each checked from
// outside between windows. A per-layer
// run alternates untraced and traced windows, so both kinds see the same
// heap and the same fleet age.
func measure(ctx context.Context, cfg runConfig, f *fleet) (*recording, error) {
	var (
		rec        = &recording{}
		l          = newLoop(f, cfg.seed)
		chk        = newChecker(f, cfg.seed)
		tr         = f.fab.tr
		names      = f.fab.nodeNames()
		gor        goroutineSampler
		frames0    [3]uint64
		escalated0 int64
		mem0, mem1 runtime.MemStats
		nRetained  int
		tracerWarm bool
	)
	if cfg.traced {
		gor.start()
		defer gor.stop()
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	for k := 0; ; k++ {
		enough := len(rec.plain) >= cfg.minMeasured && (!cfg.traced || len(rec.traces) >= cfg.minMeasured)
		if enough && (time.Since(began) >= budget || len(rec.plain)+len(rec.traces) >= cfg.w.maxWindows) {
			break
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run exceeded its time limit after %d windows", k)
		}
		if k == warmupWindows {
			frames0[0], frames0[1], frames0[2] = transport.MatrixFrameStats()
			escalated0 = f.replicas[0].Stats.RoundsEscalated.Value()
		}
		measuring := k >= warmupWindows
		tracing := cfg.traced && measuring && (k-warmupWindows)%2 == 1
		heap := cfg.traced && measuring && !tracing
		if heap {
			runtime.ReadMemStats(&mem0)
		}
		win := l.run(ctx, tracing)
		if heap {
			runtime.ReadMemStats(&mem1)
		}
		var spans []span
		if tracing {
			var ok bool
			if spans, ok = tr.spans(); ok && win.roundErr == nil {
				var err error
				if win.trace, err = reduceWindow(spans, names, f.replicas[0].Addr()); err != nil {
					return nil, err
				}
			}
		}
		chk.check(ctx, win, &rec.tally)
		if k == 0 {
			rec.coldRoundS = win.roundS
		}
		rec.prev, rec.last = rec.last, win
		if measuring && win.roundErr == nil {
			m := newMeasured(win)
			switch {
			case !tracing:
				if heap {
					m.mallocs = float64(mem1.Mallocs - mem0.Mallocs)
					m.allocBytes = float64(mem1.TotalAlloc - mem0.TotalAlloc)
					m.gcCycles = float64(mem1.NumGC - mem0.NumGC)
					m.gcPauseS = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e9
				}
				rec.plain = append(rec.plain, m)
				if len(rec.plain) == rssWindows {
					var err error
					if rec.rssMB, err = peakRSSMB(); err != nil {
						return nil, err
					}
				}
			case win.trace == nil:
				// Span buffer overflowed; it has grown for the next window.
			case !tracerWarm:
				// The first traced window faults the span buffer in; it
				// warms the tracer up and is not reported.
				tracerWarm = true
			default:
				rec.traces = append(rec.traces, m)
				var keep []span
				if nRetained+len(spans) <= retainSpans {
					keep = append(keep, spans...)
					nRetained += len(spans)
				}
				rec.retained = append(rec.retained, keep)
			}
		}
		if tracing {
			tr.reset()
		}
	}
	if len(rec.plain) < rssWindows {
		var err error
		if rec.rssMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	full, sparse, delta := transport.MatrixFrameStats()
	rec.frames = [3]uint64{full - frames0[0], sparse - frames0[1], delta - frames0[2]}
	rec.escalated = f.replicas[0].Stats.RoundsEscalated.Value() - escalated0
	rec.goroutines = gor.peak.Load()
	return rec, nil
}

func newMeasured(win *window) *measured {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	rep := win.report
	return &measured{
		demands: win.demands, roundS: win.roundS, windowS: win.windowS, cpuS: win.cpuS,
		sends: float64(win.sends), bytes: float64(win.bytes),
		objective: rep.Objective, iterations: float64(rep.Iterations),
		restarts: float64(rep.Restarts), dirty: float64(rep.DirtyClients),
		suppressed: float64(rep.SuppressedNotifies), cohorts: float64(rep.Cohorts), ratio: rep.CohortRatio,
		incremental: b2f(rep.Incremental), warm: b2f(rep.WarmStarted), degraded: b2f(rep.Degraded),
		trace: win.trace,
	}
}

// endToEnd reports what a user of the fleet sees, from the untraced run.
// Reference optima are solved here, after the loop, on retained demands.
func endToEnd(f *fleet, rec *recording, res *result, info func(string, ...any)) {
	var ratios []float64
	ownFlag := 0
	step := max(1, len(rec.plain)/referenceSamples)
	for i := step - 1; i < len(rec.plain); i += step {
		ref, converged, err := f.referenceOptimum(rec.plain[i].demands)
		rec.tally.op(err)
		if err == nil {
			ratios = append(ratios, rec.plain[i].objective/ref)
		}
		if converged {
			ownFlag++
		}
	}
	roundS := column(rec.plain, func(m *measured) float64 { return m.roundS })
	windowS := column(rec.plain, func(m *measured) float64 { return m.windowS })
	info("medians over %d measured windows; cost_ratio over %d reference solves certified within %g of the optimum (every %d. window; the solver's own convergence flag was set on %d)",
		len(roundS), len(ratios), referenceGapTol, step, ownFlag)
	res.put("round_s", median(roundS), "s")
	res.put("window_s", median(windowS), "s")
	res.put("sched_clients_per_s", float64(f.w.clients)/mean(windowS), "clients/s")
	res.put("cpu_s_per_window", mean(column(rec.plain, func(m *measured) float64 { return m.cpuS })), "s")
	res.put("wire_bytes_per_window", mean(column(rec.plain, func(m *measured) float64 { return m.bytes })), "B")
	res.put("rpcs_per_window", mean(column(rec.plain, func(m *measured) float64 { return m.sends })), "count")
	res.put("cost_ratio", median(ratios), "ratio")
	res.put("peak_rss_mb", rec.rssMB, "MB")
}

// medianWindow picks, among the traced windows whose spans were retained,
// the one whose round time is nearest the traced median.
func medianWindow(rec *recording) []span {
	rounds := column(rec.traces, func(m *measured) float64 { return m.roundS })
	med := median(rounds)
	best := -1
	for i, spans := range rec.retained {
		if spans != nil && (best < 0 || math.Abs(rounds[i]-med) < math.Abs(rounds[best]-med)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return rec.retained[best]
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	file, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

// goroutineSampler tracks the process's goroutine high-water mark from a
// 1 kHz ticker; only per-layer runs pay for it.
type goroutineSampler struct {
	peak atomic.Int64
	done chan struct{}
	wg   sync.WaitGroup
}

func (s *goroutineSampler) start() {
	s.done = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > s.peak.Load() {
					s.peak.Store(n)
				}
			}
		}
	}()
}

func (s *goroutineSampler) stop() {
	close(s.done)
	s.wg.Wait()
}
