package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edr/internal/opt"
)

// fakeReply wraps an in-process value behind the Reply interface.
type fakeReply struct{ v float64 }

func (f fakeReply) Decode(into any) error {
	p, ok := into.(*float64)
	if !ok {
		return fmt.Errorf("fake reply decodes into *float64, got %T", into)
	}
	*p = f.v
	return nil
}

// fakeTransport answers every send with the peer's configured value and
// records traffic per verb.
type fakeTransport struct {
	mu     sync.Mutex
	values map[string]float64
	sent   map[string]int
	failOn string // addr whose sends error
}

func (t *fakeTransport) roundTrip(addr, verb string) (Reply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sent == nil {
		t.sent = make(map[string]int)
	}
	t.sent[verb]++
	if addr == t.failOn {
		return nil, errors.New("peer down")
	}
	return fakeReply{v: t.values[addr]}, nil
}

func (t *fakeTransport) Replica(ctx context.Context, addr, verb string, body any) (Reply, error) {
	return t.roundTrip(addr, verb)
}

// sumAlg is a toy Algorithm: each iteration pulls one value per replica,
// accumulates the total, and converges when the total reaches target.
type sumAlg struct {
	rd       *Round
	total    float64
	target   float64
	pulled   []float64
	inits    int
	recovers int
}

func (a *sumAlg) Init(rd *Round) error {
	a.rd = rd
	a.inits++
	a.pulled = make([]float64, len(rd.ReplicaAddrs))
	return nil
}

func (a *sumAlg) Iterate(k int) []Exchange {
	return []Exchange{{
		Verb: "toy.pull",
		Fold: func(i int, r Reply) error {
			return r.Decode(&a.pulled[i])
		},
	}}
}

func (a *sumAlg) Converged(k int) (float64, bool) {
	for _, v := range a.pulled {
		a.total += v
	}
	residual := a.target - a.total
	return residual, residual <= 0
}

func (a *sumAlg) Recover() ([]float64, error) {
	a.recovers++
	return []float64{a.total}, nil
}

func (a *sumAlg) Primal() []float64 { return nil }

func testRound() *Round {
	return &Round{
		Seq:          1,
		ReplicaAddrs: []string{"r1", "r2"},
		MaxIters:     10,
	}
}

func TestDriverRunsUntilConverged(t *testing.T) {
	tr := &fakeTransport{values: map[string]float64{"r1": 1, "r2": 2}}
	alg := &sumAlg{target: 9} // 3 per iteration → done after 3
	d := &Driver{Transport: tr}
	final, iters, err := d.Run(context.Background(), alg, testRound())
	if err != nil {
		t.Fatal(err)
	}
	if iters != 3 {
		t.Fatalf("iterations = %d, want 3", iters)
	}
	if final[0] != 9 {
		t.Fatalf("recovered %v, want 9", final[0])
	}
	if alg.inits != 1 || alg.recovers != 1 {
		t.Fatalf("inits=%d recovers=%d, want 1/1", alg.inits, alg.recovers)
	}
	if tr.sent["toy.pull"] != 6 {
		t.Fatalf("sent %d pulls, want 6", tr.sent["toy.pull"])
	}
}

func TestDriverStopsAtMaxIters(t *testing.T) {
	tr := &fakeTransport{values: map[string]float64{"r1": 0, "r2": 0}}
	alg := &sumAlg{target: 1} // never reached
	d := &Driver{Transport: tr}
	_, iters, err := d.Run(context.Background(), alg, testRound())
	if err != nil {
		t.Fatal(err)
	}
	if iters != 10 {
		t.Fatalf("iterations = %d, want MaxIters 10", iters)
	}
}

func TestDriverObservesTrajectory(t *testing.T) {
	tr := &fakeTransport{values: map[string]float64{"r1": 1, "r2": 2}}
	alg := &sumAlg{target: 6}
	var residuals []float64
	d := &Driver{
		Transport: tr,
		Observe:   true,
		OnIterate: func(iter int, residual, cost float64) {
			residuals = append(residuals, residual)
		},
	}
	if _, _, err := d.Run(context.Background(), alg, testRound()); err != nil {
		t.Fatal(err)
	}
	if len(residuals) != 2 || residuals[0] != 3 || residuals[1] != 0 {
		t.Fatalf("residual trajectory %v, want [3 0]", residuals)
	}
}

func TestDriverUnobservedSkipsCallback(t *testing.T) {
	tr := &fakeTransport{values: map[string]float64{"r1": 1, "r2": 2}}
	alg := &sumAlg{target: 3}
	d := &Driver{
		Transport: tr,
		Observe:   false,
		OnIterate: func(int, float64, float64) { t.Fatal("OnIterate called while unobserved") },
	}
	if _, _, err := d.Run(context.Background(), alg, testRound()); err != nil {
		t.Fatal(err)
	}
}

func TestDriverReplicaErrorAborts(t *testing.T) {
	tr := &fakeTransport{values: map[string]float64{"r1": 1}, failOn: "r2"}
	alg := &sumAlg{target: 100}
	d := &Driver{Transport: tr}
	_, _, err := d.Run(context.Background(), alg, testRound())
	if err == nil || !strings.Contains(err.Error(), "peer down") {
		t.Fatalf("err = %v, want peer down", err)
	}
	if alg.recovers != 0 {
		t.Fatal("Recover ran after a failed iteration")
	}
}

func TestDriverDefaultsAndReleasesPool(t *testing.T) {
	tr := &fakeTransport{values: map[string]float64{"r1": 1, "r2": 2}}
	rd := testRound()
	d := &Driver{Transport: tr}
	if _, _, err := d.Run(context.Background(), d.poolProbe(t, rd), rd); err != nil {
		t.Fatal(err)
	}
}

// poolProbe returns an Algorithm that asserts the driver installed a Pool
// before Init and that Pool buffers are usable.
func (d *Driver) poolProbe(t *testing.T, rd *Round) Algorithm {
	t.Helper()
	return &probeAlg{t: t}
}

type probeAlg struct {
	t *testing.T
	sumAlg
}

func (p *probeAlg) Init(rd *Round) error {
	if rd.Pool == nil {
		p.t.Fatal("driver did not default the pool")
	}
	if v := rd.Pool.Vector(3); len(v) != 3 {
		p.t.Fatalf("pool vector len %d", len(v))
	}
	p.target = 3
	return p.sumAlg.Init(rd)
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:") — test-only, to tell senders apart.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// waveAlg is a toy Algorithm for the driver's wave mechanics: one exchange
// per iteration whose body is the iteration number, never converging, with
// an optional Fold.
type waveAlg struct {
	k    int
	fold func(i int, r Reply) error
}

func (a *waveAlg) Init(*Round) error { return nil }

func (a *waveAlg) Iterate(k int) []Exchange {
	a.k = k
	return []Exchange{{Verb: "toy.wave", Body: func(int) any { return a.k }, Fold: a.fold}}
}

func (a *waveAlg) Converged(int) (float64, bool) { return 1, false }

func (a *waveAlg) Recover() ([]float64, error) { return []float64{0}, nil }

// funcTransport adapts a function to Transport.
type funcTransport func(ctx context.Context, addr, verb string, body any) (Reply, error)

func (f funcTransport) Replica(ctx context.Context, addr, verb string, body any) (Reply, error) {
	return f(ctx, addr, verb, body)
}

func waveRound(replicas, iters int) *Round {
	rd := &Round{Seq: 1, MaxIters: iters}
	for i := 0; i < replicas; i++ {
		rd.ReplicaAddrs = append(rd.ReplicaAddrs, fmt.Sprintf("r%d", i))
	}
	return rd
}

// watchGoroutines fails the test if, once it ends, more goroutines are
// alive than when it was called (the leak-watcher idiom of
// internal/transport's watchTCPLeaks).
func watchGoroutines(t *testing.T) int {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Errorf("goroutines %d after the round, %d before", runtime.NumGoroutine(), base)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	return base
}

// One iteration is one wave: a round makes exactly iters × |N| transport
// calls, |N| per iteration, and each replica is served by one goroutine for
// the whole round.
func TestDriverOneWavePerIterationOnRoundSenders(t *testing.T) {
	const replicas, iters = 5, 40
	base := watchGoroutines(t)
	var (
		mu      sync.Mutex
		calls   int
		perIter = map[int]int{}
		sender  = map[string]map[string]bool{} // addr → goroutine ids that served it
		peak    int
	)
	tr := funcTransport(func(ctx context.Context, addr, verb string, body any) (Reply, error) {
		id, g := goid(), runtime.NumGoroutine()
		mu.Lock()
		defer mu.Unlock()
		calls++
		perIter[body.(int)]++
		if sender[addr] == nil {
			sender[addr] = map[string]bool{}
		}
		sender[addr][id] = true
		peak = max(peak, g)
		return fakeReply{}, nil
	})
	d := &Driver{Transport: tr}
	_, got, err := d.Run(context.Background(), &waveAlg{}, waveRound(replicas, iters))
	if err != nil {
		t.Fatal(err)
	}
	if got != iters || calls != iters*replicas {
		t.Fatalf("iterations %d, calls %d; want %d, %d", got, calls, iters, iters*replicas)
	}
	if len(perIter) != iters {
		t.Fatalf("%d waves, want one per iteration (%d)", len(perIter), iters)
	}
	for k, n := range perIter {
		if n != replicas {
			t.Fatalf("iteration %d made %d calls, want %d", k, n, replicas)
		}
	}
	ids := map[string]bool{}
	for addr, set := range sender {
		if len(set) != 1 {
			t.Fatalf("%s was served by %d goroutines, want one sender for the round", addr, len(set))
		}
		for id := range set {
			ids[id] = true
		}
	}
	if len(ids) != replicas {
		t.Fatalf("%d distinct senders for %d replicas", len(ids), replicas)
	}
	if peak > base+replicas+2 {
		t.Fatalf("goroutines peaked at %d during the round, baseline %d + %d senders", peak, base, replicas)
	}
}

// The senders are stopped on every return path.
func TestDriverStopsSendersOnError(t *testing.T) {
	t.Run("replica error", func(t *testing.T) {
		watchGoroutines(t)
		tr := funcTransport(func(ctx context.Context, addr, verb string, body any) (Reply, error) {
			if body.(int) == 3 && addr == "r1" {
				return nil, errors.New("peer down")
			}
			return fakeReply{}, nil
		})
		d := &Driver{Transport: tr}
		if _, _, err := d.Run(context.Background(), &waveAlg{}, waveRound(4, 10)); err == nil || err.Error() != "peer down" {
			t.Fatalf("err = %v, want peer down", err)
		}
	})
	t.Run("cancel mid-wave", func(t *testing.T) {
		watchGoroutines(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var waiting atomic.Int32
		tr := funcTransport(func(ctx context.Context, addr, verb string, body any) (Reply, error) {
			if body.(int) < 3 {
				return fakeReply{}, nil
			}
			// Iteration 3: every send blocks; the last one in gives up on
			// the round.
			if waiting.Add(1) == 4 {
				cancel()
			}
			<-ctx.Done()
			return nil, ctx.Err()
		})
		d := &Driver{Transport: tr}
		if _, _, err := d.Run(ctx, &waveAlg{}, waveRound(4, 10)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// A wave keeps FanOut's contract: the first error cancels the wave's
// context, and Run returns only after every Fold has finished.
func TestExecFirstErrorCancelsWaveAndWaitsForFolds(t *testing.T) {
	watchGoroutines(t)
	var (
		waveCtx    atomic.Value // r1's wave context
		inFold     = make(chan struct{})
		foldsEnded atomic.Int32
	)
	tr := funcTransport(func(ctx context.Context, addr, verb string, body any) (Reply, error) {
		if addr == "r0" {
			<-inFold // fail only once r1 is inside its Fold
			return nil, errors.New("boom")
		}
		waveCtx.Store(ctx)
		return fakeReply{}, nil
	})
	alg := &waveAlg{fold: func(i int, r Reply) error {
		close(inFold)
		<-waveCtx.Load().(context.Context).Done() // r0's error cancels the wave
		time.Sleep(10 * time.Millisecond)
		foldsEnded.Add(1)
		return nil
	}}
	d := &Driver{Transport: tr}
	_, _, err := d.Run(context.Background(), alg, waveRound(2, 5))
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if foldsEnded.Load() != 1 {
		t.Fatal("Run returned before the wave's Fold finished")
	}
}

// bareAlg is waveAlg with a body-less exchange built once, so a wave
// allocates nothing of its own.
type bareAlg struct {
	waveAlg
	exchanges []Exchange
}

func (a *bareAlg) Iterate(int) []Exchange { return a.exchanges }

// BenchmarkEngineExchange is one wave over 10 replicas on a no-op
// transport: the engine's own cost per iteration. A wave must not spawn —
// what is left is the wave context (2 allocs/op) and 10 channel hand-offs.
func BenchmarkEngineExchange(b *testing.B) {
	tr := funcTransport(func(context.Context, string, string, any) (Reply, error) { return fakeReply{}, nil })
	d := &Driver{Transport: tr}
	alg := &bareAlg{exchanges: []Exchange{{Verb: "toy.wave"}}}
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := d.Run(context.Background(), alg, waveRound(10, b.N)); err != nil {
		b.Fatal(err)
	}
}

func TestFanOutCancelsWaveOnError(t *testing.T) {
	started := make(chan struct{})
	blocked := make(chan struct{})
	err := FanOut(context.Background(), 2, 0, func(ctx context.Context, i int) error {
		if i == 0 {
			<-started // fail only once the other call is in flight
			return errors.New("boom")
		}
		// The second call waits for cancellation: FanOut must cancel the
		// wave and still wait for it to finish.
		close(started)
		<-ctx.Done()
		close(blocked)
		return ctx.Err()
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	select {
	case <-blocked:
	default:
		t.Fatal("FanOut returned before the cancelled goroutine finished")
	}
}

// A wave of any size runs on at most fanOutWidth goroutines: with every fn
// blocking, exactly fanOutWidth calls are in flight and no more start until
// one returns; every index still runs exactly once, and the goroutines are
// gone when FanOut returns.
func TestFanOutBoundsInFlightCalls(t *testing.T) {
	const count = 10 * fanOutWidth
	watchGoroutines(t)
	var (
		inFlight, peak atomic.Int32
		runs           [count]atomic.Int32
		entered        = make(chan struct{}, count)
		release        = make(chan struct{})
		done           = make(chan error, 1)
	)
	go func() {
		done <- FanOut(context.Background(), count, 0, func(ctx context.Context, i int) error {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runs[i].Add(1)
			entered <- struct{}{}
			<-release
			inFlight.Add(-1)
			return nil
		})
	}()
	for i := 0; i < fanOutWidth; i++ {
		<-entered
	}
	// All workers are parked inside fn; a 257th call would show up here.
	select {
	case <-entered:
		t.Fatalf("more than fanOutWidth = %d calls in flight", fanOutWidth)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != fanOutWidth {
		t.Errorf("peak in-flight calls = %d, want %d", got, fanOutWidth)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}

// After an error the indices not yet started are skipped, and FanOut
// returns only when every started call has.
func TestFanOutSkipsUnstartedAfterError(t *testing.T) {
	const count = 4 * fanOutWidth
	watchGoroutines(t)
	var (
		started, finished atomic.Int32
		allIn             = make(chan struct{})
	)
	err := FanOut(context.Background(), count, 0, func(ctx context.Context, i int) error {
		if started.Add(1) == fanOutWidth {
			close(allIn) // every worker holds a call: fail the wave now
		}
		<-allIn
		defer finished.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		<-ctx.Done()
		time.Sleep(5 * time.Millisecond)
		return ctx.Err()
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("FanOut returned with %d calls started and %d finished", s, f)
	}
	if s := started.Load(); s != fanOutWidth {
		t.Errorf("%d calls started, want only the %d in flight when the error hit", s, fanOutWidth)
	}
}

// A wave no wider than fanOutWidth has all its calls in flight at once — the
// one-round-trip-per-wave property: a barrier every call must reach before
// any returns would deadlock otherwise.
func TestFanOutRunsNarrowWaveAllAtOnce(t *testing.T) {
	for _, count := range []int{1, 10, 100, fanOutWidth} {
		var barrier sync.WaitGroup
		barrier.Add(count)
		done := make(chan error, 1)
		go func() {
			done <- FanOut(context.Background(), count, 0, func(context.Context, int) error {
				barrier.Done()
				barrier.Wait()
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("a %d-call wave did not run all at once", count)
		}
	}
}

func TestFanOutEmpty(t *testing.T) {
	if err := FanOut(context.Background(), 0, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// A wave whose goroutines send in sequence past 1/rearmShare of the
// timeout re-arms: every first attempt starts with at least
// (rearmShare−1)/rearmShare of the timeout left, where one shared deadline
// would leave the last ones a fraction of it.
func TestFanOutWaveDeadlineRearms(t *testing.T) {
	const (
		timeout = 320 * time.Millisecond
		perSend = 10 * time.Millisecond
		rounds  = 8 // sends per goroutine: 80ms, four times the re-arm slack
		count   = rounds * fanOutWidth
		// Allowance for the gap between a goroutine's check and fn reading
		// the clock, which a loaded or race-instrumented run can stretch.
		// Without re-arming the last sends would start with 250ms left,
		// well under the 280ms this still demands.
		slack = timeout / rearmShare
	)
	watchGoroutines(t)
	var (
		mu        sync.Mutex
		deadlines = map[time.Time]bool{}
		worst     = timeout
	)
	err := FanOut(context.Background(), count, timeout, func(ctx context.Context, i int) error {
		first, ok := FirstAttempt(ctx)
		if !ok {
			return errors.New("wave context carries no first-attempt context")
		}
		dl, ok := first.Deadline()
		if !ok {
			return errors.New("first-attempt context has no deadline")
		}
		left := time.Until(dl)
		mu.Lock()
		deadlines[dl.Round(0)] = true
		worst = min(worst, left)
		mu.Unlock()
		time.Sleep(perSend)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if floor := timeout - timeout/rearmShare - slack; worst < floor {
		t.Fatalf("a first attempt started with %v of its %v deadline left, want at least %v", worst, timeout, floor)
	}
	if len(deadlines) < 2 {
		t.Fatalf("a %v wave of sequential sends never re-armed its %v deadline", rounds*perSend, timeout)
	}
}

// A wave without a timeout arms nothing: FirstAttempt reports none, so a
// sender bounds its attempts itself.
func TestFanOutWithoutTimeoutArmsNothing(t *testing.T) {
	err := FanOut(context.Background(), 3, 0, func(ctx context.Context, i int) error {
		if _, ok := FirstAttempt(ctx); ok {
			return errors.New("a wave without a timeout carries a first-attempt context")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	Register(Registration{
		Name:  "TEST-ALG",
		New:   func() Algorithm { return &sumAlg{} },
		Verbs: []string{"test.alg.step"},
	})
	if _, ok := Lookup("TEST-ALG"); !ok {
		t.Fatal("registered algorithm not found")
	}
	if reg, ok := ServerFor("test.alg.step"); !ok || reg.Name != "TEST-ALG" {
		t.Fatalf("ServerFor = %v, %v", reg, ok)
	}
	if _, ok := ServerFor("test.alg.unknown"); ok {
		t.Fatal("unknown verb resolved")
	}
	found := false
	for _, n := range Names() {
		if n == "TEST-ALG" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v missing TEST-ALG", Names())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, reg Registration) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(reg)
	}
	Register(Registration{Name: "TEST-DUP", New: func() Algorithm { return &sumAlg{} }, Verbs: []string{"test.dup.step"}})
	mustPanic("dup name", Registration{Name: "TEST-DUP", New: func() Algorithm { return &sumAlg{} }})
	mustPanic("dup verb", Registration{Name: "TEST-DUP2", New: func() Algorithm { return &sumAlg{} }, Verbs: []string{"test.dup.step"}})
	mustPanic("no factory", Registration{Name: "TEST-DUP3"})
}

func TestServerRoundStateLazyAndSticky(t *testing.T) {
	sr := &ServerRound{Round: 1}
	builds := 0
	build := func() (any, error) { builds++; return &struct{ n int }{}, nil }
	first, err := sr.State("A", build)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sr.State("A", build)
	if err != nil {
		t.Fatal(err)
	}
	if first != second || builds != 1 {
		t.Fatalf("state rebuilt: builds=%d", builds)
	}
	if _, err := sr.State("B", func() (any, error) { return nil, errors.New("nope") }); err == nil {
		t.Fatal("build error swallowed")
	}
}

func TestServerRoundStateConcurrent(t *testing.T) {
	sr := &ServerRound{Round: 1}
	var wg sync.WaitGroup
	results := make([]any, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := sr.State("X", func() (any, error) { return opt.NewMatrix(2, 2), nil })
			if err != nil {
				t.Error(err)
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	for _, st := range results[1:] {
		if fmt.Sprintf("%p", st) != fmt.Sprintf("%p", results[0]) {
			t.Fatal("concurrent State calls built distinct states")
		}
	}
}
