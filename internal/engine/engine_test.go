package engine

import (
	"context"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edr/internal/opt"
)

// num is the toy algorithms' body and reply: one number, eight bytes on
// the wire.
type num float64

func (n num) MarshalBinary() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(float64(n))), nil
}

func (n *num) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("toy number of %d bytes", len(b))
	}
	*n = num(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	return nil
}

// numReply is the reply carrying v.
func numReply(v float64) Reply {
	b, _ := num(v).MarshalBinary()
	return Reply{Verb: "toy.ack", Body: b}
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
		return Reply{}, errors.New("peer down")
	}
	return numReply(t.values[addr]), nil
}

func (t *fakeTransport) Replica(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
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

func (a *sumAlg) Init(rd *Round) (Exchange, error) {
	a.rd = rd
	a.inits++
	a.pulled = make([]float64, len(rd.ReplicaAddrs))
	return Exchange{
		Verb: "toy.pull",
		Body: func(int) encoding.BinaryMarshaler { return nil },
		Fold: func(i int, r Reply) error {
			return r.Decode((*num)(&a.pulled[i]))
		},
	}, nil
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
	k    int // the iteration the next wave runs
	fold func(i int, r Reply) error
}

func (a *waveAlg) Init(*Round) (Exchange, error) {
	a.k = 1
	fold := a.fold
	if fold == nil {
		fold = discard
	}
	return Exchange{Verb: "toy.wave", Body: func(int) encoding.BinaryMarshaler { return num(a.k) }, Fold: fold}, nil
}

func (a *waveAlg) Converged(k int) (float64, bool) {
	a.k = k + 1
	return 1, false
}

func discard(int, Reply) error { return nil }

func (a *waveAlg) Recover() ([]float64, error) { return []float64{0}, nil }

// funcTransport adapts a function to Transport.
type funcTransport func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error)

func (f funcTransport) Replica(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
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
// calls, |N| per iteration. The waves run on the goroutine calling Run and
// |N|−1 helpers that live for the round: at most |N| goroutines ever send,
// however many waves the round runs, so none is started per wave, and none
// is left once Run returns.
func TestDriverOneWavePerIterationOnRoundSenders(t *testing.T) {
	const replicas, iters = 5, 40
	base := watchGoroutines(t)
	var (
		mu      sync.Mutex
		calls   int
		perIter = map[int]int{}
		senders = map[string]bool{} // goroutine ids that sent
		peak    int
	)
	tr := funcTransport(func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
		id, g := goid(), runtime.NumGoroutine()
		mu.Lock()
		defer mu.Unlock()
		calls++
		perIter[int(body.(num))]++
		senders[id] = true
		peak = max(peak, g)
		return Reply{}, nil
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
	if len(senders) > replicas {
		t.Fatalf("%d goroutines sent over %d waves, want at most the %d the round starts with", len(senders), iters, replicas)
	}
	// The goroutine calling Run is in base; the round adds |N|−1 helpers.
	if peak > base+replicas-1 {
		t.Fatalf("goroutines peaked at %d during the round, baseline %d + %d helpers", peak, base, replicas-1)
	}
}

// A blocked send holds up only its own claimant: in every wave the first
// send to start waits until every other send of its wave has started,
// which the wave's other claimants must reach without it.
func TestDriverBlockedSendDoesNotHoldItsWave(t *testing.T) {
	const replicas, iters = 6, 50
	watchGoroutines(t)
	var (
		mu      sync.Mutex
		started = map[int]int{}
		allIn   = map[int]chan struct{}{}
	)
	tr := funcTransport(func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
		k := int(body.(num))
		mu.Lock()
		started[k]++
		n := started[k]
		if allIn[k] == nil {
			allIn[k] = make(chan struct{})
		}
		in := allIn[k]
		if n == replicas {
			close(in)
		}
		mu.Unlock()
		if n == 1 {
			select {
			case <-in:
			case <-time.After(10 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				return Reply{}, fmt.Errorf("wave %d: %d of %d sends started while the first was blocked", k, started[k], replicas)
			}
		}
		return Reply{}, nil
	})
	d := &Driver{Transport: tr}
	if _, _, err := d.Run(context.Background(), &waveAlg{}, waveRound(replicas, iters)); err != nil {
		t.Fatal(err)
	}
}

// A send that fails while indexes of its wave are still unclaimed ends the
// wave: those sends are skipped, not started, and exec still waits for the
// sends already started before it returns. The wave is six replicas wide
// but claimed by two goroutines, exec's and one helper, so indexes are
// certain to be unclaimed when the failure hits, whatever the scheduler
// does: the first send fails once the second has started, and the second
// runs on after the failure.
func TestExecSkipsUnclaimedIndexesAfterError(t *testing.T) {
	const replicas, claimants = 6, 2
	watchGoroutines(t)
	var started, finished atomic.Int32
	secondIn := make(chan struct{})
	d := &Driver{Transport: funcTransport(func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
		defer finished.Add(1)
		switch started.Add(1) {
		case 1:
			<-secondIn
			return Reply{}, errors.New("boom")
		case 2:
			close(secondIn)
			<-ctx.Done() // the first send's error cancels the wave
			time.Sleep(5 * time.Millisecond)
			return Reply{}, ctx.Err()
		}
		return Reply{}, nil
	})}
	addrs := waveRound(replicas, 0).ReplicaAddrs
	d.startHelpers(addrs[:claimants])
	defer d.stopHelpers()
	w := &d.wave
	w.addrs, w.n = addrs, replicas
	w.next.Store(w.n)
	err := d.exec(context.Background(), bareExchange)
	s, f := started.Load(), finished.Load()
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if s != f {
		t.Fatalf("exec returned with %d sends started and %d finished", s, f)
	}
	if s != claimants {
		t.Fatalf("%d sends of the failed wave started, want the %d in flight when it failed and the rest skipped", s, claimants)
	}
}

// The helpers are stopped on every return path.
func TestDriverStopsSendersOnError(t *testing.T) {
	t.Run("replica error", func(t *testing.T) {
		watchGoroutines(t)
		tr := funcTransport(func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
			if body.(num) == 3 && addr == "r1" {
				return Reply{}, errors.New("peer down")
			}
			return Reply{}, nil
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
		tr := funcTransport(func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
			if body.(num) < 3 {
				return Reply{}, nil
			}
			// Iteration 3: every send blocks; the last one in gives up on
			// the round.
			if waiting.Add(1) == 4 {
				cancel()
			}
			<-ctx.Done()
			return Reply{}, ctx.Err()
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
	tr := funcTransport(func(ctx context.Context, addr, verb string, body encoding.BinaryMarshaler) (Reply, error) {
		if addr == "r0" {
			<-inFold // fail only once r1 is inside its Fold
			return Reply{}, errors.New("boom")
		}
		waveCtx.Store(ctx)
		return Reply{}, nil
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

// bareExchange sends empty bodies and discards the replies, so a wave
// allocates nothing of its own.
var bareExchange = Exchange{Verb: "toy.wave", Body: func(int) encoding.BinaryMarshaler { return nil }, Fold: discard}

// bareAlg is waveAlg running bareExchange.
type bareAlg struct{ waveAlg }

func (a *bareAlg) Init(*Round) (Exchange, error) { return bareExchange, nil }

// BenchmarkEngineExchange is one wave over 10 replicas on a no-op
// transport: the engine's own cost per iteration. A wave must not spawn
// and hands nothing to a goroutine — the driver claims sends itself — so
// what is left is the wave context (2 allocs/op) and the helpers' wake-ups.
func BenchmarkEngineExchange(b *testing.B) {
	tr := funcTransport(func(context.Context, string, string, encoding.BinaryMarshaler) (Reply, error) {
		return Reply{}, nil
	})
	d := &Driver{Transport: tr}
	alg := &bareAlg{}
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
		Name:   "TEST-ALG",
		New:    func() Algorithm { return &sumAlg{} },
		Server: loopServer{},
		Verb:   "test.alg.step",
	})
	if _, ok := Lookup("TEST-ALG"); !ok {
		t.Fatal("registered algorithm not found")
	}
	if reg, ok := ServerFor("test.alg.step"); !ok || reg.Name != "TEST-ALG" || reg.Ack != "test.alg.step.ack" {
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
	newAlg := func() Algorithm { return &sumAlg{} }
	Register(Registration{Name: "TEST-DUP", New: newAlg, Server: loopServer{}, Verb: "test.dup.step"})
	mustPanic("dup name", Registration{Name: "TEST-DUP", New: newAlg, Server: loopServer{}, Verb: "test.dup.other"})
	mustPanic("dup verb", Registration{Name: "TEST-DUP2", New: newAlg, Server: loopServer{}, Verb: "test.dup.step"})
	mustPanic("no factory", Registration{Name: "TEST-DUP3", Server: loopServer{}, Verb: "test.dup.three"})
	mustPanic("no verb", Registration{Name: "TEST-DUP4", New: newAlg, Server: loopServer{}})
	mustPanic("no server half", Registration{Name: "TEST-DUP5", New: newAlg, Verb: "test.dup.five"})
	for _, name := range []string{"TEST-DUP2", "TEST-DUP3", "TEST-DUP4", "TEST-DUP5"} {
		if _, ok := Lookup(name); ok {
			t.Fatalf("%s registered despite the panic", name)
		}
	}
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
