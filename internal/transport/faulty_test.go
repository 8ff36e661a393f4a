package transport

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// newFaultyPair builds a faulty fabric over inproc with two nodes: "a"
// (the sender, echo handler) and "b" (echo handler counting deliveries).
func newFaultyPair(t *testing.T, seed uint64) (*FaultyNetwork, Node, *atomic.Int64) {
	t.Helper()
	net := NewFaultyNetwork(NewInProcNetwork(), seed)
	var delivered atomic.Int64
	echo := func(name string) Handler {
		return func(ctx context.Context, req Message) (Message, error) {
			if name == "b" {
				delivered.Add(1)
			}
			return NewMessage(req.Type+".ack", name, nil)
		}
	}
	a, err := net.Listen("a", echo("a"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := net.Listen("b", echo("b"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return net, a, &delivered
}

func send(ctx context.Context, n Node, to string) error {
	req, err := NewMessage("ping", n.Name(), nil)
	if err != nil {
		return err
	}
	_, err = n.Send(ctx, to, req)
	return err
}

func TestFaultyTransparentByDefault(t *testing.T) {
	_, a, delivered := newFaultyPair(t, 1)
	for i := 0; i < 10; i++ {
		if err := send(context.Background(), a, "b"); err != nil {
			t.Fatal(err)
		}
	}
	if got := delivered.Load(); got != 10 {
		t.Fatalf("delivered = %d, want 10", got)
	}
}

func TestFaultyDropBlackholesUntilDeadline(t *testing.T) {
	net, a, delivered := newFaultyPair(t, 7)
	net.SetLink("a", "b", Faults{Drop: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := send(ctx, a, "b")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dropped send error = %v, want deadline exceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("dropped send returned before the deadline — should black-hole")
	}
	if delivered.Load() != 0 {
		t.Fatal("dropped request reached the handler")
	}
	if st := net.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want Dropped 1", st)
	}
}

// sendJudged sends one ping from a to b and reports whether the injector
// dropped it, reading the verdict off net's counters rather than off a
// deadline: the injector judges a send before the send blocks, a dropped
// send is cancelled once judged (it would black-hole until its context
// ends), and any other send runs to delivery with no deadline to beat.
// Sends must not overlap.
func sendJudged(t *testing.T, net *FaultyNetwork, a Node) (dropped bool) {
	t.Helper()
	before := net.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- send(ctx, a, "b") }()
	st := net.Stats()
	for st.Sent == before.Sent {
		runtime.Gosched()
		st = net.Stats()
	}
	if st.Dropped > before.Dropped {
		cancel()
		<-done
		return true
	}
	if err := <-done; err != nil {
		t.Fatalf("send the injector let through failed: %v", err)
	}
	return false
}

func TestFaultyDropRateIsStatistical(t *testing.T) {
	net, a, delivered := newFaultyPair(t, 42)
	net.SetLink("a", "b", Faults{Drop: 0.5})
	const n = 400
	for i := 0; i < n; i++ {
		sendJudged(t, net, a)
	}
	got := delivered.Load()
	if got < n/4 || got > 3*n/4 {
		t.Fatalf("delivered %d of %d at 50%% drop — injector is biased", got, n)
	}
	st := net.Stats()
	if st.Dropped+got != n {
		t.Fatalf("dropped %d + delivered %d != sent %d", st.Dropped, got, n)
	}
}

func TestFaultySeededDeterminism(t *testing.T) {
	// Same seed, same single-threaded schedule → identical verdicts.
	verdicts := func(seed uint64) []bool {
		net, a, _ := newFaultyPair(t, seed)
		net.SetDefault(Faults{Drop: 0.3})
		var dropped []bool
		for i := 0; i < 50; i++ {
			dropped = append(dropped, sendJudged(t, net, a))
		}
		return dropped
	}
	x, y := verdicts(99), verdicts(99)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("send %d differed across identically seeded runs", i)
		}
	}
}

func TestFaultyDelayAndJitter(t *testing.T) {
	net, a, _ := newFaultyPair(t, 3)
	net.SetLink("a", "b", Faults{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	start := time.Now()
	if err := send(context.Background(), a, "b"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed send took %v, want ≥ 10ms", d)
	}
	if st := net.Stats(); st.Delayed != 1 {
		t.Fatalf("stats = %+v, want Delayed 1", st)
	}
	// A context shorter than the delay aborts without delivery.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := send(ctx, a, "b"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short-deadline delayed send error = %v", err)
	}
}

func TestFaultyDuplication(t *testing.T) {
	net, a, delivered := newFaultyPair(t, 5)
	net.SetLink("a", "b", Faults{Dup: 1})
	if err := send(context.Background(), a, "b"); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != 2 {
		t.Fatalf("handler ran %d times for a duplicated send, want 2", got)
	}
	if st := net.Stats(); st.Duplicated != 1 {
		t.Fatalf("stats = %+v, want Duplicated 1", st)
	}
}

func TestFaultyOneWayCut(t *testing.T) {
	net, a, _ := newFaultyPair(t, 11)
	net.SetLink("a", "b", Faults{Cut: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := send(ctx, a, "b"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut link send error = %v", err)
	}
	// The reverse direction still works: find b's node via a fresh send
	// from b — easiest by registering a third node and checking b→a...
	// Here the cut is one-way by construction; assert a→b blocked only.
	if st := net.Stats(); st.CutOff != 1 {
		t.Fatalf("stats = %+v, want CutOff 1", st)
	}
}

func TestFaultyPartitionAndHeal(t *testing.T) {
	net := NewFaultyNetwork(NewInProcNetwork(), 13)
	nodes := map[string]Node{}
	for _, name := range []string{"a", "b", "c"} {
		n, err := net.Listen(name, func(ctx context.Context, req Message) (Message, error) {
			return NewMessage("ack", name, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[name] = n
	}
	net.Partition([]string{"c"}, []string{"a", "b"})
	short := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 5*time.Millisecond)
	}
	ctx, cancel := short()
	if err := send(ctx, nodes["a"], "c"); err == nil {
		t.Fatal("a reached partitioned c")
	}
	cancel()
	ctx, cancel = short()
	if err := send(ctx, nodes["c"], "b"); err == nil {
		t.Fatal("partitioned c reached b")
	}
	cancel()
	// Links inside the majority side still work.
	if err := send(context.Background(), nodes["a"], "b"); err != nil {
		t.Fatalf("a→b inside majority failed: %v", err)
	}
	net.Heal()
	if err := send(context.Background(), nodes["a"], "c"); err != nil {
		t.Fatalf("a→c after heal failed: %v", err)
	}
	if err := send(context.Background(), nodes["c"], "b"); err != nil {
		t.Fatalf("c→b after heal failed: %v", err)
	}
}

func TestFaultyCrashAndRecover(t *testing.T) {
	net, a, delivered := newFaultyPair(t, 17)
	net.Crash("b")
	// Crash fails fast (refusal), not by timeout.
	start := time.Now()
	err := send(context.Background(), a, "b")
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to crashed node error = %v, want ErrUnknownPeer", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("crashed-node refusal was not fast")
	}
	if delivered.Load() != 0 {
		t.Fatal("crashed node handled a request")
	}
	net.Recover("b")
	if err := send(context.Background(), a, "b"); err != nil {
		t.Fatalf("send after recover failed: %v", err)
	}
	if delivered.Load() != 1 {
		t.Fatal("recovered node did not handle the request")
	}
}

func TestFaultyCrashedSenderFailsClosed(t *testing.T) {
	net, a, _ := newFaultyPair(t, 19)
	net.Crash("a")
	if err := send(context.Background(), a, "b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from crashed node error = %v, want ErrClosed", err)
	}
}

func TestFaultyHealPreservesDropProfile(t *testing.T) {
	net, a, _ := newFaultyPair(t, 23)
	net.SetLink("a", "b", Faults{Drop: 1})
	net.Partition([]string{"a"}, []string{"b"})
	net.Heal()
	// The partition is gone but the drop profile remains.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := send(ctx, a, "b"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drop profile lost after Heal: %v", err)
	}
	st := net.Stats()
	if st.Dropped != 1 || st.CutOff != 0 {
		t.Fatalf("stats = %+v, want Dropped 1 CutOff 0", st)
	}
}

func TestFaultyWrapsTCP(t *testing.T) {
	// The wrapper is fabric-agnostic: a drop on a TCP link black-holes too.
	net := NewFaultyNetwork(NewTCPNetwork(), 29)
	srv, err := net.Listen("127.0.0.1:0", func(ctx context.Context, req Message) (Message, error) {
		return NewMessage("ack", "srv", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := net.Listen("127.0.0.1:0", func(ctx context.Context, req Message) (Message, error) {
		return NewMessage("ack", "cli", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := send(context.Background(), cli, srv.Name()); err != nil {
		t.Fatalf("clean TCP send failed: %v", err)
	}
	net.SetDefault(Faults{Drop: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := send(ctx, cli, srv.Name()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TCP drop error = %v", err)
	}
}
