package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTCPPair(t *testing.T, h Handler) (server, client Node) {
	t.Helper()
	net := NewTCPNetwork()
	server, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	client, err = net.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return server, client
}

func TestTCPSendReceive(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	req, _ := NewMessage("ping", "", map[string]int{"k": 3})
	resp, err := client.Send(context.Background(), server.Name(), req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]int
	if err := resp.DecodeBody(&body); err != nil || body["k"] != 3 {
		t.Fatalf("resp body = %s err = %v", resp.Body, err)
	}
}

func TestTCPSendStampsFromWithAddress(t *testing.T) {
	var gotFrom string
	var mu sync.Mutex
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		mu.Lock()
		gotFrom = req.From
		mu.Unlock()
		return Message{Type: "ok"}, nil
	})
	if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotFrom != client.Name() {
		t.Fatalf("From = %q, want client address %q", gotFrom, client.Name())
	}
}

func TestTCPHandlerErrorPropagates(t *testing.T) {
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		return Message{}, fmt.Errorf("storage exploded")
	})
	_, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"})
	if err == nil || !strings.Contains(err.Error(), "storage exploded") {
		t.Fatalf("err = %v, want remote error text", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	_, client := newTCPPair(t, echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// Port 1 on localhost: connection refused.
	_, err := client.Send(ctx, "127.0.0.1:1", Message{Type: "ping"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestTCPClosedNodeRefusesSend(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	client.Close()
	if _, err := client.Send(context.Background(), server.Name(), Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPCloseStopsServing(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := client.Send(ctx, server.Name(), Message{Type: "ping"}); err == nil {
		t.Fatal("send to closed server succeeded")
	}
	// Double close is fine.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	var mu sync.Mutex
	count := 0
	server, _ := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return Message{Type: "ok"}, nil
	})
	net := NewTCPNetwork()
	const workers, each = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node, err := net.Listen("127.0.0.1:0", echoHandler)
			if err != nil {
				errs <- err
				return
			}
			defer node.Close()
			for j := 0; j < each; j++ {
				if _, err := node.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != workers*each {
		t.Fatalf("server saw %d requests, want %d", count, workers*each)
	}
}

func TestTCPLargePayload(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	big := make([]float64, 50000)
	for i := range big {
		big[i] = float64(i) * 1.5
	}
	req, err := NewMessage("bulk", "", big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Send(context.Background(), server.Name(), req)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	if err := resp.DecodeBody(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(big) || out[49999] != big[49999] {
		t.Fatal("large payload corrupted")
	}
}

// --- connection pool ------------------------------------------------------

// watchTCPLeaks fails the test if, once every node it started is closed,
// the fabric still counts a pooled or served connection or a goroutine is
// left over. Register it before the nodes so it runs after their cleanup.
func watchTCPLeaks(t *testing.T) {
	t.Helper()
	base, goroutines := TCPPoolStats(), runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, g := TCPPoolStats(), runtime.NumGoroutine()
			if st.Idle == base.Idle && st.Served == base.Served && g <= goroutines {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("after Close: idle %d (was %d), served %d (was %d), goroutines %d (were %d)",
					st.Idle, base.Idle, st.Served, base.Served, g, goroutines)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// countingHandler echoes and counts the requests it handled.
func countingHandler(n *atomic.Int64) Handler {
	return func(ctx context.Context, req Message) (Message, error) {
		n.Add(1)
		return echoHandler(ctx, req)
	}
}

func servedConns(n Node) int {
	nd := n.(*tcpNode)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.served)
}

func TestTCPPoolReusesConnections(t *testing.T) {
	watchTCPLeaks(t)
	var handled atomic.Int64
	server, client := newTCPPair(t, countingHandler(&handled))
	before := TCPPoolStats()

	const sequential = 50
	for i := 0; i < sequential; i++ {
		if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	st := TCPPoolStats()
	if dials := st.Dials - before.Dials; dials != 1 || servedConns(server) != 1 {
		t.Fatalf("%d sequential sends: %d dials, %d accepted connections, want 1 and 1", sequential, dials, servedConns(server))
	}
	if reuses := st.Reuses - before.Reuses; reuses != sequential-1 {
		t.Fatalf("reuses = %d, want %d", reuses, sequential-1)
	}

	const workers, each = maxIdlePerPeer, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st = TCPPoolStats()
	if dials := st.Dials - before.Dials; dials > workers || servedConns(server) > workers {
		t.Fatalf("%d concurrent senders: %d dials, %d accepted connections, want at most %d",
			workers, dials, servedConns(server), workers)
	}
	if got := handled.Load(); got != sequential+workers*each {
		t.Fatalf("handler ran %d times, want %d", got, sequential+workers*each)
	}
	if st.Redials != before.Redials {
		t.Fatalf("redials = %d on a healthy peer", st.Redials-before.Redials)
	}
}

func TestTCPPoolRedialsRestartedPeer(t *testing.T) {
	watchTCPLeaks(t)
	var handled atomic.Int64
	server, client := newTCPPair(t, countingHandler(&handled))
	addr := server.Name()
	if _, err := client.Send(context.Background(), addr, Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := NewTCPNetwork().Listen(addr, countingHandler(&handled))
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	before := TCPPoolStats()
	// The pooled connection is dead; the send must not surface that.
	if _, err := client.Send(context.Background(), addr, Message{Type: "ping"}); err != nil {
		t.Fatalf("send after peer restart: %v", err)
	}
	if got := TCPPoolStats().Redials - before.Redials; got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handler ran %d times for 2 successful sends", got)
	}
}

func TestTCPCloseWithIdlePeerConnections(t *testing.T) {
	watchTCPLeaks(t)
	server, _ := newTCPPair(t, echoHandler)
	peers := make([]Node, 4)
	for i := range peers {
		p, err := NewTCPNetwork().Listen("127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
		if _, err := p.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := servedConns(server); got != len(peers) {
		t.Fatalf("server holds %d connections, want %d", got, len(peers))
	}
	closed := make(chan error, 1)
	go func() { closed <- server.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs while peers hold idle connections")
	}
	for _, p := range peers {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := p.Send(ctx, server.Name(), Message{Type: "ping"})
		cancel()
		if !errors.Is(err, ErrUnknownPeer) {
			t.Fatalf("send to closed peer: err = %v, want ErrUnknownPeer", err)
		}
	}
}

func TestTCPCloseCancelsHandlers(t *testing.T) {
	watchTCPLeaks(t)
	entered := make(chan struct{})
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		close(entered)
		<-ctx.Done()
		return Message{}, ctx.Err()
	})
	sent := make(chan error, 1)
	go func() {
		_, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"})
		sent <- err
	}()
	<-entered
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	// The handler ran, so the sender gets its answer, not a dead socket.
	if err := <-sent; err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want the handler's cancellation as a remote error", err)
	}
}

func TestTCPExpiredSendDoesNotCrossTalk(t *testing.T) {
	watchTCPLeaks(t)
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		if req.Type == "slow" {
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
			}
		}
		return Message{Type: req.Type + ".reply"}, nil
	})
	if _, err := client.Send(context.Background(), server.Name(), Message{Type: "warm"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := client.Send(ctx, server.Name(), Message{Type: "slow"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	for i := 0; i < 3; i++ {
		resp, err := client.Send(context.Background(), server.Name(), Message{Type: "fast"})
		if err != nil || resp.Type != "fast.reply" {
			t.Fatalf("send after an expired one: resp %q err %v, want its own reply", resp.Type, err)
		}
	}
	// Cancellation without a deadline unblocks the exchange too.
	cctx, ccancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, ccancel)
	if _, err := client.Send(cctx, server.Name(), Message{Type: "slow"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if resp, err := client.Send(context.Background(), server.Name(), Message{Type: "fast"}); err != nil || resp.Type != "fast.reply" {
		t.Fatalf("send after a cancelled one: resp %q err %v", resp.Type, err)
	}
}

func TestTCPHandlerErrorKeepsConnection(t *testing.T) {
	watchTCPLeaks(t)
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		if req.Type == "bad" {
			return Message{}, fmt.Errorf("refused")
		}
		return Message{Type: "ok"}, nil
	})
	before := TCPPoolStats()
	for _, typ := range []string{"good", "bad", "good", "bad", "good"} {
		_, err := client.Send(context.Background(), server.Name(), Message{Type: typ})
		if (err != nil) != (typ == "bad") {
			t.Fatalf("%s: err = %v", typ, err)
		}
	}
	if dials := TCPPoolStats().Dials - before.Dials; dials != 1 {
		t.Fatalf("%d dials across error replies, want 1", dials)
	}
}

func TestTCPSendAfterCloseLeaksNothing(t *testing.T) {
	watchTCPLeaks(t)
	server, client := newTCPPair(t, echoHandler)
	if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	before := TCPPoolStats()
	client.Close()
	if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	st := TCPPoolStats()
	if st.Dials != before.Dials || st.Idle != before.Idle-1 {
		t.Fatalf("after Close: dials %d→%d, idle %d→%d; want no dial and the pooled connection gone",
			before.Dials, st.Dials, before.Idle, st.Idle)
	}
}

// A node that notified many one-shot peers never addresses them again, so
// no checkout would ever age their connections out: check-in has to.
func TestTCPPoolSweepsAgedConnections(t *testing.T) {
	watchTCPLeaks(t)
	server, client := newTCPPair(t, echoHandler)
	const oneShots = 5
	for i := 0; i < oneShots; i++ {
		p, err := NewTCPNetwork().Listen("127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := client.Send(context.Background(), p.Name(), Message{Type: "notify"}); err != nil {
			t.Fatal(err)
		}
	}
	before := TCPPoolStats()
	nd := client.(*tcpNode)
	nd.mu.Lock()
	long := time.Now().Add(-2 * maxIdleAge)
	for _, conns := range nd.idle {
		for _, c := range conns {
			c.idleSince = long
		}
	}
	nd.swept = long
	nd.mu.Unlock()
	if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	nd.mu.Lock()
	peers := len(nd.idle)
	nd.mu.Unlock()
	if st := TCPPoolStats(); peers != 1 || st.Idle != before.Idle-oneShots+1 {
		t.Fatalf("after the sweep: %d peers pooled, idle %d→%d; want only the live peer's connection",
			peers, before.Idle, st.Idle)
	}
}

func TestTCPStalledFrameReleasesServer(t *testing.T) {
	watchTCPLeaks(t)
	const frameTO = 50 * time.Millisecond
	server, err := listenTCP("127.0.0.1:0", echoHandler, time.Second, frameTO)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// Half a length prefix, then silence: the server hangs up.
	stalled, err := net.Dial("tcp", server.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stalled.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read on a stalled connection: %v, want the server's hang-up", err)
	}

	// Silence between requests is not a stall.
	idle, err := net.Dial("tcp", server.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	time.Sleep(3 * frameTO)
	if err := WriteFrame(idle, Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, err := ReadFrame(idle); err != nil || resp.Type != "echo" {
		t.Fatalf("request after idling: resp %q err %v", resp.Type, err)
	}
}

// --- benchmarks -----------------------------------------------------------

func BenchmarkTCPRoundTrip(b *testing.B) {
	network := NewTCPNetwork()
	server, err := network.Listen("127.0.0.1:0", func(ctx context.Context, req Message) (Message, error) {
		return Message{Type: "ack", Body: req.Body}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := network.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req := Message{Type: "lddm.mu", Body: make([]byte, 100)}
	send := func(b *testing.B) {
		if _, err := client.Send(context.Background(), server.Name(), req); err != nil {
			b.Error(err)
		}
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			send(b)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				send(b)
			}
		})
	})
}
