package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func echoHandler(ctx context.Context, req Message) (Message, error) {
	return Message{Type: "echo", From: "server", Body: req.Body}, nil
}

func TestInProcSendReceive(t *testing.T) {
	net := NewInProcNetwork()
	if _, err := net.Listen("server", echoHandler); err != nil {
		t.Fatal(err)
	}
	client, err := net.Listen("client", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := NewMessage("ping", "client", textBody("hello"))
	resp, err := client.Send(context.Background(), "server", req)
	if err != nil {
		t.Fatal(err)
	}
	var body textBody
	if err := resp.DecodeBody(&body); err != nil || body != "hello" {
		t.Fatalf("resp = %+v, err = %v", resp, err)
	}
}

func TestInProcSendSetsFrom(t *testing.T) {
	net := NewInProcNetwork()
	var gotFrom string
	net.Listen("server", func(ctx context.Context, req Message) (Message, error) {
		gotFrom = req.From
		return Message{}, nil
	})
	client, _ := net.Listen("alice", echoHandler)
	req, _ := NewMessage("ping", "spoofed", nil)
	if _, err := client.Send(context.Background(), "server", req); err != nil {
		t.Fatal(err)
	}
	if gotFrom != "alice" {
		t.Fatalf("From = %q, want alice (fabric must stamp sender)", gotFrom)
	}
}

func TestInProcUnknownPeer(t *testing.T) {
	net := NewInProcNetwork()
	client, _ := net.Listen("client", echoHandler)
	_, err := client.Send(context.Background(), "ghost", Message{Type: "ping"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestInProcDuplicateName(t *testing.T) {
	net := NewInProcNetwork()
	if _, err := net.Listen("dup", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("dup", echoHandler); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestInProcNilHandler(t *testing.T) {
	if _, err := NewInProcNetwork().Listen("n", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestInProcClose(t *testing.T) {
	net := NewInProcNetwork()
	server, _ := net.Listen("server", echoHandler)
	client, _ := net.Listen("client", echoHandler)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Send(context.Background(), "server", Message{Type: "ping"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to closed = %v, want ErrUnknownPeer", err)
	}
	// Closing twice is fine.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed node cannot send.
	client.Close()
	if _, err := client.Send(context.Background(), "anything", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from closed = %v, want ErrClosed", err)
	}
}

func TestInProcCrashSimulatesFailure(t *testing.T) {
	net := NewInProcNetwork()
	net.Listen("victim", echoHandler)
	client, _ := net.Listen("client", echoHandler)
	net.Crash("victim")
	if _, err := client.Send(context.Background(), "victim", Message{Type: "ping"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to crashed = %v, want ErrUnknownPeer", err)
	}
	// Crashing an unknown node is harmless.
	net.Crash("nobody")
}

func TestInProcNames(t *testing.T) {
	net := NewInProcNetwork()
	net.Listen("a", echoHandler)
	net.Listen("b", echoHandler)
	names := net.Names()
	if len(names) != 2 {
		t.Fatalf("Names = %v", names)
	}
}

func TestInProcDelay(t *testing.T) {
	net := NewInProcNetwork()
	net.Delay = func(from, to string) time.Duration { return 10 * time.Millisecond }
	net.Listen("server", echoHandler)
	client, _ := net.Listen("client", echoHandler)
	start := time.Now()
	if _, err := client.Send(context.Background(), "server", Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 20ms (2 hops)", elapsed)
	}
}

func TestInProcDelayRespectsContext(t *testing.T) {
	net := NewInProcNetwork()
	net.Delay = func(from, to string) time.Duration { return time.Hour }
	net.Listen("server", echoHandler)
	client, _ := net.Listen("client", echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := client.Send(ctx, "server", Message{Type: "ping"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestInProcConcurrentSends(t *testing.T) {
	net := NewInProcNetwork()
	var mu sync.Mutex
	count := 0
	net.Listen("server", func(ctx context.Context, req Message) (Message, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return Message{Type: "ok"}, nil
	})
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node, err := net.Listen(string(rune('A'+i)), echoHandler)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := node.Send(context.Background(), "server", Message{Type: "ping"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if count != workers*50 {
		t.Fatalf("server saw %d requests, want %d", count, workers*50)
	}
}

// Send is done with req.Body when it returns, on both fabrics and whether
// the exchange succeeded or its context ended first: a caller that reuses
// one buffer for every request has each delivered as it was when sent, and
// the race detector sees no fabric goroutine read the buffer after Send
// returned.
func TestSendIsDoneWithRequestBodyOnReturn(t *testing.T) {
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var (
				mu   sync.Mutex
				seen []string
			)
			stall := make(chan struct{})
			h := func(ctx context.Context, req Message) (Message, error) {
				mu.Lock()
				seen = append(seen, string(req.Body))
				mu.Unlock()
				if string(req.Body) == "stall" {
					select {
					case <-stall:
					case <-ctx.Done():
					}
				}
				return Message{Type: "ok"}, nil
			}
			var server, client Node
			if fabric == "tcp" {
				server, client = newTCPPair(t, h)
			} else {
				net := NewInProcNetwork()
				server, _ = net.Listen("server", h)
				client, _ = net.Listen("client", echoHandler)
			}
			buf := make([]byte, 0, 16)
			var want []string
			for i := 0; i < 20; i++ {
				buf = fmt.Appendf(buf[:0], "request %02d", i)
				want = append(want, string(buf))
				if _, err := client.Send(context.Background(), server.Name(), Message{Type: "t", Body: buf}); err != nil {
					t.Fatal(err)
				}
				copy(buf, "XXXXXXXXXXX") // the next request reuses the bytes
			}
			// An exchange abandoned mid-flight: Send returns on the
			// deadline while the handler still holds the request.
			buf = append(buf[:0], "stall"...)
			want = append(want, "stall")
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			_, err := client.Send(ctx, server.Name(), Message{Type: "t", Body: buf})
			cancel()
			if fabric == "tcp" && err == nil {
				t.Fatal("a send past its deadline succeeded")
			}
			copy(buf, "XXXXX")
			close(stall)
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				n := len(seen)
				mu.Unlock()
				if n == len(want) || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				t.Fatalf("handler saw %q, want %q", seen, want)
			}
		})
	}
}
