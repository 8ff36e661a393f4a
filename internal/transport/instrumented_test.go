package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"edr/internal/telemetry"
)

func TestInstrumentedCountsPerPeerAndVerb(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus()
	var dropped []telemetry.MessageDropped
	defer bus.Subscribe(func(e telemetry.Event) {
		if d, ok := e.(telemetry.MessageDropped); ok {
			dropped = append(dropped, d)
		}
	})()
	net := NewInstrumented(NewInProcNetwork(), reg, bus)

	echo, err := net.Listen("echo", func(ctx context.Context, req Message) (Message, error) {
		return NewMessage(req.Type+".ack", "echo", textBody("pong"))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	caller, err := net.Listen("caller", func(ctx context.Context, req Message) (Message, error) {
		return Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()

	ctx := context.Background()
	req, err := NewMessage("test.ping", "caller", textBody("ping"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := caller.Send(ctx, "echo", req); err != nil {
			t.Fatal(err)
		}
	}
	// A send to a missing peer counts as an error and publishes a drop.
	if _, err := caller.Send(ctx, "ghost", req); err == nil {
		t.Fatal("send to ghost succeeded")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`edr_transport_messages_total{peer="echo",verb="test.ping"} 3`,
		`edr_transport_messages_total{peer="ghost",verb="test.ping"} 1`,
		`edr_transport_errors_total{peer="ghost",verb="test.ping"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Body bytes flowed both ways on the echo link.
	if !strings.Contains(text, `edr_transport_bytes_total{direction="tx",peer="echo",verb="test.ping"} `) ||
		!strings.Contains(text, `edr_transport_bytes_total{direction="rx",peer="echo",verb="test.ping"} `) {
		t.Fatalf("missing byte counters:\n%s", text)
	}
	if len(dropped) != 1 || dropped[0].Peer != "ghost" || dropped[0].Verb != "test.ping" {
		t.Fatalf("dropped events = %+v", dropped)
	}
}

func TestInstrumentedObservesInjectedFaults(t *testing.T) {
	// Instrumented sits above the faulty fabric: an injected black-hole
	// surfaces as a context timeout, which the wrapper counts as an error.
	reg := telemetry.NewRegistry()
	faulty := NewFaultyNetwork(NewInProcNetwork(), 1)
	faulty.SetLink("a", "b", Faults{Cut: true})
	net := NewInstrumented(faulty, reg, nil)

	if _, err := net.Listen("b", func(ctx context.Context, req Message) (Message, error) {
		return Message{Type: "ok"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	a, err := net.Listen("a", func(ctx context.Context, req Message) (Message, error) {
		return Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = a.Send(ctx, "b", Message{Type: "test.cut"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut link error = %v, want deadline exceeded", err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `edr_transport_errors_total{peer="b",verb="test.cut"} 1`) {
		t.Fatalf("cut send not counted as error:\n%s", b.String())
	}
}
