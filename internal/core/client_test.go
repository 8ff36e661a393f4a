package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"edr/internal/transport"
)

// A client that reads none of 70 pushes gets the 70th: the mailbox keeps
// the newest allocation not yet taken, so nothing stale is left behind it.
// Every seventh push, the 70th among them, is a cohort allocation: both
// handlers deliver to the one mailbox.
func TestWaitAllocationReturnsNewest(t *testing.T) {
	const pushes = 70
	network := transport.NewInProcNetwork()
	cl, err := NewClient(network, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	initiator, err := network.Listen("initiator", func(context.Context, transport.Message) (transport.Message, error) {
		return transport.Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer initiator.Close()
	ctx := context.Background()
	for round := 1; round <= pushes; round++ {
		verb, body := MsgAllocation, AllocationBody{Round: round, Replicas: []string{"r1"}, PerReplicaMB: []float64{float64(round)}, Algorithm: "LDDM"}
		if round%7 == 0 {
			verb, body.PerReplicaMB = MsgCohortAllocation, []float64{1} // a unit share
		}
		msg, err := transport.NewMessage(verb, initiator.Name(), body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := initiator.Send(ctx, cl.Addr(), msg); err != nil {
			t.Fatalf("push %d: %v", round, err)
		}
	}
	if got := cl.Stats.Allocations.Value(); got != pushes {
		t.Fatalf("Stats.Allocations = %d, want every push counted (%d)", got, pushes)
	}
	alloc, err := cl.WaitAllocation(ctx)
	if err != nil || alloc.Round != pushes {
		t.Fatalf("WaitAllocation = round %d, %v; want the newest, round %d", alloc.Round, err, pushes)
	}
	wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if alloc, err := cl.WaitAllocation(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second WaitAllocation = round %d, %v; want a timeout, nothing being left", alloc.Round, err)
	}
}

// clientFootprint is the post-GC heap n idle clients on an in-process
// network hold, per client.
func clientFootprint(n int) float64 {
	network := transport.NewInProcNetwork()
	clients := make([]*Client, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range clients {
		cl, err := NewClient(network, fmt.Sprintf("client-%06d", i))
		if err != nil {
			panic(err)
		}
		clients[i] = cl
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(clients)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// An idle client costs its process well under a KiB of live heap: at
// fleet scale per-client bytes decide how many clients one process hosts.
func TestClientFootprint(t *testing.T) {
	if per := clientFootprint(10000); per >= 1024 {
		t.Fatalf("an idle client holds %.0f B of heap, want < 1 KiB", per)
	}
}

// BenchmarkClientFootprint reports the live heap of an idle client, from
// 10 000 on one in-process network.
func BenchmarkClientFootprint(b *testing.B) {
	var per float64
	for i := 0; i < b.N; i++ {
		per = clientFootprint(10000)
	}
	b.ReportMetric(per, "B/client")
}
