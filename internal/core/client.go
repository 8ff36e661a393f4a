package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"edr/internal/metrics"
	"edr/internal/transport"
)

// Client is the EDR client library: it submits requests to a contact
// replica, receives its final allocation, and downloads the selected bytes
// from each chosen replica in parallel — the paper's "the client side will
// create new threads to communicate with all the replicas at the same
// time". It takes no part in a round's iterations: the initiator holds the
// multipliers (Algorithm 2 assigns their update to the clients, but every
// input of that update reaches a client only through the initiator).
type Client struct {
	node transport.Node

	mu      sync.Mutex
	demand  float64 // last submitted demand, for cohort allocations
	contact string  // last contact replica, for allocation pulls
	ackSeq  int     // RequestAck.Round watermark of the last submission
	alloc   chan AllocationBody

	// Stats counts client activity.
	Stats ClientStats
}

// ClientStats aggregates client-side counters.
type ClientStats struct {
	Allocations   metrics.Counter
	BytesReceived metrics.Counter
}

// NewClient binds a client endpoint on the network.
func NewClient(network transport.Network, addr string) (*Client, error) {
	c := &Client{alloc: make(chan AllocationBody, 64)}
	node, err := network.Listen(addr, c.handle)
	if err != nil {
		return nil, err
	}
	c.node = node
	return c, nil
}

// Addr returns the client's transport address.
func (c *Client) Addr() string { return c.node.Name() }

// Close releases the endpoint.
func (c *Client) Close() error { return c.node.Close() }

func (c *Client) handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	switch req.Type {
	case MsgAllocation:
		return c.handleAllocation(req)
	case MsgCohortAllocation:
		return c.handleCohortAllocation(req)
	default:
		return transport.Message{}, fmt.Errorf("core: client %s: unknown message type %q", c.Addr(), req.Type)
	}
}

// handleAllocation records the round outcome for WaitAllocation.
func (c *Client) handleAllocation(req transport.Message) (transport.Message, error) {
	var body AllocationBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	c.Stats.Allocations.Inc(1)
	select {
	case c.alloc <- body:
	default:
		// Drop rather than block the initiator: a client that stopped
		// consuming allocations should not stall the fleet.
	}
	return transport.NewMessage(MsgAllocation+".ack", c.Addr(), nil)
}

// handleCohortAllocation expands a cohort-level allocation into this
// client's own per-replica split (unit share × own demand) and records it
// like a per-client allocation — WaitAllocation callers see no difference.
// The demand is the client's own last-submitted figure: cohort members
// split cohort load proportionally to demand, so the unit vector times
// R_c reproduces the member row the initiator installed (a client that
// re-submits a different demand mid-round sees one transiently scaled
// allocation; the next round solves with the new figure).
func (c *Client) handleCohortAllocation(req transport.Message) (transport.Message, error) {
	var body CohortAllocationBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	if len(body.UnitMB) != len(body.Replicas) {
		return transport.Message{}, fmt.Errorf("core: client %s: %d unit entries for %d replicas",
			c.Addr(), len(body.UnitMB), len(body.Replicas))
	}
	c.mu.Lock()
	demand := c.demand
	c.mu.Unlock()
	per := make(map[string]float64, len(body.Replicas))
	for t, addr := range body.Replicas {
		if v := body.UnitMB[t] * demand; v > 0 {
			per[addr] = v
		}
	}
	alloc := AllocationBody{
		Round:        body.Round,
		PerReplicaMB: per,
		Algorithm:    body.Algorithm,
		Iterations:   body.Iterations,
	}
	c.Stats.Allocations.Inc(1)
	select {
	case c.alloc <- alloc:
	default:
		// Drop rather than block the initiator, as with per-client allocations.
	}
	return transport.NewMessage(MsgAllocation+".ack", c.Addr(), nil)
}

// Ping measures the round-trip time to a replica by timing a
// replica.info exchange, returning the estimated one-way latency. Clients
// use it to build the latency map Submit requires, mirroring the paper's
// clients measuring their own network view.
func (c *Client) Ping(ctx context.Context, replicaAddr string) (time.Duration, error) {
	req, err := transport.NewMessage(MsgReplicaInfo, c.Addr(), nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.node.Send(ctx, replicaAddr, req); err != nil {
		return 0, fmt.Errorf("core: ping %s: %w", replicaAddr, err)
	}
	return time.Since(start) / 2, nil
}

// Submit sends one request to the contact replica. latencies maps replica
// address → measured one-way latency seconds (the client's view of the
// network); replicas absent from the map are not candidates.
func (c *Client) Submit(ctx context.Context, contactReplica string, demandMB float64, latencies map[string]float64) error {
	c.mu.Lock()
	c.demand = demandMB
	c.mu.Unlock()
	body := RequestBody{ClientAddr: c.Addr(), DemandMB: demandMB, LatencySec: latencies}
	req, err := transport.NewMessage(MsgClientRequest, c.Addr(), body)
	if err != nil {
		return err
	}
	resp, err := c.node.Send(ctx, contactReplica, req)
	if err != nil {
		return fmt.Errorf("core: submit to %s: %w", contactReplica, err)
	}
	var ack RequestAck
	if err := resp.DecodeBody(&ack); err != nil {
		return err
	}
	if !ack.Accepted {
		return fmt.Errorf("core: replica %s rejected request", contactReplica)
	}
	c.mu.Lock()
	c.contact = contactReplica
	c.ackSeq = ack.Round
	c.mu.Unlock()
	return nil
}

// WaitAllocation blocks until the next allocation arrives or ctx ends.
func (c *Client) WaitAllocation(ctx context.Context) (AllocationBody, error) {
	select {
	case body := <-c.alloc:
		return body, nil
	case <-ctx.Done():
		return AllocationBody{}, ctx.Err()
	}
}

// WaitAllocationSteady waits for an allocation push but also polls the last
// contact's committed round (MsgAllocationPull). Against a fleet running
// change-suppressed rounds (`edrd -incremental`) no push arrives when the
// caller's split did not move, so a one-shot client must pull its row. A
// pulled row is accepted only when the committed round passed the
// submission's RequestAck.Round watermark AND the row's mass matches the
// submitted demand — a round that drained the queue just before this
// submission can commit past the watermark without covering it, and the
// demand check rejects the stale row it would hand back (identical-demand
// staleness is indistinguishable and harmless: the row is the same).
func (c *Client) WaitAllocationSteady(ctx context.Context, poll time.Duration) (AllocationBody, error) {
	c.mu.Lock()
	contact, ackSeq, demand := c.contact, c.ackSeq, c.demand
	c.mu.Unlock()
	if contact == "" {
		return c.WaitAllocation(ctx)
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case body := <-c.alloc:
			return body, nil
		case <-ctx.Done():
			return AllocationBody{}, ctx.Err()
		case <-ticker.C:
			req, err := transport.NewMessage(MsgAllocationPull, c.Addr(), PullBody{ClientAddr: c.Addr()})
			if err != nil {
				return AllocationBody{}, err
			}
			resp, err := c.node.Send(ctx, contact, req)
			if err != nil {
				continue // the push path may still deliver; keep waiting
			}
			var body AllocationBody
			if err := resp.DecodeBody(&body); err != nil || body.Round <= ackSeq || len(body.PerReplicaMB) == 0 {
				continue
			}
			var sum float64
			for _, mb := range body.PerReplicaMB {
				sum += mb
			}
			if diff := sum - demand; diff > 1e-3*demand || diff < -1e-3*demand {
				continue
			}
			return body, nil
		}
	}
}

// Download fetches the allocated bytes from every selected replica in
// parallel and returns the total payload size received.
func (c *Client) Download(ctx context.Context, alloc AllocationBody) (int, error) {
	type result struct {
		n   int
		err error
	}
	results := make(chan result, len(alloc.PerReplicaMB))
	for addr, sizeMB := range alloc.PerReplicaMB {
		go func(addr string, sizeMB float64) {
			req, err := transport.NewMessage(MsgDownload, c.Addr(), DownloadBody{Round: alloc.Round, SizeMB: sizeMB})
			if err != nil {
				results <- result{err: err}
				return
			}
			resp, err := c.node.Send(ctx, addr, req)
			if err != nil {
				results <- result{err: fmt.Errorf("core: download from %s: %w", addr, err)}
				return
			}
			var reply DownloadReply
			if err := resp.DecodeBody(&reply); err != nil {
				results <- result{err: err}
				return
			}
			results <- result{n: len(reply.Payload)}
		}(addr, sizeMB)
	}
	total := 0
	var firstErr error
	for range alloc.PerReplicaMB {
		res := <-results
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		total += res.n
	}
	c.Stats.BytesReceived.Inc(int64(total))
	return total, firstErr
}
