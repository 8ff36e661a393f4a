package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
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
	demand  float64 // RequestAck.QueuedMB of the last submission
	contact string  // last contact replica, for allocation pulls
	ackSeq  int     // RequestAck.Round watermark of the last submission
	// sent is the latency list last sent to contact in full, and id the
	// handle contact names the client and that list by (RequestAck.Handle;
	// 0 for none).
	sent []Latency
	id   uint32
	// rec is the client's standing record at contact, the same the contact
	// keeps for it; beat counts the identical Submits since it stood, and
	// phase (renewalPhase of the client's address) sets which of them renew.
	rec   standing
	beat  uint32
	phase uint32
	// held is the roster the last full-form push listed, which the short
	// form names by hash.
	held heldRoster
	// alloc is a one-slot mailbox: it holds the newest allocation no
	// WaitAllocation took yet (see deliver).
	alloc chan AllocationBody

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
	c := &Client{alloc: make(chan AllocationBody, 1)}
	node, err := network.Listen(addr, c.handle)
	if err != nil {
		return nil, err
	}
	c.node, c.phase = node, renewalPhase(node.Name())
	return c, nil
}

// Addr returns the client's transport address.
func (c *Client) Addr() string { return c.node.Name() }

// Close releases the endpoint.
func (c *Client) Close() error { return c.node.Close() }

func (c *Client) handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	switch req.Type {
	case MsgAllocation, MsgCohortAllocation:
		return c.handlePush(req)
	default:
		return transport.Message{}, fmt.Errorf("core: client %s: unknown message type %q", c.Addr(), req.Type)
	}
}

// rosterMiss is the body of the ack a client answers a short-form push
// with when it does not hold the roster the push names: the initiator then
// sends the full form. A miss is not an error reply, which would be
// retried, and not a delivery.
var rosterMiss = []byte{'m'}

// rosterMissed reports whether resp is a push's miss ack.
func rosterMissed(resp transport.Message) bool { return string(resp.Body) == string(rosterMiss) }

// handlePush records a pushed allocation for WaitAllocation. A cohort push
// carries the cohort's unit split, which the client scales by its own
// queued demand, the figure its last ack reported and the round solved
// for: cohort members split cohort load in proportion to demand, so the
// unit vector times R_c reproduces the member row the initiator installed.
// WaitAllocation callers see no difference between the verbs. A push
// carrying a value that is not finite and non-negative is refused, as is
// one whose scaled MB is not finite. The body is decoded in place of
// transport.DecodeBody, whose interface argument would put it on the heap:
// a push on a known roster allocates its PerReplicaMB alone.
func (c *Client) handlePush(req transport.Message) (transport.Message, error) {
	c.mu.Lock()
	held, demand := c.held, c.demand
	c.mu.Unlock()
	body, miss, err := decodePush(req.Body, &held)
	if err != nil {
		return transport.Message{}, fmt.Errorf("core: client %s: decode %s body: %w", c.Addr(), req.Type, err)
	}
	ack := transport.Message{Type: MsgAllocation + ".ack", From: c.Addr()}
	if miss {
		ack.Body = rosterMiss
		return ack, nil
	}
	if req.Type == MsgCohortAllocation {
		for j, unit := range body.PerReplicaMB {
			if body.PerReplicaMB[j] = unit * demand; math.IsInf(body.PerReplicaMB[j], 0) {
				return transport.Message{}, fmt.Errorf("core: client %s: unit share %g of %g MB is not finite", c.Addr(), unit, demand)
			}
		}
	}
	c.mu.Lock()
	c.held = held
	c.mu.Unlock()
	c.deliver(body)
	return ack, nil
}

// deliver puts a pushed allocation in the mailbox, replacing one nobody
// took: a consumer that lags gets the newest allocation, never a stale one,
// and a client that stopped consuming never stalls the initiator's push.
// Stats.Allocations counts every push delivered, taken or replaced.
func (c *Client) deliver(body AllocationBody) {
	c.Stats.Allocations.Inc(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.alloc:
	default:
	}
	c.alloc <- body // only consumers take, so under c.mu the slot is free
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
// network); replicas absent from the map are not candidates. When the
// contact is the last one and latencies equal the list last sent to it,
// the request is the handle form: the handle that contact issued and the
// demand. A contact that does not hold the handle gets the full form, in a
// second RPC. On an error the demand a cohort allocation scales by stays
// the last acknowledged one.
//
// A client whose request stands at its contact (see standing) sends
// nothing for an identical Submit — same contact, demand and latencies —
// but every standingRenewal-th, a handle-form renewal at a phase its own
// address sets: the contact queues its standing demand each round. Any
// change, any error, or a renewal acked with handle 0 or with another
// queued demand ends standing, and a Submit to another contact withdraws
// the standing demand from the old one first (Withdraw).
func (c *Client) Submit(ctx context.Context, contactReplica string, demandMB float64, latencies map[string]float64) error {
	c.mu.Lock()
	same := contactReplica == c.contact && c.id != 0 && sameLatencies(c.sent, latencies)
	if same && c.rec.stands && math.Float64bits(demandMB) == c.rec.bits {
		if c.beat++; (c.beat+c.phase)%standingRenewal != 0 {
			c.mu.Unlock()
			return nil
		}
	}
	// A round may push before the ack lands; until then the submission
	// itself is the best guess at the queued demand.
	acked := c.demand
	c.demand = demandMB
	body := RequestBody{DemandMB: demandMB}
	if same {
		body.Handle = c.id
	}
	withdraw := c.rec.stands && contactReplica != c.contact
	old, oldID := c.contact, c.id
	if withdraw {
		c.id, c.sent, c.rec = 0, nil, standing{}
	}
	c.mu.Unlock()
	if withdraw {
		// Best effort: an old contact that cannot be told drops the
		// standing demand when it lapses.
		_ = c.withdraw(ctx, old, oldID)
	}
	var sent []Latency
	if body.Handle == 0 {
		sent = latencyList(latencies)
		body.ClientAddr, body.LatencySec = c.Addr(), sent
	}
	ack, err := c.send(ctx, contactReplica, body)
	if err == nil && body.Handle != 0 && ack.Handle == 0 {
		// A miss: the contact queued nothing and asks for the full form.
		sent = latencyList(latencies)
		body = RequestBody{ClientAddr: c.Addr(), DemandMB: demandMB, LatencySec: sent}
		ack, err = c.send(ctx, contactReplica, body)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// The contact drops its record of the client when it refuses it
		// (clientTable.refuse); another contact's error leaves the
		// record of the last contact as it is.
		c.demand = acked
		if contactReplica == c.contact {
			c.rec = standing{}
		}
		return err
	}
	c.contact = contactReplica
	c.ackSeq = ack.Round
	c.demand = ack.QueuedMB
	c.id = ack.Handle
	if sent != nil {
		c.sent = sent
	}
	if stood := c.rec.stands; c.rec.admit(body.Handle != 0, demandMB, ack) && !stood {
		c.beat = 0
	}
	return nil
}

// Withdraw ends the client's standing demand at its contact and takes back
// what it queued there since the contact's last round: the client is gone
// from the next round. A client that holds no handle has nothing to
// withdraw. A silent client departs without it only when its standing
// lapses, roundStatesKept drains after its last request.
func (c *Client) Withdraw(ctx context.Context) error {
	c.mu.Lock()
	contact, id := c.contact, c.id
	c.id, c.sent, c.rec = 0, nil, standing{}
	c.mu.Unlock()
	if id == 0 {
		return nil
	}
	return c.withdraw(ctx, contact, id)
}

// withdraw sends one client.withdraw naming handle to contact.
func (c *Client) withdraw(ctx context.Context, contact string, handle uint32) error {
	b, err := WithdrawBody{Handle: handle}.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: marshal %s body: %w", MsgClientWithdraw, err)
	}
	if _, err := c.node.Send(ctx, contact, transport.Message{Type: MsgClientWithdraw, From: c.Addr(), Body: b}); err != nil {
		return fmt.Errorf("core: withdraw from %s: %w", contact, err)
	}
	return nil
}

// send sends one client.request to contact and decodes its ack. Both
// bodies are coded in place of NewMessage and DecodeBody, whose interface
// arguments would put them on the heap.
func (c *Client) send(ctx context.Context, contact string, body RequestBody) (RequestAck, error) {
	var ack RequestAck
	b, err := body.MarshalBinary()
	if err != nil {
		return ack, fmt.Errorf("core: marshal %s body: %w", MsgClientRequest, err)
	}
	resp, err := c.node.Send(ctx, contact, transport.Message{Type: MsgClientRequest, From: c.Addr(), Body: b})
	if err != nil {
		return ack, fmt.Errorf("core: submit to %s: %w", contact, err)
	}
	if err := ack.UnmarshalBinary(resp.Body); err != nil {
		return ack, fmt.Errorf("core: decode %s body: %w", resp.Type, err)
	}
	return ack, nil
}

// sameLatencies reports whether m holds exactly list's pairs: list's keys
// are distinct, so equal lengths and a match for each entry suffice.
func sameLatencies(list []Latency, m map[string]float64) bool {
	if len(list) != len(m) {
		return false
	}
	for _, l := range list {
		if sec, ok := m[l.Replica]; !ok || sec != l.Sec {
			return false
		}
	}
	return true
}

// latencyList lists latencies as a request carries them, ascending by
// replica address.
func latencyList(latencies map[string]float64) []Latency {
	list := make([]Latency, 0, len(latencies))
	for addr, sec := range latencies {
		list = append(list, Latency{addr, sec})
	}
	slices.SortFunc(list, func(a, b Latency) int { return strings.Compare(a.Replica, b.Replica) })
	return list
}

// WaitAllocation returns the newest allocation not yet taken, blocking
// until one arrives or ctx ends. A consumer that lags behind several pushes
// gets the last of them; the ones it missed are gone.
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
// queued demand, RequestAck.QueuedMB — a round that drained the queue just
// before this submission can commit past the watermark without covering
// it, and the demand check rejects the stale row it would hand back
// (identical-demand staleness is indistinguishable and harmless: the row
// is the same). A Submit that sent nothing, the client standing, leaves the
// last request's watermark: every round since has held the standing demand,
// so a pull may return the row of a round committed before the Submit.
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
			if !(math.Abs(sum-demand) <= 1e-3*demand) {
				continue
			}
			return body, nil
		}
	}
}

// Download fetches the allocated bytes from every selected replica in
// parallel and returns the total payload size received.
func (c *Client) Download(ctx context.Context, alloc AllocationBody) (int, error) {
	if len(alloc.PerReplicaMB) != len(alloc.Replicas) {
		return 0, fmt.Errorf("core: allocation has %d values for %d replicas", len(alloc.PerReplicaMB), len(alloc.Replicas))
	}
	type result struct {
		n   int
		err error
	}
	results := make(chan result, len(alloc.PerReplicaMB))
	fetches := 0
	for j, sizeMB := range alloc.PerReplicaMB {
		if !(sizeMB > 0) {
			continue
		}
		fetches++
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
			results <- result{n: len(resp.Body)}
		}(alloc.Replicas[j], sizeMB)
	}
	total := 0
	var firstErr error
	for i := 0; i < fetches; i++ {
		res := <-results
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		total += res.n
	}
	c.Stats.BytesReceived.Inc(int64(total))
	return total, firstErr
}
