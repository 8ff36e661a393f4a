package core

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// clientTable is a contact's record of its clients (ClientListener role):
// one clientRecord per client, found by address or by the handle its ack
// issued. Every method is called with the replica's mutex held.
type clientTable struct {
	byAddr   map[string]*clientRecord
	byHandle map[uint32]*clientRecord
	slab     []RequestBody // the chunk queued rows are carved from
	// order lists the records by address, but for joining: the records
	// made since the last drain. free is the list the last drain emptied.
	order, free, joining []*clientRecord
	// touched counts the records that queued something since the last
	// drain, standing the last drain's rows that stand, drains the drains.
	touched, standing, drains int
}

// clientRecord is one client at its contact.
type clientRecord struct {
	// row is the client's row in the last drain, nil for none, and queued
	// the row it queued since: a new one for a request (a drained row is
	// never written), or row itself when a failed round put it back
	// (carried); withdrawn marks a withdrawal.
	row, queued *RequestBody
	withdrawn   bool
	// handle stands for addr and list in a handle-form request (0 when the
	// contact holds none for the client), and used is the drain count when
	// it was last used.
	handle uint32
	used   int
	rec    standing
	addr   string
	list   []Latency
}

// standing is what either end of a client.request keeps of the last one
// the contact admitted: its demand's bits, its ack's round, whether it was
// the handle form, and whether the client stood after it. The client keeps
// one for its contact and the contact one per client in its table; both
// feed it the same request and ack (admit), so both reach the same verdict
// from the same numbers, and no byte on the wire says so.
//
// A client stands once two handle-form requests with the same demand bits
// are acked with consecutive rounds, the second with QueuedMB equal to the
// demand — nothing else was queued for it that window. A standing client
// sends nothing for an identical Submit but every standingRenewal-th
// (Client.Submit), and each drain queues its standing row for it
// (clientTable.drain) until it sends another request, withdraws, or lapses
// with its handle. A renewal keeps it standing when it is acked with
// QueuedMB equal to the demand.
type standing struct {
	bits    uint64
	round   int
	handled bool
	stands  bool
}

// standingRenewal is L: a standing client sends one identical Submit in L
// as a handle-form renewal. Twice L is roundStatesKept, so one renewal can
// be lost or late before the client's handle, and its standing, lapse.
const standingRenewal = roundStatesKept / 2

// renewalPhase is the phase at which a standing client renews, taken from
// a hash of its own address (FNV-1a, its halves folded together): fixed
// for the client's lifetime and the same run after run, so a fleet renews
// on the same beats each time, and spread over the standingRenewal beats
// so a contact's renewals do not all land in one window. The handle would
// do neither; it is drawn at random (clientTable.draw).
func renewalPhase(addr string) uint32 {
	x := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		x = (x ^ uint32(addr[i])) * 16777619
	}
	return x ^ x>>16
}

// admit records an admitted request — handled when it was the handle form,
// for demand MB, acked with ack — and reports whether the client stands
// after it.
func (s *standing) admit(handled bool, demand float64, ack RequestAck) bool {
	bits := math.Float64bits(demand)
	stands := handled && s.handled && bits == s.bits && ack.QueuedMB == demand && (s.stands || ack.Round == s.round+1)
	*s = standing{bits: bits, round: ack.Round, handled: handled, stands: stands}
	return stands
}

// pends reports whether c queued anything since the last drain.
func (c *clientRecord) pends() bool { return c.queued != nil || c.withdrawn }

// request admits body from the client from and returns its ack for round.
// A repeat adds to the demand queued this window, a full form's list merged
// into the queued one. It refuses what no client can mean (checkRequest),
// and a repeat whose sum is not finite — an infinite row would fail every
// round, and a failed round puts its rows back — leaving the queue as it
// was; a refusal ends the client's standing (refuse).
func (t *clientTable) request(from string, body *RequestBody, round int) (RequestAck, error) {
	if err := checkRequest(body, from); err != nil {
		t.refuse(from)
		return RequestAck{}, err
	}
	ack := RequestAck{Round: round, Handle: body.Handle}
	lat := body.LatencySec
	var c *clientRecord
	if body.Handle != 0 {
		// A handle held for another client is not the sender's.
		if c = t.byHandle[body.Handle]; c == nil || c.addr != from {
			return RequestAck{Round: round}, nil
		}
		c.used, lat = t.drains, c.list
	} else {
		c = t.byAddr[from]
	}
	// A carried row is the failed round's too: a request replaces it.
	if c != nil && c.queued != nil && c.queued != c.row {
		sum := c.queued.DemandMB + body.DemandMB
		if math.IsInf(sum, 1) {
			t.refuse(from)
			return RequestAck{}, fmt.Errorf("client %s queued demand %g MB plus %g MB is not finite", from, c.queued.DemandMB, body.DemandMB)
		}
		c.queued.DemandMB = sum
		// The stored list was the last merged into the row: every full
		// form stores its list and merges it under one lock, so merging it
		// again would change nothing.
		if body.Handle == 0 {
			c.queued.LatencySec = mergeLatencies(c.queued.LatencySec, lat)
		}
	} else {
		if c == nil {
			c = &clientRecord{addr: from}
			t.byAddr[from] = c
			t.joining = append(t.joining, c)
		}
		t.enqueue(c)
		c.queued, c.withdrawn = t.carve(), false
		*c.queued = RequestBody{ClientAddr: c.addr, DemandMB: body.DemandMB, LatencySec: lat}
	}
	if body.Handle == 0 {
		ack.Handle = t.draw()
		delete(t.byHandle, c.handle)
		c.handle, c.list, c.used = ack.Handle, lat, t.drains
		t.byHandle[c.handle] = c
	}
	ack.QueuedMB = c.queued.DemandMB
	c.rec.admit(body.Handle != 0, body.DemandMB, ack)
	return ack, nil
}

// refuse ends the standing of the client from after a refused request, as
// the client ends it on any error: its record starts over, so a request it
// queued no longer stands, and when it stood with nothing queued a
// withdrawal takes its standing row's place at the next drain.
func (t *clientTable) refuse(from string) {
	if c := t.byAddr[from]; c != nil {
		if c.rec.stands && !c.pends() {
			t.enqueue(c)
			c.withdrawn = true
		}
		c.rec = standing{}
	}
}

// withdraw ends the standing of the client the handle was issued to when
// that is from: the handle is dropped, and a withdrawal takes the place of
// whatever the client queued since the last drain. Any other handle
// changes nothing — that client cannot be standing here.
func (t *clientTable) withdraw(handle uint32, from string) {
	if c := t.byHandle[handle]; c != nil && c.addr == from {
		delete(t.byHandle, handle)
		t.enqueue(c)
		c.handle, c.list, c.rec = 0, nil, standing{}
		c.queued, c.withdrawn = nil, true
	}
}

// enqueue counts c as touched unless it queued something already.
func (t *clientTable) enqueue(c *clientRecord) {
	if !c.pends() {
		t.touched++
	}
}

// slabChunk is how many queued rows one slab allocation holds.
const slabChunk = 256

// carve returns a row for a request to queue, from a slab chunk, so a
// resubmission allocates nothing but its ack. No drained row is written
// again, so a chunk can hold rows a round reads.
func (t *clientTable) carve() *RequestBody {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]RequestBody, 0, slabChunk)
	}
	t.slab = t.slab[:len(t.slab)+1]
	return &t.slab[len(t.slab)-1]
}

// draw picks a handle at random among those not held, never 0 ("no
// handle"): a handle does not lead to its neighbour's record by counting,
// and a replica restarted on the same address is unlikely to issue one its
// predecessor did. A client naming a handle the table does not hold for it
// is asked for its list.
func (t *clientTable) draw() uint32 {
	for {
		if h := rand.Uint32(); h != 0 {
			if _, held := t.byHandle[h]; !held {
				return h
			}
		}
	}
}

// drain turns what the clients queued and the last drain's rows into this
// drain's rows, ascending strictly by client address: a stable roster then
// yields identical row order round over round, which is what lets the
// incremental diff run with identity row maps and the cohort registry hit
// its cross-round cache. It returns nil, and drains nothing, when nothing
// is queued and no row stands, and how many standing clients lapsed.
//
// It merges joining — the records made since the last drain, taken from
// t.joining and sorted by address — into the table's order in one pass,
// with no lookup. A handle unused for more than roundStatesKept drains
// retires, the client's standing lapsing with it, and a record left with
// neither a row nor a handle leaves the table.
func (t *clientTable) drain(joining []*clientRecord) ([]*RequestBody, int) {
	if t.touched == 0 && t.standing == 0 {
		return nil, 0
	}
	t.drains++
	rows := make([]*RequestBody, 0, t.touched+t.standing)
	lapsed := 0
	t.standing = 0
	old, order := t.order, t.free
	for len(old) > 0 || len(joining) > 0 {
		var c *clientRecord
		if len(old) == 0 || len(joining) > 0 && joining[0].addr < old[0].addr {
			c, joining = joining[0], joining[1:]
		} else {
			c, old = old[0], old[1:]
		}
		if c.handle != 0 && t.drains-c.used > roundStatesKept {
			if c.rec.stands {
				lapsed++
			}
			delete(t.byHandle, c.handle)
			c.handle, c.list, c.rec = 0, nil, standing{}
		}
		switch {
		case c.queued != nil:
			c.row = c.queued
		case c.withdrawn || !c.rec.stands:
			c.row = nil
		}
		if c.pends() {
			t.touched--
		}
		c.queued, c.withdrawn = nil, false
		if c.row == nil && c.handle == 0 {
			delete(t.byAddr, c.addr)
			continue
		}
		order = append(order, c)
		if c.row != nil {
			rows = append(rows, c.row)
			if c.rec.stands {
				t.standing++
			}
		}
	}
	t.order, t.free = order, t.order[:0]
	return rows, lapsed
}

// requeue puts the last drain's rows back after its round failed, marked
// carried: a client's next request replaces its carried row rather than
// adding to it, and one that queued something meanwhile keeps it. Standing
// rows are not put back: the next drain queues them again as it would have.
func (t *clientTable) requeue() {
	for _, c := range t.order {
		if c.row != nil && !c.pends() && !c.rec.stands {
			t.enqueue(c)
			c.queued = c.row
		}
	}
}
