package core

import (
	"container/list"
	"math"
	"math/rand/v2"
)

// latencyTable is a contact replica's record of the latency list each
// client last sent in full, under the handle its ack issued: a client whose
// latencies have not changed resubmits its demand and that handle only
// (RequestBody.Handle), which stands for its address and its list. An entry
// not used for roundStatesKept drains is swept at the next drain; entries
// are kept in order of use, so a sweep pops only what it drops. Each entry
// also keeps the client's standing record (see standing), which goes with
// it.
type latencyTable struct {
	byClient map[string]*list.Element // each holds a *latencyEntry
	byHandle map[uint32]*list.Element // the same elements, by handle
	byUse    list.List                // most recently used at the front
}

type latencyEntry struct {
	client string
	handle uint32
	list   []Latency
	used   int // the replica's drain count when the entry was last used
	rec    standing
}

// standing is what either end of a client.request keeps of the last one
// the contact admitted: its demand's bits, its ack's round, whether it was
// the handle form, and whether the client stood after it. The client keeps
// one for its contact and the contact one per client in its latency table;
// both feed it the same request and ack (admit), so both reach the same
// verdict from the same numbers, and no byte on the wire says so.
//
// A client stands once two handle-form requests with the same demand bits
// are acked with consecutive rounds, the second with QueuedMB equal to the
// demand — nothing else was queued for it that window. A standing client
// sends nothing for an identical Submit but every standingRenewal-th
// (Client.Submit), and each drain queues its standing row for it
// (drainPending) until it sends another request, withdraws, or lapses with
// its handle. A renewal keeps it standing when it is acked with QueuedMB
// equal to the demand.
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

// admit records an admitted request — handled when it was the handle form,
// for demand MB, acked with ack — and reports whether the client stands
// after it.
func (s *standing) admit(handled bool, demand float64, ack RequestAck) bool {
	bits := math.Float64bits(demand)
	stands := handled && s.handled && bits == s.bits && ack.QueuedMB == demand && (s.stands || ack.Round == s.round+1)
	*s = standing{bits: bits, round: ack.Round, handled: handled, stands: stands}
	return stands
}

func newLatencyTable() *latencyTable {
	return &latencyTable{byClient: make(map[string]*list.Element), byHandle: make(map[uint32]*list.Element)}
}

// resolve returns the entry handle names, marking it used at drain; false
// when the table holds no such handle.
func (t *latencyTable) resolve(handle uint32, drain int) (*latencyEntry, bool) {
	el, ok := t.byHandle[handle]
	if !ok {
		return nil, false
	}
	e := el.Value.(*latencyEntry)
	e.used = drain
	t.byUse.MoveToFront(el)
	return e, true
}

// store records lat as client's list, used at drain, under a fresh handle,
// and returns the entry. lat is kept, not copied: neither side may modify
// it. The entry's standing record is kept: the full form it answers is
// admitted into it like any request.
func (t *latencyTable) store(client string, lat []Latency, drain int) *latencyEntry {
	h := t.draw()
	if el, ok := t.byClient[client]; ok {
		e := el.Value.(*latencyEntry)
		delete(t.byHandle, e.handle)
		e.handle, e.list, e.used = h, lat, drain
		t.byHandle[h] = el
		t.byUse.MoveToFront(el)
		return e
	}
	e := &latencyEntry{client: client, handle: h, list: lat, used: drain}
	el := t.byUse.PushFront(e)
	t.byClient[client], t.byHandle[h] = el, el
	return e
}

// entry returns client's entry; false when the table holds none.
func (t *latencyTable) entry(client string) (*latencyEntry, bool) {
	el, ok := t.byClient[client]
	if !ok {
		return nil, false
	}
	return el.Value.(*latencyEntry), true
}

// drop removes the entry handle names when it is client's, and reports
// whether it was.
func (t *latencyTable) drop(handle uint32, client string) bool {
	el, ok := t.byHandle[handle]
	if !ok || el.Value.(*latencyEntry).client != client {
		return false
	}
	delete(t.byClient, client)
	delete(t.byHandle, handle)
	t.byUse.Remove(el)
	return true
}

// draw picks a handle at random among those not held, never 0 ("no
// handle"): a handle does not lead to its neighbour's entry by counting,
// and a replica restarted on the same address is unlikely to issue one its
// predecessor did. A client naming a handle the table does not hold for it
// is asked for its list.
func (t *latencyTable) draw() uint32 {
	for {
		if h := rand.Uint32(); h != 0 {
			if _, held := t.byHandle[h]; !held {
				return h
			}
		}
	}
}

// sweep drops every entry last used more than roundStatesKept drains
// before drain.
func (t *latencyTable) sweep(drain int) {
	for el := t.byUse.Back(); el != nil; el = t.byUse.Back() {
		e := el.Value.(*latencyEntry)
		if drain-e.used <= roundStatesKept {
			return
		}
		delete(t.byClient, e.client)
		delete(t.byHandle, e.handle)
		t.byUse.Remove(el)
	}
}

// len is how many clients the table holds a list for.
func (t *latencyTable) len() int { return len(t.byClient) }
