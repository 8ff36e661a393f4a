package core

import (
	"container/list"
	"math/rand/v2"
)

// latencyTable is a contact replica's record of the latency list each
// client last sent in full, under the handle its ack issued: a client whose
// latencies have not changed resubmits its demand and that handle only
// (RequestBody.Handle), which stands for its address and its list. An entry
// not used for roundStatesKept drains is swept at the next drain; entries
// are kept in order of use, so a sweep pops only what it drops.
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
}

func newLatencyTable() *latencyTable {
	return &latencyTable{byClient: make(map[string]*list.Element), byHandle: make(map[uint32]*list.Element)}
}

// resolve returns the client and list handle stands for, marking the entry
// used at drain; false when the table holds no such handle.
func (t *latencyTable) resolve(handle uint32, drain int) (string, []Latency, bool) {
	el, ok := t.byHandle[handle]
	if !ok {
		return "", nil, false
	}
	e := el.Value.(*latencyEntry)
	e.used = drain
	t.byUse.MoveToFront(el)
	return e.client, e.list, true
}

// store records lat as client's list, used at drain, under a fresh handle,
// which it returns. lat is kept, not copied: neither side may modify it.
func (t *latencyTable) store(client string, lat []Latency, drain int) uint32 {
	h := t.draw()
	if el, ok := t.byClient[client]; ok {
		e := el.Value.(*latencyEntry)
		delete(t.byHandle, e.handle)
		e.handle, e.list, e.used = h, lat, drain
		t.byHandle[h] = el
		t.byUse.MoveToFront(el)
	} else {
		el := t.byUse.PushFront(&latencyEntry{client: client, handle: h, list: lat, used: drain})
		t.byClient[client], t.byHandle[h] = el, el
	}
	return h
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
