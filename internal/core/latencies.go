package core

import (
	"container/list"
	"math/rand/v2"
)

// latencyTable is a contact replica's record of the latency list each
// client last sent in full, under the version its ack named: a client whose
// latencies have not changed resubmits its demand and that version only
// (RequestBody.LatencyVersion). An entry not used for roundStatesKept
// drains is swept at the next drain; entries are kept in order of use, so
// a sweep pops only what it drops.
type latencyTable struct {
	byClient map[string]*list.Element // each holds a *latencyEntry
	byUse    list.List                // most recently used at the front
	last     uint32                   // the last version issued
}

type latencyEntry struct {
	client  string
	version uint32
	list    []Latency
	used    int // the replica's drain count when the entry was last used
}

// newLatencyTable starts the version sequence at a random point, so that a
// replica restarted on the same address is unlikely to issue a version its
// predecessor did; a client that names one the table does not hold is
// asked for its list.
func newLatencyTable() *latencyTable {
	return &latencyTable{byClient: make(map[string]*list.Element), last: rand.Uint32()}
}

// resolve returns the list stored for client under version, marking it used
// at drain; false when the table holds another version or none.
func (t *latencyTable) resolve(client string, version uint32, drain int) ([]Latency, bool) {
	el, ok := t.byClient[client]
	if !ok || el.Value.(*latencyEntry).version != version {
		return nil, false
	}
	e := el.Value.(*latencyEntry)
	e.used = drain
	t.byUse.MoveToFront(el)
	return e.list, true
}

// store records lat as client's list, used at drain, under a fresh version,
// which it returns. lat is kept, not copied: neither side may modify it.
func (t *latencyTable) store(client string, lat []Latency, drain int) uint32 {
	if t.last++; t.last == 0 {
		t.last = 1 // 0 means "no version"
	}
	if el, ok := t.byClient[client]; ok {
		e := el.Value.(*latencyEntry)
		e.version, e.list, e.used = t.last, lat, drain
		t.byUse.MoveToFront(el)
	} else {
		t.byClient[client] = t.byUse.PushFront(&latencyEntry{client: client, version: t.last, list: lat, used: drain})
	}
	return t.last
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
		t.byUse.Remove(el)
	}
}

// len is how many clients the table holds a list for.
func (t *latencyTable) len() int { return len(t.byClient) }
