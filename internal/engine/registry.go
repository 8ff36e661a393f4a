package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Registration couples an algorithm's two halves under one wire name.
type Registration struct {
	// Name keys the registry and appears in configs, reports, and
	// metrics. Upper-case by convention ("LDDM", "ADMM").
	Name string
	// New builds a fresh initiator half for one round.
	New func() Algorithm
	// Server is the participant half answering the algorithm's verbs
	// (nil for algorithms whose iterations need no replica-side state).
	Server ServerHalf
	// Verbs lists the wire message types routed to Server.
	Verbs []string
	acks  map[string]string // each verb's ack name, built once at Register
}

// Ack names the reply to verb, one of r.Verbs: verb + ".ack".
func (r *Registration) Ack(verb string) string { return r.acks[verb] }

var (
	regMu     sync.RWMutex
	byName    = make(map[string]*Registration)
	byVerb    = make(map[string]*Registration)
	nameOrder []string
)

// Register adds an algorithm to the registry, panicking on a duplicate
// name or verb — registration happens in init() and a collision is a
// programming error, not a runtime condition.
func Register(reg Registration) {
	regMu.Lock()
	defer regMu.Unlock()
	if reg.Name == "" || reg.New == nil {
		panic("engine: Register needs a name and a factory")
	}
	if _, dup := byName[reg.Name]; dup {
		panic(fmt.Sprintf("engine: algorithm %q registered twice", reg.Name))
	}
	for _, v := range reg.Verbs {
		if prev, dup := byVerb[v]; dup {
			panic(fmt.Sprintf("engine: verb %q claimed by both %s and %s", v, prev.Name, reg.Name))
		}
	}
	r := reg
	r.acks = make(map[string]string, len(r.Verbs))
	byName[r.Name] = &r
	for _, v := range r.Verbs {
		byVerb[v], r.acks[v] = &r, v+".ack"
	}
	nameOrder = append(nameOrder, r.Name)
	sort.Strings(nameOrder)
}

// Lookup resolves an algorithm by name.
func Lookup(name string) (*Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := byName[name]
	return r, ok
}

// ServerFor resolves the algorithm owning a wire verb, so a replica can
// route an incoming message to the right server half without per-verb
// handler cases.
func ServerFor(verb string) (*Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := byVerb[verb]
	return r, ok
}

// Names lists the registered algorithms, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), nameOrder...)
}
