package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Registration couples an algorithm's two halves under one wire verb.
type Registration struct {
	// Name keys the registry and appears in configs, reports, and
	// metrics. Upper-case by convention ("LDDM", "ADMM").
	Name string
	// New builds a fresh initiator half for one round.
	New func() Algorithm
	// Server is the participant half answering Verb.
	Server ServerHalf
	// Verb is the wire type of the algorithm's exchange, routed to Server.
	Verb string
	// Ack names the reply to Verb: Verb + ".ack", built once by Register.
	Ack string
}

var (
	regMu     sync.RWMutex
	byName    = make(map[string]*Registration)
	byVerb    = make(map[string]*Registration)
	nameOrder []string
)

// Register adds an algorithm to the registry, panicking on a missing part
// or a duplicate name or verb — registration happens in init() and either
// is a programming error, not a runtime condition.
func Register(reg Registration) {
	regMu.Lock()
	defer regMu.Unlock()
	if reg.Name == "" || reg.New == nil || reg.Verb == "" || reg.Server == nil {
		panic("engine: Register needs a name, a factory, a verb and a server half")
	}
	if _, dup := byName[reg.Name]; dup {
		panic(fmt.Sprintf("engine: algorithm %q registered twice", reg.Name))
	}
	if prev, dup := byVerb[reg.Verb]; dup {
		panic(fmt.Sprintf("engine: verb %q claimed by both %s and %s", reg.Verb, prev.Name, reg.Name))
	}
	reg.Ack = reg.Verb + ".ack"
	byName[reg.Name], byVerb[reg.Verb] = &reg, &reg
	nameOrder = append(nameOrder, reg.Name)
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
