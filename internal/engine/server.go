package engine

import (
	"context"
	"sync"

	"edr/internal/opt"
)

// ServerRound is the participant side of one round: the problem instance,
// this replica's column, and lazily-built per-algorithm state. It is
// created when the initiator installs the round (round.start) and shared
// by every verb the round's messages carry.
type ServerRound struct {
	// Round is the initiator-local round id.
	Round int
	// Prob is the optimization instance rebuilt from the round spec.
	Prob *opt.Problem
	// Col is this replica's column in the spec's replica order.
	Col int
	// Self is this replica's address; ReplicaAddrs the spec's column
	// order.
	Self         string
	ReplicaAddrs []string

	mu     sync.Mutex
	states map[string]any
}

// State returns the named algorithm's participant state for this round,
// building it on first use. Lazy construction means a replica pays only
// for the algorithm actually driven over it — an LDDM round never builds
// ADMM's cached caps.
func (sr *ServerRound) State(alg string, build func() (any, error)) (any, error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if st, ok := sr.states[alg]; ok {
		return st, nil
	}
	st, err := build()
	if err != nil {
		return nil, err
	}
	if sr.states == nil {
		sr.states = make(map[string]any)
	}
	sr.states[alg] = st
	return st, nil
}

// ServerHalf answers an algorithm's wire verbs on a participant replica.
// Handle returns the reply body (wrapped into the verb's ack by the
// replica server) or an error, which the transport surfaces to the
// initiator. Handlers may run concurrently for different messages; state
// shared across verbs must lock.
type ServerHalf interface {
	Handle(ctx context.Context, verb string, req Reply, sr *ServerRound) (reply any, err error)
}
