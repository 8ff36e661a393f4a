// Package telemetry is the EDR runtime's observability plane: a
// lock-cheap typed event bus the core/ring/transport layers publish
// into, a metrics registry rendered in Prometheus text exposition
// format, and a collector that turns events into metrics and a bounded
// round log. Package admin serves them over HTTP as /metrics, /healthz,
// /status and /debug/rounds.
//
// The package deliberately knows nothing about core, ring, or
// transport: events carry plain data, so every layer can publish
// without import cycles, and a fleet with no admin plane configured
// pays one nil check per would-be event (see Bus).
package telemetry

import "time"

// Event is any of the typed event structs below. Consumers type-switch.
type Event any

// RoundCompleted is published by the round initiator after every round
// that produced an assignment — optimized or degraded.
type RoundCompleted struct {
	// Round is the initiator-local round id.
	Round int `json:"round"`
	// Algorithm names the method used (LDDM, CDPSM, ADMM).
	Algorithm string `json:"algorithm"`
	// Iterations is how many distributed iterations ran (0 when degraded).
	Iterations int `json:"iterations"`
	// Restarts counts ring-failure restarts the round survived.
	Restarts int `json:"restarts"`
	// Clients and Replicas count the participants.
	Clients  int `json:"clients"`
	Replicas int `json:"replicas"`
	// Objective is the total energy cost of the final assignment.
	Objective float64 `json:"objective"`
	// Cohorts is the number of virtual clients the round solved over when
	// cohort aggregation was active; 0 means the round ran ungrouped.
	Cohorts int `json:"cohorts,omitempty"`
	// CohortRatio is the compression ratio |C|/|K| of the grouping
	// (0 when ungrouped).
	CohortRatio float64 `json:"cohort_ratio,omitempty"`
	// Incremental reports a dirty-subset round: only DirtyClients of the
	// Clients were re-solved, the rest kept their committed rows.
	Incremental bool `json:"incremental,omitempty"`
	// DirtyClients is the dirty-subset size of an incremental round.
	DirtyClients int `json:"dirty_clients,omitempty"`
	// SubsolveGap is the certified duality gap of an incremental round's
	// central sub-solve (0 on every other round).
	SubsolveGap float64 `json:"subsolve_gap,omitempty"`
	// SuppressedNotifies counts clients whose allocation moved too little
	// to be worth a notify this round.
	SuppressedNotifies int `json:"suppressed_notifies,omitempty"`
	// Duration is the wall time of the whole round (including restarts).
	Duration time.Duration `json:"duration_ns"`
	// Degraded reports a last-known-good fallback round.
	Degraded bool `json:"degraded"`
	// Residuals is the per-iteration convergence residual trajectory
	// (algorithm-specific: relative demand residual for LDDM, primal
	// residual for ADMM, max estimate movement for CDPSM).
	Residuals []float64 `json:"residuals,omitempty"`
	// Costs is the per-iteration energy-cost trajectory where the
	// initiator holds a primal iterate (LDDM, ADMM; empty for CDPSM).
	Costs []float64 `json:"costs,omitempty"`
}

// RoundDegraded is published when a round falls back to the last-known-
// good assignment, alongside the RoundCompleted event for that round.
type RoundDegraded struct {
	Round int `json:"round"`
	// FailedMember is the peer the terminal coordination failure was
	// attributed to.
	FailedMember string `json:"failed_member"`
	// Restarts is how many restarts were burned before degrading.
	Restarts int `json:"restarts"`
}

// RoundFailed is published when a round errors outright (no assignment
// produced; requests are re-queued).
type RoundFailed struct {
	Err string `json:"err"`
}

// MemberSuspected is published by the ring monitor on every missed
// heartbeat below the declaration threshold.
type MemberSuspected struct {
	// Member is the suspected successor.
	Member string `json:"member"`
	// Misses is the consecutive miss count so far.
	Misses int `json:"misses"`
}

// MemberDeclared is published when a member is declared dead and pruned
// from the ring — by the monitor's heartbeat protocol or by a round
// initiator pinning a coordination failure on it.
type MemberDeclared struct {
	Member string `json:"member"`
	// By names the declaring node.
	By string `json:"by"`
}

// MemberHealed is published when a suspected member answers a heartbeat
// again before being declared dead, clearing the suspicion.
type MemberHealed struct {
	Member string `json:"member"`
	// Misses is how many heartbeats it had missed before healing.
	Misses int `json:"misses"`
}

// MemberJoined is published by the ring when a member is added to the
// membership view — a bootstrap seed, a heal, or an epoch that admitted a
// new replica.
type MemberJoined struct {
	Member string `json:"member"`
}

// MemberRemoved is published by the ring when a member leaves the
// membership view for any reason: declared dead by the failure detector
// or removed by a committed epoch.
type MemberRemoved struct {
	Member string `json:"member"`
}

// MemberDrained is published when an epoch marks a member drained: still
// alive and heartbeating, still serving installed plans, but excluded
// from new scheduling rounds (planned power-down, not a failure).
type MemberDrained struct {
	Member string `json:"member"`
	// Epoch is the epoch sequence that drained it.
	Epoch int `json:"epoch"`
}

// EpochCommitted is published when a cluster epoch is applied locally —
// proposed by this node or disseminated by a coordinator.
type EpochCommitted struct {
	// Seq is the epoch sequence number.
	Seq int `json:"seq"`
	// Members and Drained describe the new membership.
	Members []string `json:"members"`
	Drained []string `json:"drained,omitempty"`
	// By names the node the epoch came from ("" when applied locally).
	By string `json:"by,omitempty"`
}

// RPCRetried is published per coordination-RPC retry attempt.
type RPCRetried struct {
	// Peer is the destination of the retried send.
	Peer string `json:"peer"`
	// Verb is the message type being retried.
	Verb string `json:"verb"`
	// Attempt is the retry ordinal (1 = first retry).
	Attempt int `json:"attempt"`
}

// MessageDropped is published by the instrumented transport when a send
// fails — the message never produced a response (timeout, refused peer,
// closed endpoint).
type MessageDropped struct {
	Peer string `json:"peer"`
	Verb string `json:"verb"`
	Err  string `json:"err"`
}
