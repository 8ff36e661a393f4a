package telemetry

import (
	"sync"

	"edr/internal/metrics"
)

// Collector turns bus events into registry metrics and keeps a bounded
// ring buffer of recent rounds for the admin plane's /debug/rounds.
//
// Metric taxonomy (see DESIGN.md §8 "Observability"):
//
//	edr_rounds_total{algorithm}            counter, every completed round
//	edr_rounds_degraded_total              counter, last-good fallback rounds
//	edr_rounds_failed_total                counter, rounds that errored outright
//	edr_round_restarts_total               counter, ring-failure restarts
//	edr_round_duration_seconds             histogram, wall time per round
//	edr_round_iterations                   histogram, distributed iterations per round
//	edr_round_objective                    gauge, energy cost of the last round
//	edr_round_cohorts                      gauge, virtual clients of the last round (0 = ungrouped)
//	edr_round_cohort_ratio                 gauge, |C|/|K| compression of the last round
//	edr_round_dirty_clients                gauge, dirty-subset size of the last round (clients on full rounds)
//	edr_round_subsolve_gap                 gauge, certified duality gap of the last incremental sub-solve (0 otherwise)
//	edr_round_suppressed_notifies          gauge, notifies suppressed on the last round
//	edr_ring_joined_total{member}          counter, members added to the view
//	edr_ring_removed_total{member}         counter, members removed from the view
//	edr_membership_drained_total{member}   counter, members drained by epochs
//	edr_membership_epochs_total            counter, epochs committed locally
//	edr_membership_epoch                   gauge, last committed epoch sequence
//	edr_ring_suspected_total{member}       counter, heartbeat misses below threshold
//	edr_ring_declared_dead_total{member}   counter, members pruned from the ring
//	edr_ring_healed_total{member}          counter, suspicions cleared by a heartbeat
//	edr_rpc_retries_total{peer,verb}       counter, coordination RPC retry attempts
//	edr_messages_dropped_total{peer,verb}  counter, sends that never got a response
type Collector struct {
	// Registry receives every metric the collector maintains.
	Registry *Registry

	roundDuration *metrics.Histogram
	roundIters    *metrics.Histogram

	mu              sync.Mutex
	rounds          []RoundCompleted // ring buffer, oldest first
	keep            int
	lastObjective   float64
	lastEpoch       int
	lastCohorts     int
	lastCohortRatio float64
	lastDirty       int
	lastSubsolveGap float64
	lastSuppressed  int
}

// DefaultRoundLog is how many recent rounds /debug/rounds retains when
// the caller does not choose.
const DefaultRoundLog = 64

// NewCollector builds a collector over its own registry, retaining the
// last keep rounds (DefaultRoundLog when keep <= 0).
func NewCollector(keep int) *Collector {
	if keep <= 0 {
		keep = DefaultRoundLog
	}
	reg := NewRegistry()
	c := &Collector{Registry: reg, keep: keep}
	// Iteration counts live on a wide linear-ish scale, not a latency one.
	c.roundDuration = reg.Histogram("edr_round_duration_seconds",
		"Wall time of completed scheduling rounds.", nil, metrics.DurationBuckets())
	c.roundIters = reg.Histogram("edr_round_iterations",
		"Distributed iterations per completed round.", nil,
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500})
	reg.Gauge("edr_round_objective",
		"Energy cost (objective) of the most recent round.", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.lastObjective
		})
	reg.Gauge("edr_round_cohorts",
		"Virtual clients (cohorts) of the most recent round; 0 when ungrouped.", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.lastCohorts)
		})
	reg.Gauge("edr_round_cohort_ratio",
		"Client compression ratio |C|/|K| of the most recent round; 0 when ungrouped.", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.lastCohortRatio
		})
	reg.Gauge("edr_round_dirty_clients",
		"Clients the most recent round re-solved: the dirty subset on incremental rounds, every client otherwise.", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.lastDirty)
		})
	reg.Gauge("edr_round_subsolve_gap",
		"Certified duality gap of the most recent round's incremental sub-solve; 0 when the round had none.", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.lastSubsolveGap
		})
	reg.Gauge("edr_round_suppressed_notifies",
		"Clients not re-notified on the most recent round (allocation moved within epsilon).", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.lastSuppressed)
		})
	reg.Gauge("edr_membership_epoch",
		"Sequence number of the most recently committed cluster epoch.", nil, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.lastEpoch)
		})
	return c
}

// Attach subscribes the collector to a bus; the returned cancel
// detaches it.
func (c *Collector) Attach(bus *Bus) (cancel func()) {
	return bus.Subscribe(c.Handle)
}

// Handle consumes one event. Exported so tests and custom wiring can
// feed events without a bus.
func (c *Collector) Handle(e Event) {
	reg := c.Registry
	switch ev := e.(type) {
	case RoundCompleted:
		reg.Counter("edr_rounds_total", "Completed scheduling rounds.",
			Labels{"algorithm": ev.Algorithm}).Inc(1)
		if ev.Degraded {
			reg.Counter("edr_rounds_degraded_total",
				"Rounds served from the last-known-good fallback.", nil).Inc(1)
		}
		if ev.Restarts > 0 {
			reg.Counter("edr_round_restarts_total",
				"Ring-failure restarts absorbed by rounds.", nil).Inc(int64(ev.Restarts))
		}
		c.roundDuration.Observe(ev.Duration.Seconds())
		c.roundIters.Observe(float64(ev.Iterations))
		c.mu.Lock()
		c.lastObjective = ev.Objective
		c.lastCohorts = ev.Cohorts
		c.lastCohortRatio = ev.CohortRatio
		if ev.Incremental {
			c.lastDirty = ev.DirtyClients
		} else {
			c.lastDirty = ev.Clients
		}
		c.lastSubsolveGap = ev.SubsolveGap
		c.lastSuppressed = ev.SuppressedNotifies
		c.rounds = append(c.rounds, ev)
		if len(c.rounds) > c.keep {
			c.rounds = c.rounds[len(c.rounds)-c.keep:]
		}
		c.mu.Unlock()
	case RoundDegraded:
		reg.Counter("edr_round_degradations_total",
			"Coordination failures that triggered the degraded fallback.",
			Labels{"failed_member": ev.FailedMember}).Inc(1)
	case RoundFailed:
		reg.Counter("edr_rounds_failed_total",
			"Rounds that errored outright (requests re-queued).", nil).Inc(1)
	case MemberSuspected:
		reg.Counter("edr_ring_suspected_total",
			"Heartbeat misses recorded below the declaration threshold.",
			Labels{"member": ev.Member}).Inc(1)
	case MemberDeclared:
		reg.Counter("edr_ring_declared_dead_total",
			"Members declared dead and pruned from the ring.",
			Labels{"member": ev.Member}).Inc(1)
	case MemberHealed:
		reg.Counter("edr_ring_healed_total",
			"Suspicions cleared by a successful heartbeat.",
			Labels{"member": ev.Member}).Inc(1)
	case MemberJoined:
		reg.Counter("edr_ring_joined_total",
			"Members added to the membership view.",
			Labels{"member": ev.Member}).Inc(1)
	case MemberRemoved:
		reg.Counter("edr_ring_removed_total",
			"Members removed from the membership view.",
			Labels{"member": ev.Member}).Inc(1)
	case MemberDrained:
		reg.Counter("edr_membership_drained_total",
			"Members drained (planned power-down) by committed epochs.",
			Labels{"member": ev.Member}).Inc(1)
	case EpochCommitted:
		reg.Counter("edr_membership_epochs_total",
			"Cluster epochs committed locally.", nil).Inc(1)
		c.mu.Lock()
		c.lastEpoch = ev.Seq
		c.mu.Unlock()
	case RPCRetried:
		reg.Counter("edr_rpc_retries_total",
			"Coordination RPC retry attempts.",
			Labels{"peer": ev.Peer, "verb": ev.Verb}).Inc(1)
	case MessageDropped:
		reg.Counter("edr_messages_dropped_total",
			"Sends that failed without a response (timeout, refusal, closed peer).",
			Labels{"peer": ev.Peer, "verb": ev.Verb}).Inc(1)
	}
}

// Rounds returns the retained recent rounds, oldest first.
func (c *Collector) Rounds() []RoundCompleted {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RoundCompleted(nil), c.rounds...)
}
