package core

import (
	"fmt"
	"strings"
	"time"

	"edr/internal/engine"
	"edr/internal/model"
	"edr/internal/telemetry"
)

// Algorithm names the distributed optimization method a replica fleet
// runs during scheduling rounds. Values resolve through the solver-engine
// registry (internal/engine), so a new method registers itself and becomes
// selectable here without this package changing. The zero value selects
// LDDM.
type Algorithm string

const (
	// LDDM is the Lagrangian dual decomposition method (Algorithm 2).
	LDDM Algorithm = "LDDM"
	// CDPSM is the consensus-based distributed projected subgradient
	// method (Algorithm 1).
	CDPSM Algorithm = "CDPSM"
	// ADMM is the sharing-form alternating direction method of
	// multipliers — this module's extension algorithm (internal/admm):
	// LDDM-grade O(|C|·|N|) communication with proximal damping.
	ADMM Algorithm = "ADMM"
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string { return string(a) }

// ParseAlgorithm resolves a name (case-insensitive) against the engine
// registry.
func ParseAlgorithm(s string) (Algorithm, error) {
	name := strings.ToUpper(s)
	if _, ok := engine.Lookup(name); ok {
		return Algorithm(name), nil
	}
	return "", fmt.Errorf("core: unknown algorithm %q (want one of %s)", s, strings.Join(engine.Names(), ", "))
}

// ReplicaConfig parameterizes one replica server.
type ReplicaConfig struct {
	// Replica carries the energy-model parameters this node reports to
	// round initiators (price, α, β, γ, bandwidth).
	Replica model.Replica
	// Algorithm selects the registered method for rounds this replica
	// initiates; "" means LDDM.
	Algorithm Algorithm
	// MaxLatencySec is T for rounds this replica initiates; 0 means the
	// paper default 1.8 ms.
	MaxLatencySec float64
	// MaxIters bounds distributed iterations per round; 0 means
	// engine.DefaultMaxIters (200), the in-process solvers' default too.
	// -1 means zero iterations: the initiator skips the distributed loop
	// and just projects a feasible assignment.
	MaxIters int
	// Tol is the round convergence tolerance; 0 means each algorithm's
	// own: 0.02 relative demand residual for LDDM, a 1e-3 primal residual
	// relative to 1+‖R‖ for ADMM, 1e-3 estimate movement for CDPSM.
	Tol float64
	// RPCTimeout bounds each coordination message; 0 means 3s.
	RPCTimeout time.Duration
	// BytesPerMB scales download payloads (synthetic content);
	// 0 means 1024 (1 KiB per MB) so tests and demos stay fast.
	// Set to 1<<20 for full-size transfers.
	BytesPerMB int
	// RoundRetries bounds automatic round restarts after member failures;
	// 0 means 3, -1 means no restarts (a failed round goes straight to
	// the degraded fallback or the error path).
	RoundRetries int
	// SendRetries is how many times a coordination RPC is retried (with
	// exponential backoff and jitter) before the failure is attributed to
	// the destination; 0 means 2, -1 means no retries. Retries are safe:
	// both fabrics fail sends before the destination handler runs, so a
	// failed attempt was never delivered.
	SendRetries int
	// RetryBase is the backoff before the first RPC retry; it doubles per
	// attempt with ±50% jitter. 0 means 50ms.
	RetryBase time.Duration
	// CohortMinClients, when positive, enables cohort aggregation
	// (internal/cohort) for rounds this replica initiates once the pending
	// request count reaches the threshold: clients sharing a feasibility
	// mask and quantized latency vector are merged into virtual clients,
	// the distributed round runs at cohort granularity, and the result is
	// disaggregated back to per-client allocations (demand conserved
	// exactly, feasibility by construction). 0 disables cohorting; every
	// round then solves at raw client granularity.
	CohortMinClients int
	// CohortQuantumSec is the latency quantization step (seconds) for
	// cohort keying; 0 means MaxLatencySec/4.
	CohortQuantumSec float64
	// CohortMax, when positive, bounds the cohort count by coarsening the
	// quantum until the grouping fits; 0 leaves the count unbounded.
	CohortMax int
	// Incremental enables cross-round incremental re-optimization for
	// rounds this replica initiates: the incoming round is diffed against
	// the last committed one (opt.DiffRounds), clean clients keep their
	// committed rows (frozen into per-replica base loads), and the solvers
	// run only over the dirty subset against residual capacity. A cheap
	// full-problem feasibility/KKT gate guards every incremental result
	// and escalates to a full solve on violation, so the mode can be
	// slower on churn-heavy rounds but never wrong. Rounds with an empty
	// dirty set commit the previous assignment without any fan-out.
	Incremental bool
	// DeltaEps is the relative threshold for the incremental diff and for
	// change-suppressed client notifies: a client is clean while its
	// demand moved by at most DeltaEps relative, and is not re-notified
	// while its allocation row moved by at most DeltaEps of its demand.
	// 0 means 1e-3; negative pins exact matching (any change is dirty).
	DeltaEps float64
	// Telemetry, when non-nil, receives runtime events (round outcomes,
	// RPC retries, ring suspicion — see internal/telemetry). Nil disables
	// observability at zero cost: every would-be publish is a single nil
	// check, and per-iteration trajectories are not recorded unless the
	// bus has subscribers.
	Telemetry *telemetry.Bus
}

func (c *ReplicaConfig) withDefaults() ReplicaConfig {
	out := *c
	if out.Algorithm == "" {
		out.Algorithm = LDDM
	}
	if out.MaxLatencySec <= 0 {
		out.MaxLatencySec = 0.0018
	}
	// For the integer knobs, 0 selects the default and -1 expresses the
	// literal zero the zero-value would otherwise swallow.
	if out.MaxIters < 0 {
		out.MaxIters = 0
	} else if out.MaxIters == 0 {
		out.MaxIters = engine.DefaultMaxIters
	}
	if out.RPCTimeout <= 0 {
		out.RPCTimeout = 3 * time.Second
	}
	if out.BytesPerMB <= 0 {
		out.BytesPerMB = 1024
	}
	if out.RoundRetries < 0 {
		out.RoundRetries = 0
	} else if out.RoundRetries == 0 {
		out.RoundRetries = 3
	}
	if out.SendRetries < 0 {
		out.SendRetries = 0
	} else if out.SendRetries == 0 {
		out.SendRetries = 2
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 50 * time.Millisecond
	}
	if out.DeltaEps == 0 {
		out.DeltaEps = 1e-3
	} else if out.DeltaEps < 0 {
		out.DeltaEps = 0
	}
	return out
}
