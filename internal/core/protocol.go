// Package core is the EDR runtime: the replica server with its
// ClientListener / ReplicaListener / FileDownload roles, the client
// library, and the distributed scheduling rounds that run the LDDM and
// CDPSM iterations over real message passing (paper §III-B/C).
//
// A scheduling round works as follows. Clients submit requests (demand +
// measured latencies) to any replica. The replica holding pending requests
// initiates a round: it collects every ring member's model parameters,
// builds the optimization instance, and drives synchronous algorithm
// iterations over the fabric — for LDDM, each replica solves its local
// water-filling problem and each *client* updates its own multiplier μ_c
// (exactly the division of labor in Algorithm 2); for CDPSM, each replica
// steps a full-solution estimate from the consensus of all of them, which
// the initiator forms and sends it each iteration (Algorithm 1). The final
// assignment is installed on the replicas and pushed to the clients, which
// then download their bytes from the selected replicas in parallel.
// Replica failures at any point are handled by the ring monitor: the dead
// member is pruned, survivors are notified, and the round restarts on the
// new ring.
package core

import (
	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/engine"
	"edr/internal/lddm"
)

// Message types of the EDR wire protocol owned by the runtime itself.
// The per-algorithm iteration verbs live with their algorithm packages
// (the engine registry routes them to the right server half); they are
// aliased below so this package's wire documentation stays complete and
// historical names keep compiling.
const (
	// MsgClientRequest is client → replica: submit a demand.
	MsgClientRequest = "client.request"
	// MsgReplicaInfo is initiator → replica: fetch model parameters.
	MsgReplicaInfo = "replica.info"
	// MsgRoundStart is initiator → replica: install a round's problem.
	MsgRoundStart = "round.start"
	// MsgAssign is initiator → replica: install the final assignment.
	MsgAssign = "replica.assign"
	// MsgAllocation is initiator → client: deliver the final allocation.
	MsgAllocation = "client.allocation"
	// MsgCohortAllocation is initiator → client on cohorted rounds: deliver
	// the client's cohort-level allocation (shared per-unit split + member
	// demands) in one message built once per cohort.
	MsgCohortAllocation = "client.allocation.cohort"
	// MsgAllocationPull is client → initiator: fetch the caller's row of
	// the last committed round. Change-suppressed rounds deliberately skip
	// the allocation push for clients whose split did not move, which is
	// right for a persistent client (it keeps serving its last allocation)
	// but starves a one-shot client that re-submitted and is waiting for
	// an answer. Such a client polls this verb until the reply's Round
	// passes the watermark its submission ack reported.
	MsgAllocationPull = "client.allocation.pull"
	// MsgCohortDuals is a retired verb with no handler: initiator → client,
	// a cohort's final dual μ. The name is kept because the benchmark's
	// verb → phase table compiles against it.
	MsgCohortDuals = "client.duals.cohort"
	// MsgDownload is client → replica: fetch the selected bytes.
	MsgDownload = "download.request"
)

// Algorithm-owned verbs (see the respective packages for semantics).
// MsgMuUpdate is a retired verb with no handler (see engine.MsgMuUpdate).
const (
	MsgLocalSolve = lddm.MsgLocalSolve
	MsgMuUpdate   = engine.MsgMuUpdate
	MsgADMMProx   = admm.MsgProx
	MsgCDPSMStep  = cdpsm.MsgStep
)

// Algorithm-owned wire bodies, aliased under their historical names.
type (
	LocalSolveBody  = lddm.SolveBody
	LocalSolveReply = lddm.SolveReply
	ADMMProxBody    = admm.ProxBody
	ADMMProxReply   = admm.ProxReply
	CDPSMStepBody   = cdpsm.StepBody
	CDPSMStepReply  = cdpsm.StepReply
)

// ReplicaInfo carries one replica's energy-model parameters (Table I) to
// the round initiator.
type ReplicaInfo struct {
	Addr      string  `json:"addr"`
	Price     float64 `json:"price"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	Gamma     float64 `json:"gamma"`
	Bandwidth float64 `json:"bandwidth"`
	// BaseMB is frozen load already committed to this replica by rows
	// outside the round's problem. Replicas report 0; the initiator sets
	// it on incremental sub-rounds, where Bandwidth carries the residual
	// capacity and the energy model must be evaluated at BaseMB + load
	// (see model.Replica.Base). Omitted on the wire when zero, so full
	// rounds are byte-identical to pre-incremental builds.
	BaseMB float64 `json:"base_mb,omitempty"`
}

// RequestBody is the client.request payload.
type RequestBody struct {
	// ClientAddr is the client's transport address (for allocation
	// delivery).
	ClientAddr string `json:"client_addr"`
	// DemandMB is R_c for this request.
	DemandMB float64 `json:"demand_mb"`
	// LatencyVersion, when not 0, stands for the latency list this contact
	// last acked for the client under that version (RequestAck), and
	// LatencySec is empty: an unchanged resubmission carries its demand
	// only. A contact that no longer holds that version queues nothing and
	// acks version 0, asking for the list in full.
	LatencyVersion uint32 `json:"latency_version,omitempty"`
	// LatencySec lists the replicas the client measured with their one-way
	// latencies, in strictly ascending address order (the decoder refuses
	// any other); a replica absent from it is not a candidate.
	LatencySec []Latency `json:"latency_sec"`
}

// Latency is one replica a client measured: its address and one-way
// latency in seconds.
type Latency struct {
	Replica string  `json:"replica"`
	Sec     float64 `json:"sec"`
}

// ClientMB is one client's entry in a replica's serving plan: the MB to
// serve it.
type ClientMB struct {
	Client string  `json:"client"`
	MB     float64 `json:"mb"`
}

// RequestAck acknowledges a submission; a refused one is an error reply.
type RequestAck struct {
	// Round is the highest round id that does NOT cover this submission:
	// the initiator's round sequence at admission. The queue drains into a
	// round under the same lock that admitted this request, so the first
	// committed round with id beyond this watermark includes the caller —
	// poll MsgAllocationPull until the reply passes it.
	Round int `json:"round,omitempty"`
	// QueuedMB is the caller's queued demand after admission: repeat
	// submissions before a round add up, so this is the figure the round
	// solves for and the scale of the caller's cohort allocation.
	QueuedMB float64 `json:"queued_mb"`
	// LatencyVersion names the latency list the contact now holds for the
	// caller: a fresh version, never reused, for a list sent in full; the
	// request's own for a demand-only resubmission. 0 answers a version the
	// contact does not hold (a restart, a sweep, a newer list): nothing was
	// queued, and the caller resends in full.
	LatencyVersion uint32 `json:"latency_version,omitempty"`
}

// PullBody asks the initiator for the caller's committed allocation row.
type PullBody struct {
	ClientAddr string `json:"client_addr"`
}

// RoundSpec ships the full problem of one round to every replica; latency
// only as the feasibility mask it induces, all the optimizer reads of it.
type RoundSpec struct {
	// Round is the initiator-local round number.
	Round int `json:"round"`
	// Replicas lists the participating replicas in column order.
	Replicas []ReplicaInfo `json:"replicas"`
	// ClientAddrs lists the participating clients in row order.
	ClientAddrs []string `json:"client_addrs"`
	// Demands holds R_c per client (row order).
	Demands []float64 `json:"demands"`
	// Feasible is the latency-feasibility mask, clients × replicas:
	// Feasible[c][n] reports that replica n may serve client c.
	Feasible [][]bool `json:"feasible"`
}

// AssignBody installs the final per-replica serving plan as the entries
// that differ from a base plan. With BaseRound 0 the base is the empty plan,
// so Updates lists every client the replica serves, each with a positive
// MB: it is the plan. With BaseRound > 0 the replica starts from the plan
// it installed for BaseRound and applies Updates — the incremental path's
// change-suppressed install, which shrinks the steady-state fan-out from
// O(|C|) to O(dirty). A replica holding no state for BaseRound rejects the
// delta, failing the round into its usual restart path; the initiator only
// sends deltas against a round it installed on every member and that is
// recent enough to still be held (roundStatesKept), so that means the
// member lost state (restart) and the full solve re-seeds it.
type AssignBody struct {
	Round int `json:"round"`
	// BaseRound is the already-installed round whose plan this round starts
	// from; 0 for the empty plan.
	BaseRound int `json:"base_round,omitempty"`
	// Updates lists, in strictly ascending client order, every entry that
	// differs from the base plan. Against a round's plan a non-positive MB
	// removes the client; against the empty plan every MB is positive.
	// Every MB is finite.
	Updates []ClientMB `json:"updates,omitempty"`
}

// AllocationBody tells a client how its demand was split.
type AllocationBody struct {
	Round int `json:"round"`
	// PerReplicaMB maps replica address → MB to download from it.
	PerReplicaMB map[string]float64 `json:"per_replica_mb"`
	// Algorithm names the method that produced the split.
	Algorithm string `json:"algorithm"`
	// Iterations is how many distributed iterations the round ran.
	Iterations int `json:"iterations"`
}

// CohortAllocationBody is the batched form of AllocationBody for cohorted
// rounds: one body, built and marshaled once per cohort, is delivered to
// every member. A member reconstructs its own split as UnitMB[t]·R_c on
// Replicas[t] with R_c its own queued demand (RequestAck.QueuedMB) —
// cohort members share a feasibility mask and split the cohort's load in
// proportion to demand, so the per-unit split is common by construction
// and only the demand scale is per-member. The body is
// therefore O(feasible replicas), independent of cohort population.
type CohortAllocationBody struct {
	Round int `json:"round"`
	// Algorithm and Iterations mirror AllocationBody.
	Algorithm  string `json:"algorithm"`
	Iterations int    `json:"iterations"`
	// Replicas lists the cohort's feasible replica addresses.
	Replicas []string `json:"replicas"`
	// UnitMB[t] is the fraction of a member's demand served by Replicas[t]
	// (sums to 1 when the cohort carries load).
	UnitMB []float64 `json:"unit_mb"`
}

// DownloadBody requests bytes from a replica.
type DownloadBody struct {
	Round  int     `json:"round"`
	SizeMB float64 `json:"size_mb"`
}

// DownloadReply carries the (scale-reduced) payload.
type DownloadReply struct {
	// Payload is synthetic content, BytesPerMB per requested MB.
	Payload []byte `json:"payload"`
}
