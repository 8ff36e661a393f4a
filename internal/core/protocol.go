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
// water-filling problem and the initiator, holding every replica's reply,
// takes the dual step on each client's multiplier μ_c (Algorithm 2's
// update, run where the replies meet, so clients see no traffic between
// their request and their allocation); for CDPSM, each replica steps a
// full-solution estimate from the consensus of all of them, which the
// initiator forms and sends it each iteration (Algorithm 1). The final
// assignment is installed on the replicas and pushed to the clients, which
// then download their bytes from the selected replicas in parallel.
// Replica failures at any point are handled by the ring monitor: the dead
// member is pruned, survivors are notified, and the round restarts on the
// new ring.
package core

import (
	"slices"

	"edr/internal/admm"
	"edr/internal/engine"
	"edr/internal/lddm"
	"edr/internal/transport"
)

// Message types of the EDR wire protocol owned by the runtime itself.
// The per-algorithm iteration verbs and their bodies live with their
// algorithm packages (the engine registry routes them to the right server
// half).
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
	// the client's cohort-level allocation, a per-unit split the member
	// scales by its own queued demand, in one message built once per
	// cohort. It carries the client.allocation layout with unit shares for
	// MB.
	MsgCohortAllocation = "client.allocation.cohort"
	// MsgClientWithdraw is client → replica: end the sender's standing
	// demand at the contact, whose handle the body names, and take back
	// what it queued since the last drain. The client is gone from the
	// contact's next round. Its ack is empty.
	MsgClientWithdraw = "client.withdraw"
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

// Algorithm-owned verbs the benchmark's verb → phase table names through
// this package (see the respective packages for semantics). MsgMuUpdate is
// a retired verb with no handler (see engine.MsgMuUpdate).
const (
	MsgLocalSolve = lddm.MsgLocalSolve
	MsgMuUpdate   = engine.MsgMuUpdate
	MsgADMMProx   = admm.MsgProx
)

// ReplicaInfo carries one replica's energy-model parameters (Table I) to
// the round initiator.
type ReplicaInfo struct {
	Addr      string
	Price     float64
	Alpha     float64
	Beta      float64
	Gamma     float64
	Bandwidth float64
	// BaseMB is frozen load already committed to this replica by rows
	// outside the round's problem. Replicas report 0; the initiator sets
	// it on incremental sub-rounds, where Bandwidth carries the residual
	// capacity and the energy model must be evaluated at BaseMB + load
	// (see model.Replica.Base).
	BaseMB float64
}

// RequestBody is the client.request payload, in one of two forms. The full
// form names the client and lists its latencies; the handle form names the
// client by the handle its contact issued it (RequestAck.Handle) and
// carries the demand only. A contact queues a round's rows in the full form.
type RequestBody struct {
	// Handle, when not 0, stands for ClientAddr and the latency list the
	// client last sent this contact in full, and both are empty: an
	// unchanged resubmission carries its demand only. A contact that does
	// not hold the handle for the sender queues nothing and acks handle 0,
	// asking for the full form.
	Handle uint32
	// ClientAddr is the client's transport address (for allocation
	// delivery). A full form names its sender: the contact refuses one that
	// names another client.
	ClientAddr string
	// DemandMB is R_c for this request.
	DemandMB float64
	// LatencySec lists the replicas the client measured with their one-way
	// latencies, in strictly ascending address order (the decoder refuses
	// any other); a replica absent from it is not a candidate.
	LatencySec []Latency
}

// Latency is one replica a client measured: its address and one-way
// latency in seconds.
type Latency struct {
	Replica string
	Sec     float64
}

// RequestAck acknowledges a submission; a refused one is an error reply.
type RequestAck struct {
	// Round is the initiator's round sequence at admission. A round drains the
	// queue first and then bumps the sequence once per attempt (runAttempt), or
	// once when it commits no rows (commitEmpty), so no round up to this id
	// covers the submission, but the first committed round past it may not
	// either: one whose queue was drained before the admission, and whose
	// attempt bumped the sequence after it. WaitAllocationSteady polls
	// MsgAllocationPull until the reply passes this watermark and checks the
	// row's demand for that reason. Consecutive rounds on two handle-form acks
	// are half of what makes a client stand (standing).
	Round int
	// QueuedMB is the caller's queued demand after admission: repeat
	// submissions before a round add up, so this is the figure the round
	// solves for and the scale of the caller's cohort allocation.
	QueuedMB float64
	// Handle is the client's name at this contact: it stands for the
	// client's address and the latency list the contact now holds for it.
	// A fresh handle, drawn at random among those not held, answers a list
	// sent in full; the request's own answers the handle form. 0 answers a
	// handle the contact does not hold for the sender (a restart, a sweep):
	// nothing was queued, and the caller resends in full.
	Handle uint32
}

// WithdrawBody is the client.withdraw payload: the handle the contact
// issued the client (RequestAck.Handle), never 0.
type WithdrawBody struct {
	Handle uint32
}

// PullBody asks the initiator for the caller's committed allocation row.
type PullBody struct {
	ClientAddr string
}

// RoundSpec ships the full problem of one round to every replica; latency
// only as the feasibility mask it induces, all the optimizer reads of it.
type RoundSpec struct {
	// Round is the initiator-local round number.
	Round int
	// Replicas lists the participating replicas in column order.
	Replicas []ReplicaInfo
	// ClientAddrs lists the participating clients in row order.
	ClientAddrs []string
	// Demands holds R_c per client (row order).
	Demands []float64
	// Feasible is the latency-feasibility mask, clients × replicas:
	// Feasible[c][n] reports that replica n may serve client c.
	Feasible [][]bool
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
//
// Updates is held as it travels: the replica copies the bytes into its
// plan once. install writes this layout straight from the result rows
// (assignDiff.body) and builds no AssignBody.
type AssignBody struct {
	Round int
	// BaseRound is the already-installed round whose plan this round starts
	// from; 0 for the empty plan.
	BaseRound int
	// Updates lists, in strictly ascending client order, every entry that
	// differs from the base plan. Against a round's plan a non-positive MB
	// removes the client; against the empty plan every MB is positive.
	// Every MB is finite. A decoded body's Updates aliases the bytes it was
	// decoded from.
	Updates transport.Pairs
}

// AllocationBody tells a client how its demand was split: the push of
// client.allocation and client.allocation.cohort, and the pull reply.
type AllocationBody struct {
	Round int
	// Replicas is the round's roster, ascending by address. The client
	// shares one roster among the pushes that name it: never modify it.
	Replicas []string
	// PerReplicaMB[j] is the MB to download from Replicas[j], 0 for none.
	PerReplicaMB []float64
	// Algorithm names the method that produced the split.
	Algorithm string
	// Iterations is how many distributed iterations the round ran.
	Iterations int
}

// MB is the MB to download from replica, 0 when none.
func (b AllocationBody) MB(replica string) float64 {
	j, ok := slices.BinarySearch(b.Replicas, replica)
	if !ok || j >= len(b.PerReplicaMB) {
		return 0
	}
	return b.PerReplicaMB[j]
}

// DownloadBody requests bytes from a replica. The reply's body is the
// payload itself: synthetic content, BytesPerMB per requested MB.
type DownloadBody struct {
	Round  int
	SizeMB float64
}
