// Package membership makes the EDR fleet's replica set a first-class,
// live-reconfigurable dimension. The paper's energy argument — turn
// capacity off when tariffs and load are low, back on when they rise —
// only pays off if the roster can actually change at runtime; internal/
// ring alone can merely shrink when the failure detector prunes a dead
// peer. This package adds the planned path: numbered cluster epochs
// proposed by any member, disseminated over the existing transport with
// an ack quorum, and applied by rebuilding the shared ring.Ring. A member
// can join, be drained (kept alive and heartbeating but excluded from new
// scheduling rounds — the power-down half of the energy policy), undrain,
// or leave, all without dropping an in-flight round: the runtime
// warm-starts the next round from the last-known-good assignment
// renormalized over the new replica set (opt.Renormalize).
//
// Drain vs. failure: a drained member is deliberately passive, a failed
// member is involuntarily gone. The ring monitor must never confuse the
// two — see ring.Monitor.Drained.
package membership

import (
	"fmt"
	"sort"
)

// Epoch is one numbered cluster configuration: the full member list and
// the subset currently drained. Epochs are totally ordered by Seq; a node
// accepts an epoch iff it is newer than the one it holds, so dissemination
// is idempotent and stragglers converge from any later proposal.
type Epoch struct {
	// Seq is the configuration's sequence number, starting at 1 for the
	// first proposed change (0 is the bootstrap configuration).
	Seq int
	// Members is the full sorted member list (transport addresses).
	Members []string
	// Drained lists members excluded from new scheduling rounds while
	// still alive, heartbeating, and serving previously installed plans.
	// Always a subset of Members.
	Drained []string
}

// normalize sorts and dedups both lists in place.
func (e *Epoch) normalize() {
	e.Members = sortedUnique(e.Members)
	e.Drained = sortedUnique(e.Drained)
}

func sortedUnique(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the epoch's structural invariants.
func (e *Epoch) Validate() error {
	if e.Seq < 0 {
		return fmt.Errorf("membership: epoch seq %d < 0", e.Seq)
	}
	if len(e.Members) == 0 {
		return fmt.Errorf("membership: epoch %d has no members", e.Seq)
	}
	members := make(map[string]bool, len(e.Members))
	for _, m := range e.Members {
		if m == "" {
			return fmt.Errorf("membership: epoch %d has an empty member name", e.Seq)
		}
		if members[m] {
			return fmt.Errorf("membership: epoch %d lists %s twice", e.Seq, m)
		}
		members[m] = true
	}
	for _, d := range e.Drained {
		if !members[d] {
			return fmt.Errorf("membership: epoch %d drains non-member %s", e.Seq, d)
		}
	}
	if len(e.Active()) == 0 {
		return fmt.Errorf("membership: epoch %d drains every member", e.Seq)
	}
	return nil
}

// IsDrained reports whether member is drained in this epoch.
func (e *Epoch) IsDrained(member string) bool {
	for _, d := range e.Drained {
		if d == member {
			return true
		}
	}
	return false
}

// Active returns the members eligible for new scheduling rounds: Members
// minus Drained, in sorted order.
func (e *Epoch) Active() []string {
	out := make([]string, 0, len(e.Members))
	for _, m := range e.Members {
		if !e.IsDrained(m) {
			out = append(out, m)
		}
	}
	return out
}

// Equal reports whether two epochs describe the same configuration
// (sequence included).
func (e *Epoch) Equal(o *Epoch) bool {
	if e.Seq != o.Seq || len(e.Members) != len(o.Members) || len(e.Drained) != len(o.Drained) {
		return false
	}
	for i := range e.Members {
		if e.Members[i] != o.Members[i] {
			return false
		}
	}
	for i := range e.Drained {
		if e.Drained[i] != o.Drained[i] {
			return false
		}
	}
	return true
}

// clone deep-copies the epoch.
func (e *Epoch) clone() Epoch {
	return Epoch{
		Seq:     e.Seq,
		Members: append([]string(nil), e.Members...),
		Drained: append([]string(nil), e.Drained...),
	}
}

// Wire protocol. Owners route both verbs to the Manager's handlers, like
// the ring monitor's heartbeat/death verbs. A disseminated epoch is the
// Epoch itself, answered with an EpochAck; a proposal is a ProposeBody,
// answered with the Epoch the coordinator committed (codec.go).
const (
	// EpochType is coordinator → member: apply a committed epoch.
	EpochType = "membership.epoch"
	// ProposeType is anyone → member: build and disseminate the next
	// epoch for a join/drain/undrain/remove operation. The receiving
	// member acts as the coordinator.
	ProposeType = "membership.propose"
)

// EpochAck is the member's reply: Accepted when the epoch was applied (or
// already held verbatim); otherwise Seq tells the coordinator the newer
// sequence the member holds, so a stale proposer can catch up.
type EpochAck struct {
	Seq      int
	Accepted bool
}

// Op names a membership change a ProposeBody requests.
type Op string

const (
	// OpJoin admits Addr as a member (and clears any drain on it).
	OpJoin Op = "join"
	// OpDrain marks Addr drained: alive but out of new rounds.
	OpDrain Op = "drain"
	// OpUndrain returns a drained Addr to active duty.
	OpUndrain Op = "undrain"
	// OpRemove deletes Addr from the member list entirely.
	OpRemove Op = "remove"
)

// ProposeBody asks the receiving member to coordinate a membership change.
type ProposeBody struct {
	Op   Op
	Addr string
}
