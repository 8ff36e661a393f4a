package membership

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edr/internal/ring"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// ErrStale marks an epoch rejected because the local node already holds
// one at least as new (and not identical). Proposers catch up by reading
// the sequence in the returned error / ack and re-proposing on top.
var ErrStale = errors.New("membership: stale epoch")

// Manager owns one member's view of the cluster epoch and keeps the
// shared ring.Ring consistent with it. Any member can coordinate a
// change: Propose applies the epoch locally, disseminates it to every
// affected member over the transport, and requires an ack quorum (a
// majority of the NEW epoch's members) before reporting success.
// Dissemination is idempotent and monotonic — members reject stale
// sequences and accept re-sends of the epoch they hold — so a partial
// failure leaves the fleet converging, not split: the next successful
// proposal (or a re-send) completes the rollout.
//
// Manager is safe for concurrent use.
type Manager struct {
	// Self is this member's transport address.
	Self string
	// Ring is the shared membership view the manager rebuilds per epoch.
	Ring *ring.Ring
	// Node sends epoch dissemination messages.
	Node transport.Node
	// Bus, when non-nil, receives EpochCommitted / MemberDrained events
	// (the ring itself publishes MemberJoined / MemberRemoved).
	Bus *telemetry.Bus
	// Timeout bounds each dissemination send; zero means 2s.
	Timeout time.Duration
	// OnChange, when non-nil, runs after every locally applied epoch.
	OnChange func(e Epoch)

	mu  sync.Mutex
	cur Epoch

	// proposeMu serializes local proposals so two concurrent coordinators
	// on this node cannot mint the same sequence number.
	proposeMu sync.Mutex
}

// NewManager builds a manager over the ring's current members as the
// bootstrap epoch (Seq 0, nobody drained). Every fleet node derives the
// same bootstrap from the same seed member list.
func NewManager(self string, rg *ring.Ring, node transport.Node, bus *telemetry.Bus) *Manager {
	return &Manager{
		Self: self,
		Ring: rg,
		Node: node,
		Bus:  bus,
		cur:  Epoch{Seq: 0, Members: rg.Members()},
	}
}

// Current returns the epoch this member holds.
func (m *Manager) Current() Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.clone()
}

// IsDrained reports whether member is drained in the current epoch.
func (m *Manager) IsDrained(member string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.IsDrained(member)
}

// Active returns the current epoch's round-eligible members.
func (m *Manager) Active() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Active()
}

func (m *Manager) timeout() time.Duration {
	if m.Timeout > 0 {
		return m.Timeout
	}
	return 2 * time.Second
}

// Apply installs an epoch: it rejects stale sequences (ErrStale), is a
// no-op for the identical epoch already held, and otherwise swaps the
// current epoch and reconciles the ring (Add for admissions, Remove for
// departures — both publish their telemetry events). `by` names the node
// the epoch came from for the EpochCommitted event. The returned bool
// reports whether the view actually changed.
//
// Note the ring is reconciled against the epoch's full member list: a
// member the failure detector pruned but the epoch still lists is
// re-added and, if truly dead, re-pruned by the detector — epochs are
// authoritative for planned configuration, heartbeats for liveness.
func (m *Manager) Apply(e Epoch, by string) (bool, error) {
	e.normalize()
	if err := e.Validate(); err != nil {
		return false, err
	}
	m.mu.Lock()
	prev := m.cur
	if e.Seq < prev.Seq || (e.Seq == prev.Seq && !e.Equal(&prev)) {
		m.mu.Unlock()
		return false, fmt.Errorf("%w: got seq %d, holding %d", ErrStale, e.Seq, prev.Seq)
	}
	if e.Seq == prev.Seq {
		m.mu.Unlock()
		return false, nil // idempotent re-send
	}
	m.cur = e.clone()
	m.mu.Unlock()

	inNew := make(map[string]bool, len(e.Members))
	for _, mem := range e.Members {
		inNew[mem] = true
	}
	for _, mem := range m.Ring.Members() {
		if !inNew[mem] {
			m.Ring.Remove(mem)
		}
	}
	for _, mem := range e.Members {
		m.Ring.Add(mem)
	}
	for _, d := range e.Drained {
		if !prev.IsDrained(d) {
			m.Bus.Publish(telemetry.MemberDrained{Member: d, Epoch: e.Seq})
		}
	}
	m.Bus.Publish(telemetry.EpochCommitted{
		Seq:     e.Seq,
		Members: append([]string(nil), e.Members...),
		Drained: append([]string(nil), e.Drained...),
		By:      by,
	})
	if m.OnChange != nil {
		m.OnChange(e.clone())
	}
	return true, nil
}

// Propose commits an epoch fleet-wide: apply locally, disseminate to the
// union of the previous and new member lists, and require accepted acks
// from a majority of the NEW epoch's members (this node included). On
// quorum failure the local application stands — monotonic idempotent
// dissemination means a partially applied epoch is merely an epoch still
// rolling out — and the error reports how far it got.
func (m *Manager) Propose(ctx context.Context, next Epoch) (Epoch, error) {
	next.normalize()
	if err := next.Validate(); err != nil {
		return Epoch{}, err
	}
	m.proposeMu.Lock()
	defer m.proposeMu.Unlock()
	prev := m.Current()
	if _, err := m.Apply(next, m.Self); err != nil {
		return Epoch{}, err
	}

	inNew := make(map[string]bool, len(next.Members))
	for _, mem := range next.Members {
		inNew[mem] = true
	}
	targets := sortedUnique(append(append([]string(nil), prev.Members...), next.Members...))
	acks := 0
	if inNew[m.Self] {
		acks = 1 // the local application
	}
	var (
		wg   sync.WaitGroup
		ackM sync.Mutex
		errs []string
	)
	for _, to := range targets {
		if to == m.Self {
			continue
		}
		wg.Add(1)
		go func(to string) {
			defer wg.Done()
			ack, err := m.sendEpoch(ctx, to, next)
			ackM.Lock()
			defer ackM.Unlock()
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("%s: %v", to, err))
			case !ack.Accepted:
				errs = append(errs, fmt.Sprintf("%s: rejected, holds seq %d", to, ack.Seq))
			case inNew[to]:
				acks++
			}
		}(to)
	}
	wg.Wait()
	if 2*acks <= len(next.Members) {
		return Epoch{}, fmt.Errorf("membership: epoch %d reached %d/%d acks (need majority): %v",
			next.Seq, acks, len(next.Members), errs)
	}
	return next, nil
}

// sendEpoch ships one epoch to one member and decodes its ack.
func (m *Manager) sendEpoch(ctx context.Context, to string, e Epoch) (EpochAck, error) {
	req, err := transport.NewMessage(EpochType, m.Self, e)
	if err != nil {
		return EpochAck{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, m.timeout())
	defer cancel()
	resp, err := m.Node.Send(cctx, to, req)
	if err != nil {
		return EpochAck{}, err
	}
	var ack EpochAck
	if err := resp.DecodeBody(&ack); err != nil {
		return EpochAck{}, err
	}
	return ack, nil
}

// ProposeChange builds the next epoch for one operation on addr and
// proposes it. This is the entry point the CLI verbs and the autoscaler
// use; it rejects changes that would leave no active member.
func (m *Manager) ProposeChange(ctx context.Context, op Op, addr string) (Epoch, error) {
	if addr == "" {
		return Epoch{}, fmt.Errorf("membership: %s with empty address", op)
	}
	cur := m.Current()
	next := cur.clone()
	next.Seq++
	contains := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	without := func(list []string, s string) []string {
		out := list[:0]
		for _, x := range list {
			if x != s {
				out = append(out, x)
			}
		}
		return out
	}
	switch op {
	case OpJoin:
		next.Members = sortedUnique(append(next.Members, addr))
		next.Drained = without(next.Drained, addr)
	case OpDrain:
		if !contains(next.Members, addr) {
			return Epoch{}, fmt.Errorf("membership: drain of non-member %s", addr)
		}
		next.Drained = sortedUnique(append(next.Drained, addr))
	case OpUndrain:
		next.Drained = without(next.Drained, addr)
	case OpRemove:
		next.Members = without(next.Members, addr)
		next.Drained = without(next.Drained, addr)
	default:
		return Epoch{}, fmt.Errorf("membership: unknown op %q", op)
	}
	// An op already reflected in the held epoch does not mint a new
	// sequence — it re-proposes the epoch we hold. Dissemination is
	// idempotent and monotonic, so this converges a rollout that
	// previously failed partway (retrying a drain after a quorum failure
	// must re-send the epoch, not silently no-op).
	probe := next.clone()
	probe.Seq = cur.Seq
	probe.normalize()
	if probe.Equal(&cur) {
		return m.Propose(ctx, cur)
	}
	return m.Propose(ctx, next)
}

// JoinVia asks an existing fleet member to coordinate this node's join
// and installs the committed epoch locally. A stale answer from Apply is
// fine — it means the coordinator's own fan-out reached this node before
// the reply did.
func (m *Manager) JoinVia(ctx context.Context, contact string) (Epoch, error) {
	req, err := transport.NewMessage(ProposeType, m.Self, ProposeBody{Op: OpJoin, Addr: m.Self})
	if err != nil {
		return Epoch{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, m.timeout())
	defer cancel()
	resp, err := m.Node.Send(cctx, contact, req)
	if err != nil {
		return Epoch{}, fmt.Errorf("membership: join via %s: %w", contact, err)
	}
	var committed Epoch
	if err := resp.DecodeBody(&committed); err != nil {
		return Epoch{}, err
	}
	if _, err := m.Apply(committed, contact); err != nil && !errors.Is(err, ErrStale) {
		return Epoch{}, err
	}
	return committed, nil
}

// HandleEpoch applies a disseminated epoch (EpochType handler). Stale
// epochs are acked with Accepted=false and the newer local sequence —
// a protocol answer, not a transport error — so coordinators can
// distinguish "behind" from "unreachable".
func (m *Manager) HandleEpoch(req transport.Message) (transport.Message, error) {
	var e Epoch
	if err := req.DecodeBody(&e); err != nil {
		return transport.Message{}, err
	}
	_, err := m.Apply(e, req.From)
	if err != nil && !errors.Is(err, ErrStale) {
		return transport.Message{}, err
	}
	cur := m.Current()
	return transport.NewMessage(EpochType+".ack", m.Self, EpochAck{
		Seq:      cur.Seq,
		Accepted: err == nil,
	})
}

// HandlePropose coordinates a membership change on behalf of the sender
// (ProposeType handler): CLI verbs and joining daemons address any live
// member, which runs ProposeChange and returns the committed epoch.
func (m *Manager) HandlePropose(ctx context.Context, req transport.Message) (transport.Message, error) {
	var body ProposeBody
	if err := req.DecodeBody(&body); err != nil {
		return transport.Message{}, err
	}
	committed, err := m.ProposeChange(ctx, body.Op, body.Addr)
	if err != nil {
		return transport.Message{}, err
	}
	return transport.NewMessage(ProposeType+".ack", m.Self, committed)
}
