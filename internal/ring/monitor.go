package ring

import (
	"context"
	"fmt"
	"sync"
	"time"

	"edr/internal/telemetry"
	"edr/internal/transport"
)

// Monitor runs the heartbeat protocol for one member: it periodically
// pings its current successor and, when SuspectAfter consecutive pings to
// the same successor fail, declares the successor dead, removes it
// locally, notifies every remaining member, and invokes the OnFailure
// callback so the owner can re-run scheduling (paper §III-C: "Once a
// replica malfunctions, the other replicas will know and then remove this
// dead replica from their active member lists and the ring structure.
// After that, EDR will perform the runtime scheduling again based on the
// new ring of replicas.").
//
// The suspicion threshold is the transient-fault hysteresis the paper's
// all-or-nothing failure story lacks: one dropped heartbeat on a lossy
// link marks the successor suspected, not dead, so the ring does not
// shrink — and trigger an expensive rescheduling — on every glitch. A
// single successful heartbeat clears the suspicion.
type Monitor struct {
	// Self is this member's name (its transport address).
	Self string
	// Ring is the shared membership view this monitor maintains.
	Ring *Ring
	// Node sends heartbeats and death notices.
	Node transport.Node
	// Interval between heartbeats; zero means 500ms.
	Interval time.Duration
	// Timeout for one heartbeat; zero means Interval/2.
	Timeout time.Duration
	// SuspectAfter is how many consecutive heartbeat failures to the same
	// successor it takes to declare it dead; zero means 3. A crashed
	// member is therefore pruned within SuspectAfter×Interval + Timeout.
	SuspectAfter int
	// OnFailure, when non-nil, runs after a dead member has been removed
	// and the survivors notified. It receives the dead member's name.
	OnFailure func(dead string)
	// Drained, when non-nil, reports whether a member is under a planned
	// drain (epoch-committed power-down). A drained member is deliberately
	// quiet — it serves old plans but joins no new rounds — so it must not
	// accrue suspicion, be declared dead, or shrink the ring via a peer's
	// death notice: Beat watches past it and DeclareDead/HandleDeath
	// ignore it.
	Drained func(member string) bool
	// Bus, when non-nil, receives MemberSuspected / MemberDeclared /
	// MemberHealed telemetry events as the suspicion state machine moves.
	Bus *telemetry.Bus

	mu      sync.Mutex
	stop    chan struct{}
	stopped sync.WaitGroup
	suspect string // current successor under suspicion ("" when healthy)
	misses  int    // consecutive heartbeat failures to suspect
}

// HeartbeatType and DeathType are the message types the protocol uses.
// Owners must route them to HandleHeartbeat / HandleDeath. A heartbeat has
// an empty body; a death notice's body is the dead member's name.
const (
	HeartbeatType = "ring.heartbeat"
	DeathType     = "ring.death"
)

// Start launches the heartbeat loop. Call Stop to end it.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.stopped.Add(1)
	go m.loop(m.stop)
}

// Stop ends the heartbeat loop and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		m.stopped.Wait()
	}
}

func (m *Monitor) interval() time.Duration {
	if m.Interval > 0 {
		return m.Interval
	}
	return 500 * time.Millisecond
}

func (m *Monitor) timeout() time.Duration {
	if m.Timeout > 0 {
		return m.Timeout
	}
	return m.interval() / 2
}

func (m *Monitor) suspectAfter() int {
	if m.SuspectAfter > 0 {
		return m.SuspectAfter
	}
	return 3
}

// Suspicion reports the successor currently under suspicion and how many
// consecutive heartbeats it has missed ("" , 0 when healthy).
func (m *Monitor) Suspicion() (string, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspect, m.misses
}

// noteMiss records one heartbeat failure to succ and reports whether the
// suspicion threshold has been crossed. Switching successors (because the
// ring changed) resets the count: misses must be consecutive and against
// the same member.
func (m *Monitor) noteMiss(succ string) bool {
	m.mu.Lock()
	if m.suspect != succ {
		m.suspect, m.misses = succ, 0
	}
	m.misses++
	misses := m.misses
	crossed := misses >= m.suspectAfter()
	if crossed {
		m.suspect, m.misses = "", 0
	}
	m.mu.Unlock()
	if !crossed {
		m.Bus.Publish(telemetry.MemberSuspected{Member: succ, Misses: misses})
	}
	return crossed
}

// clearSuspicion resets the miss counter after a healthy heartbeat.
func (m *Monitor) clearSuspicion() {
	m.mu.Lock()
	suspect, misses := m.suspect, m.misses
	m.suspect, m.misses = "", 0
	m.mu.Unlock()
	if suspect != "" && misses > 0 {
		m.Bus.Publish(telemetry.MemberHealed{Member: suspect, Misses: misses})
	}
}

func (m *Monitor) loop(stop chan struct{}) {
	defer m.stopped.Done()
	ticker := time.NewTicker(m.interval())
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			m.Beat()
		}
	}
}

// Beat performs one heartbeat exchange with the current successor. A
// failed exchange raises suspicion; SuspectAfter consecutive failures to
// the same successor trigger failure handling. Exported so tests and
// virtual-time harnesses can drive the protocol without real timers.
func (m *Monitor) Beat() {
	succ, ok := m.watchTarget()
	if !ok {
		m.clearSuspicion()
		return // alone in the ring (or only drained peers): nothing to watch
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout())
	defer cancel()
	req, err := transport.NewMessage(HeartbeatType, m.Self, nil)
	if err != nil {
		return
	}
	if _, err := m.Node.Send(ctx, succ, req); err != nil {
		if m.noteMiss(succ) {
			m.DeclareDead(succ)
		}
		return
	}
	m.clearSuspicion()
}

// watchTarget returns the member this monitor should heartbeat: its ring
// successor, skipping past drained members (which are intentionally
// passive, not suspects). Walking the whole ring back to Self means every
// other member is drained — nothing to watch.
func (m *Monitor) watchTarget() (string, bool) {
	succ, ok := m.Ring.Successor(m.Self)
	if !ok {
		return "", false
	}
	if m.Drained == nil {
		return succ, true
	}
	for m.Drained(succ) {
		next, ok := m.Ring.Successor(succ)
		if !ok || next == succ || next == m.Self {
			return "", false
		}
		succ = next
	}
	return succ, true
}

// DeclareDead removes the member, notifies survivors, and fires OnFailure.
// It is exported so the round initiator can prune a member it found dead
// during coordination, not only via missed heartbeats.
func (m *Monitor) DeclareDead(dead string) {
	if m.Drained != nil && m.Drained(dead) {
		return // planned drain, not a failure: keep it in the ring
	}
	if !m.Ring.Remove(dead) {
		return // someone else already handled it
	}
	m.Bus.Publish(telemetry.MemberDeclared{Member: dead, By: m.Self})
	notice := transport.Message{Type: DeathType, From: m.Self, Body: []byte(dead)}
	for _, member := range m.Ring.Members() {
		if member == m.Self {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.timeout())
		// Best effort: a peer that also died will be caught by its own
		// predecessor's heartbeat.
		_, _ = m.Node.Send(ctx, member, notice)
		cancel()
	}
	if m.OnFailure != nil {
		m.OnFailure(dead)
	}
}

// HandleHeartbeat answers a heartbeat ping.
func (m *Monitor) HandleHeartbeat(req transport.Message) (transport.Message, error) {
	return transport.NewMessage(HeartbeatType+".ack", m.Self, nil)
}

// HandleDeath applies a death notice from a peer.
func (m *Monitor) HandleDeath(req transport.Message) (transport.Message, error) {
	dead := string(req.Body)
	if dead == "" {
		return transport.Message{}, fmt.Errorf("ring: death notice from %s names no member", req.From)
	}
	if m.Drained != nil && m.Drained(dead) {
		// A peer raced its declaration against the drain epoch: the member
		// is deliberately quiet, not dead. Keep it.
		return transport.NewMessage(DeathType+".ack", m.Self, nil)
	}
	if m.Ring.Remove(dead) {
		m.Bus.Publish(telemetry.MemberDeclared{Member: dead, By: req.From})
		if m.OnFailure != nil {
			m.OnFailure(dead)
		}
	}
	return transport.NewMessage(DeathType+".ack", m.Self, nil)
}
