package ring

import (
	"context"
	"sync"
	"testing"
	"time"

	"edr/internal/telemetry"
	"edr/internal/transport"
)

// testMember wires a Monitor to an in-process transport node.
type testMember struct {
	name    string
	monitor *Monitor
	node    transport.Node
	mu      sync.Mutex
	deaths  []string
}

func newTestMember(t *testing.T, net transport.Network, name string, members []string) *testMember {
	t.Helper()
	tm := &testMember{name: name}
	tm.monitor = &Monitor{
		Self:     name,
		Ring:     New(members),
		Interval: 10 * time.Millisecond,
		Timeout:  5 * time.Millisecond,
		// Most of these tests exercise the death protocol itself, so one
		// miss kills; the *Suspicion* tests below set the real threshold.
		SuspectAfter: 1,
		OnFailure: func(dead string) {
			tm.mu.Lock()
			tm.deaths = append(tm.deaths, dead)
			tm.mu.Unlock()
		},
	}
	node, err := net.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		switch req.Type {
		case HeartbeatType:
			return tm.monitor.HandleHeartbeat(req)
		case DeathType:
			return tm.monitor.HandleDeath(req)
		default:
			return transport.Message{Type: "ok"}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tm.node = node
	tm.monitor.Node = node
	return tm
}

func (tm *testMember) deathList() []string {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]string, len(tm.deaths))
	copy(out, tm.deaths)
	return out
}

func TestMonitorHealthyRingNoFailures(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b", "c"}
	members := make([]*testMember, 0, 3)
	for _, n := range names {
		members = append(members, newTestMember(t, net, n, names))
	}
	for _, m := range members {
		for i := 0; i < 5; i++ {
			m.monitor.Beat()
		}
	}
	for _, m := range members {
		if len(m.deathList()) != 0 {
			t.Fatalf("%s observed deaths %v in healthy ring", m.name, m.deathList())
		}
		if m.monitor.Ring.Len() != 3 {
			t.Fatalf("%s ring shrank to %d", m.name, m.monitor.Ring.Len())
		}
	}
}

func TestMonitorDetectsCrashAndNotifies(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b", "c"}
	var members []*testMember
	for _, n := range names {
		members = append(members, newTestMember(t, net, n, names))
	}
	// Kill b. a's successor is b, so a's next beat detects it.
	net.Crash("b")
	members[0].monitor.Beat()

	// a saw the death directly.
	if got := members[0].deathList(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("a deaths = %v, want [b]", got)
	}
	// c was notified.
	if got := members[2].deathList(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("c deaths = %v, want [b]", got)
	}
	// Both survivors closed the ring: a → c → a.
	for _, m := range []*testMember{members[0], members[2]} {
		if m.monitor.Ring.Contains("b") {
			t.Fatalf("%s still lists b", m.name)
		}
		succ, ok := m.monitor.Ring.Successor(m.name)
		if !ok {
			t.Fatalf("%s has no successor", m.name)
		}
		if m.name == "a" && succ != "c" {
			t.Fatalf("a's successor = %q, want c", succ)
		}
	}
}

func TestMonitorCascadedFailures(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b", "c", "d"}
	var members []*testMember
	for _, n := range names {
		members = append(members, newTestMember(t, net, n, names))
	}
	// Kill b and c at once; a's beat finds b, then its next beat finds c.
	net.Crash("b")
	net.Crash("c")
	members[0].monitor.Beat() // detects b, ring now a→c→d
	members[0].monitor.Beat() // detects c, ring now a→d
	if got := members[0].monitor.Ring.Len(); got != 2 {
		t.Fatalf("ring size = %d after two failures, want 2", got)
	}
	if members[3].monitor.Ring.Contains("b") || members[3].monitor.Ring.Contains("c") {
		t.Fatalf("d still lists dead members: %v", members[3].monitor.Ring.Members())
	}
	if got := members[0].deathList(); len(got) != 2 {
		t.Fatalf("a deaths = %v", got)
	}
}

func TestMonitorSingletonRingBeatIsNoop(t *testing.T) {
	net := transport.NewInProcNetwork()
	m := newTestMember(t, net, "solo", []string{"solo"})
	m.monitor.Beat() // must not panic or fail
	if len(m.deathList()) != 0 {
		t.Fatalf("solo deaths = %v", m.deathList())
	}
}

func TestMonitorStartStop(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b"}
	a := newTestMember(t, net, "a", names)
	b := newTestMember(t, net, "b", names)
	a.monitor.Start()
	b.monitor.Start()
	a.monitor.Start() // idempotent
	time.Sleep(50 * time.Millisecond)
	a.monitor.Stop()
	b.monitor.Stop()
	a.monitor.Stop() // idempotent
	if len(a.deathList()) != 0 || len(b.deathList()) != 0 {
		t.Fatalf("healthy pair saw deaths: %v %v", a.deathList(), b.deathList())
	}
}

func TestMonitorLiveFailureDetection(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b"}
	a := newTestMember(t, net, "a", names)
	_ = newTestMember(t, net, "b", names)
	a.monitor.Start()
	defer a.monitor.Stop()
	time.Sleep(30 * time.Millisecond) // healthy beats
	net.Crash("b")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.deathList()) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := a.deathList(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("live detection failed: deaths = %v", got)
	}
}

func TestHandleDeathIdempotent(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b", "c"}
	a := newTestMember(t, net, "a", names)
	if _, err := a.monitor.HandleDeath(transport.Message{Type: DeathType, From: "c"}); err == nil {
		t.Fatal("a death notice naming no member was accepted")
	}
	notice := transport.Message{Type: DeathType, From: "c", Body: []byte("b")}
	if _, err := a.monitor.HandleDeath(notice); err != nil {
		t.Fatal(err)
	}
	if _, err := a.monitor.HandleDeath(notice); err != nil {
		t.Fatal(err)
	}
	// Only one OnFailure firing for the same death.
	if got := a.deathList(); len(got) != 1 {
		t.Fatalf("deaths = %v, want single entry", got)
	}
}

// newLossyRing builds members over a fault-injection fabric with the
// given suspicion threshold.
func newLossyRing(t *testing.T, names []string, suspectAfter int, seed uint64) (*transport.FaultyNetwork, []*testMember) {
	t.Helper()
	net := transport.NewFaultyNetwork(transport.NewInProcNetwork(), seed)
	members := make([]*testMember, 0, len(names))
	for _, n := range names {
		tm := newTestMember(t, net, n, names)
		tm.monitor.SuspectAfter = suspectAfter
		members = append(members, tm)
	}
	return net, members
}

func TestMonitorTransientLossBelowThresholdNoDeath(t *testing.T) {
	// A successor that misses SuspectAfter−1 consecutive heartbeats and
	// then recovers must never be declared dead: transient loss raises
	// suspicion, not a reconfiguration.
	net, members := newLossyRing(t, []string{"a", "b", "c"}, 3, 1)
	a := members[0]
	net.SetLink("a", "b", transport.Faults{Cut: true})
	a.monitor.Beat()
	a.monitor.Beat() // two misses: one below the threshold
	if suspect, misses := a.monitor.Suspicion(); suspect != "b" || misses != 2 {
		t.Fatalf("suspicion = %q/%d, want b/2", suspect, misses)
	}
	net.Heal()
	a.monitor.Beat() // healthy beat clears the suspicion
	if suspect, misses := a.monitor.Suspicion(); suspect != "" || misses != 0 {
		t.Fatalf("suspicion after heal = %q/%d, want cleared", suspect, misses)
	}
	for _, m := range members {
		if len(m.deathList()) != 0 {
			t.Fatalf("%s observed deaths %v under transient loss", m.name, m.deathList())
		}
		if m.monitor.Ring.Len() != 3 {
			t.Fatalf("%s ring shrank to %d under transient loss", m.name, m.monitor.Ring.Len())
		}
	}
	// Even an arbitrarily long run of isolated (non-consecutive) misses
	// must not kill: alternate one miss, one success.
	for i := 0; i < 10; i++ {
		net.SetLink("a", "b", transport.Faults{Cut: true})
		a.monitor.Beat()
		net.Heal()
		a.monitor.Beat()
	}
	if got := a.deathList(); len(got) != 0 {
		t.Fatalf("isolated misses caused deaths: %v", got)
	}
}

func TestMonitorCrashPrunedAtThreshold(t *testing.T) {
	// A member that actually crashes is pruned on exactly the
	// SuspectAfter-th consecutive miss — the deterministic statement of
	// "within SuspectAfter × Interval + Timeout" for manual beats.
	net, members := newLossyRing(t, []string{"a", "b", "c"}, 3, 2)
	a := members[0]
	net.Crash("b")
	a.monitor.Beat()
	a.monitor.Beat()
	if got := a.deathList(); len(got) != 0 {
		t.Fatalf("death declared after %d misses, below threshold 3: %v", 2, got)
	}
	a.monitor.Beat() // third consecutive miss crosses the threshold
	if got := a.deathList(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("a deaths = %v, want [b]", got)
	}
	if members[2].monitor.Ring.Contains("b") {
		t.Fatal("c was not notified of b's death")
	}
	if suspect, misses := a.monitor.Suspicion(); suspect != "" || misses != 0 {
		t.Fatalf("suspicion not reset after declaration: %q/%d", suspect, misses)
	}
}

func TestMonitorSuccessorChangeResetsSuspicion(t *testing.T) {
	// Misses are counted per successor: when the ring changes under a
	// suspicion, the count restarts against the new successor.
	net, members := newLossyRing(t, []string{"a", "b", "c"}, 3, 3)
	a := members[0]
	net.Crash("b")
	net.Crash("c")
	a.monitor.Beat()
	a.monitor.Beat() // two misses against b
	// A peer's death notice removes b; a's successor becomes c.
	a.monitor.Ring.Remove("b")
	a.monitor.Beat() // first miss against c — must NOT inherit b's count
	if got := a.deathList(); len(got) != 0 {
		t.Fatalf("c declared dead with inherited miss count: %v", got)
	}
	if suspect, misses := a.monitor.Suspicion(); suspect != "c" || misses != 1 {
		t.Fatalf("suspicion = %q/%d, want c/1", suspect, misses)
	}
	a.monitor.Beat()
	a.monitor.Beat() // third consecutive miss against c
	if got := a.deathList(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("a deaths = %v, want [c]", got)
	}
}

func TestMonitorLiveCrashDetectionWithThreshold(t *testing.T) {
	// Timer-driven variant: with SuspectAfter 3 and Interval 10ms a
	// crashed member is pruned promptly (bounded by a generous CI
	// deadline), and a healthy one never is.
	net, members := newLossyRing(t, []string{"a", "b"}, 3, 4)
	a := members[0]
	a.monitor.Start()
	defer a.monitor.Stop()
	time.Sleep(50 * time.Millisecond) // healthy beats keep suspicion clear
	if got := a.deathList(); len(got) != 0 {
		t.Fatalf("healthy ring saw deaths %v", got)
	}
	net.Crash("b")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.deathList()) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := a.deathList(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("live threshold detection failed: deaths = %v", got)
	}
}

func TestMonitorPublishesSuspicionLifecycle(t *testing.T) {
	// The suspicion state machine narrates itself on the telemetry bus:
	// each sub-threshold miss → MemberSuspected, a recovering heartbeat →
	// MemberHealed, the threshold crossing → MemberDeclared.
	net, members := newLossyRing(t, []string{"a", "b", "c"}, 3, 5)
	a := members[0]
	bus := telemetry.NewBus()
	var mu sync.Mutex
	var events []telemetry.Event
	defer bus.Subscribe(func(e telemetry.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})()
	a.monitor.Bus = bus

	net.SetLink("a", "b", transport.Faults{Cut: true})
	a.monitor.Beat()
	a.monitor.Beat()
	net.Heal()
	a.monitor.Beat() // heals the two-miss suspicion
	net.Crash("b")
	a.monitor.Beat()
	a.monitor.Beat()
	a.monitor.Beat() // crosses the threshold → declared

	mu.Lock()
	defer mu.Unlock()
	var suspected, healed, declared int
	for _, e := range events {
		switch ev := e.(type) {
		case telemetry.MemberSuspected:
			if ev.Member != "b" {
				t.Fatalf("suspected %q, want b", ev.Member)
			}
			suspected++
		case telemetry.MemberHealed:
			if ev.Member != "b" || ev.Misses != 2 {
				t.Fatalf("healed = %+v, want b after 2 misses", ev)
			}
			healed++
		case telemetry.MemberDeclared:
			if ev.Member != "b" || ev.By != "a" {
				t.Fatalf("declared = %+v, want b by a", ev)
			}
			declared++
		}
	}
	if suspected != 4 { // 2 before heal + 2 before declaration
		t.Fatalf("MemberSuspected count = %d, want 4", suspected)
	}
	if healed != 1 || declared != 1 {
		t.Fatalf("healed=%d declared=%d, want 1/1", healed, declared)
	}
}

func TestHandleDeathBadBody(t *testing.T) {
	net := transport.NewInProcNetwork()
	a := newTestMember(t, net, "a", []string{"a", "b"})
	if _, err := a.monitor.HandleDeath(transport.Message{Type: DeathType}); err == nil {
		t.Fatal("empty death notice accepted")
	}
}

// drainSet marks members under a planned drain for the tests below.
func drainSet(drained ...string) func(string) bool {
	set := make(map[string]bool, len(drained))
	for _, d := range drained {
		set[d] = true
	}
	return func(member string) bool { return set[member] }
}

func TestMonitorDrainedSuccessorAccruesNoSuspicion(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b", "c"}
	var members []*testMember
	for _, n := range names {
		members = append(members, newTestMember(t, net, n, names))
	}
	// Drain b fleet-wide, then crash it: a drained member is deliberately
	// quiet, so a must watch past it to c, never suspect it, and never
	// declare it dead — the ring keeps all three members.
	for _, m := range members {
		m.monitor.Drained = drainSet("b")
	}
	net.Crash("b")
	for i := 0; i < 5; i++ {
		members[0].monitor.Beat()
	}
	if got := members[0].deathList(); len(got) != 0 {
		t.Fatalf("a declared deaths %v for a drained member", got)
	}
	if suspect, misses := members[0].monitor.Suspicion(); suspect != "" || misses != 0 {
		t.Fatalf("a suspects %q (%d misses); drained members must accrue no suspicion", suspect, misses)
	}
	for _, m := range []*testMember{members[0], members[2]} {
		if !m.monitor.Ring.Contains("b") {
			t.Fatalf("%s pruned drained member b", m.name)
		}
	}
}

func TestMonitorDeclareDeadIgnoresDrained(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b"}
	a := newTestMember(t, net, "a", names)
	a.monitor.Drained = drainSet("b")
	a.monitor.DeclareDead("b")
	if !a.monitor.Ring.Contains("b") {
		t.Fatal("DeclareDead removed a drained member")
	}
	if len(a.deathList()) != 0 {
		t.Fatalf("OnFailure fired for a drained member: %v", a.deathList())
	}
}

func TestHandleDeathIgnoresDrained(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b", "c"}
	a := newTestMember(t, net, "a", names)
	a.monitor.Drained = drainSet("b")
	notice := transport.Message{Type: DeathType, From: "c", Body: []byte("b")}
	if _, err := a.monitor.HandleDeath(notice); err != nil {
		t.Fatal(err)
	}
	if !a.monitor.Ring.Contains("b") {
		t.Fatal("death notice removed a drained member")
	}
	if len(a.deathList()) != 0 {
		t.Fatalf("OnFailure fired from a peer's notice for a drained member: %v", a.deathList())
	}
}

func TestMonitorAllPeersDrainedNothingToWatch(t *testing.T) {
	net := transport.NewInProcNetwork()
	names := []string{"a", "b"}
	a := newTestMember(t, net, "a", names)
	a.monitor.Drained = drainSet("b")
	net.Crash("b")
	for i := 0; i < 3; i++ {
		a.monitor.Beat() // must be a no-op: the only peer is drained
	}
	if len(a.deathList()) != 0 || a.monitor.Ring.Len() != 2 {
		t.Fatalf("deaths %v, ring %d; a lone active member has nothing to watch", a.deathList(), a.monitor.Ring.Len())
	}
}
