package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"edr/internal/membership"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

// chaosFleet is a test deployment on a fault-injection fabric.
type chaosFleet struct {
	net      *transport.FaultyNetwork
	names    []string
	replicas []*ReplicaServer
	clients  []*Client

	mu     sync.Mutex
	deaths []string // every OnFailure firing across the fleet
}

func newChaosFleet(t *testing.T, prices []float64, nClients int, seed uint64, tweak func(*ReplicaConfig)) *chaosFleet {
	t.Helper()
	f := &chaosFleet{net: transport.NewFaultyNetwork(transport.NewInProcNetwork(), seed)}
	for i := range prices {
		f.names = append(f.names, "r"+string(rune('1'+i)))
	}
	for i, price := range prices {
		cfg := ReplicaConfig{
			Replica:   model.NewReplica(f.names[i], price),
			Algorithm: LDDM,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		rs, err := NewReplicaServer(f.net, f.names[i], f.names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		rs.Monitor().Interval = 20 * time.Millisecond
		rs.Monitor().Timeout = 10 * time.Millisecond
		rs.Monitor().OnFailure = func(dead string) {
			f.mu.Lock()
			f.deaths = append(f.deaths, dead)
			f.mu.Unlock()
		}
		f.replicas = append(f.replicas, rs)
	}
	for i := 0; i < nClients; i++ {
		cl, err := NewClient(f.net, "c"+string(rune('1'+i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

func (f *chaosFleet) latencies() map[string]float64 {
	m := make(map[string]float64, len(f.names))
	for _, n := range f.names {
		m[n] = 0.0005
	}
	return m
}

// submit retries a client submission: on a lossy fabric the submit RPC
// itself can be dropped.
func (f *chaosFleet) submit(t *testing.T, cl *Client, demand float64) {
	t.Helper()
	ctx := context.Background()
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		sctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		err = cl.Submit(sctx, f.names[0], demand, f.latencies())
		cancel()
		if err == nil {
			return
		}
	}
	t.Fatalf("submit from %s never got through: %v", cl.Addr(), err)
}

func (f *chaosFleet) beatAll() {
	for _, rs := range f.replicas {
		rs.Monitor().Beat()
	}
}

func (f *chaosFleet) deathList() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.deaths...)
}

// TestChaosSoak runs scheduling rounds under 2% per-link loss, latency
// jitter, and one staged partition, asserting the tentpole's contract:
// every round completes (possibly degraded), demand is always fully
// assigned, transient faults below the suspicion threshold never shrink
// the ring, and Degraded is reported exactly when the fallback ran.
func TestChaosSoak(t *testing.T) {
	for _, alg := range []Algorithm{LDDM, CDPSM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			chaosSoak(t, alg)
		})
	}
}

func chaosSoak(t *testing.T, alg Algorithm) {
	f := newChaosFleet(t, []float64{1, 3, 5, 7, 9}, 2, 0xED12, func(cfg *ReplicaConfig) {
		cfg.Algorithm = alg
		cfg.MaxIters = 40
		cfg.RPCTimeout = 40 * time.Millisecond
		cfg.SendRetries = 4
		cfg.RetryBase = 2 * time.Millisecond
		// No round restarts: coordination failures degrade instead of
		// pruning members, so a transient partition costs staleness, not
		// a false death.
		cfg.RoundRetries = -1
	})
	demands := map[string]float64{"c1": 30, "c2": 20}

	// Background loss and latency jitter on every link.
	noise := transport.Faults{Drop: 0.02, Jitter: 200 * time.Microsecond}
	f.net.SetDefault(noise)
	cut, rest := []string{"r5"}, []string{"r1", "r2", "r3", "r4"}
	// quietBeat beats every monitor once over a loss-free fabric. It frames
	// the partition, so the partition's two misses are the only ones in a
	// row: a beat dropped next to them would be a third consecutive miss,
	// a death by the protocol's own rule, and whether the 2% stream drops
	// one turns on how many sends came first, which scheduling moves.
	quietBeat := func() {
		f.net.SetDefault(transport.Faults{})
		f.beatAll()
		f.net.SetDefault(noise)
	}

	const partitionRound = 4
	initiator := f.replicas[0]
	degradedRounds := 0
	for round := 1; round <= 6; round++ {
		if round == partitionRound {
			// Stage the outage: r5 is cut off from the rest of the fleet
			// in both directions, mid-schedule.
			quietBeat()
			f.net.Partition(cut, rest)
		}
		for _, cl := range f.clients {
			f.submit(t, cl, demands[cl.Addr()])
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		report, err := initiator.RunRound(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d failed outright under chaos: %v", round, err)
		}
		if report.Degraded {
			degradedRounds++
		}

		// Demand conservation: every client's demand fully assigned.
		rows := opt.RowSums(report.Assignment)
		for i, addr := range report.ClientAddrs {
			want := demands[addr]
			if math.Abs(rows[i]-want) > 0.2 {
				t.Fatalf("round %d: client %s served %g, want %g", round, addr, rows[i], want)
			}
		}

		if round == partitionRound {
			if !report.Degraded {
				t.Fatalf("round %d ran through a full partition without degrading", round)
			}
			for _, addr := range report.ReplicaAddrs {
				if addr == "r5" {
					t.Fatal("degraded round assigned load to the unreachable replica")
				}
			}
		}

		// Heartbeats between rounds: during the partition only two beats
		// fire — below the suspicion threshold of three.
		f.beatAll()
		if round == partitionRound {
			f.beatAll()
			// The heal hands the cut links back to the default profile,
			// and the first beat after it clears the two misses.
			for _, a := range cut {
				for _, b := range rest {
					f.net.ClearLink(a, b)
					f.net.ClearLink(b, a)
				}
			}
			quietBeat()
		}

		// Every client receives its allocation, degraded rounds included.
		for _, cl := range f.clients {
			wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
			alloc, err := cl.WaitAllocation(wctx)
			wcancel()
			if err != nil {
				t.Fatalf("round %d: client %s never got its allocation: %v", round, cl.Addr(), err)
			}
			total := 0.0
			for _, mb := range alloc.PerReplicaMB {
				total += mb
			}
			if math.Abs(total-demands[cl.Addr()]) > 0.2 {
				t.Fatalf("round %d: allocation for %s totals %g, want %g", round, cl.Addr(), total, demands[cl.Addr()])
			}
		}
	}

	if degradedRounds == 0 {
		t.Fatal("staged partition never produced a degraded round")
	}
	if got := initiator.Stats.RoundsDegraded.Value(); got != int64(degradedRounds) {
		t.Fatalf("RoundsDegraded = %d but %d reports had Degraded set", got, degradedRounds)
	}
	if initiator.Stats.SendRetried.Value() == 0 {
		t.Fatal("2% loss produced zero RPC retries — retry path untested")
	}

	// Zero false member deaths: the loss and the sub-threshold partition
	// must leave every membership view intact.
	if got := f.deathList(); len(got) != 0 {
		t.Fatalf("false member deaths under transient faults: %v", got)
	}
	for _, rs := range f.replicas {
		if rs.Ring().Len() != len(f.names) {
			t.Fatalf("%s ring shrank to %d under transient faults", rs.Addr(), rs.Ring().Len())
		}
	}
}

// TestDegradedRoundFallsBackToLastGood pins the degraded-round semantics
// without background noise: a healthy round, then a partition that
// outlasts the whole retry budget.
func TestDegradedRoundFallsBackToLastGood(t *testing.T) {
	f := newChaosFleet(t, []float64{1, 4, 9}, 2, 7, func(cfg *ReplicaConfig) {
		cfg.RPCTimeout = 30 * time.Millisecond
		cfg.SendRetries = 1
		cfg.RetryBase = time.Millisecond
		cfg.RoundRetries = -1
	})
	ctx := context.Background()
	demands := map[string]float64{"c1": 24, "c2": 18}

	// Round 1: healthy, establishes the last-known-good assignment.
	for _, cl := range f.clients {
		f.submit(t, cl, demands[cl.Addr()])
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Degraded {
		t.Fatal("healthy round reported Degraded")
	}
	for _, cl := range f.clients {
		if _, err := cl.WaitAllocation(ctx); err != nil {
			t.Fatal(err)
		}
	}

	committed := f.replicas[0].committed()

	// Round 2: r3 is unreachable for the entire round.
	f.net.Partition([]string{"r3"}, []string{"r1", "r2"})
	for _, cl := range f.clients {
		f.submit(t, cl, demands[cl.Addr()])
	}
	report, err = f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatalf("partitioned round should degrade, not fail: %v", err)
	}
	if !report.Degraded {
		t.Fatal("partitioned round did not report Degraded")
	}
	if len(report.ReplicaAddrs) != 2 {
		t.Fatalf("degraded round used replicas %v, want the 2 reachable ones", report.ReplicaAddrs)
	}
	for _, addr := range report.ReplicaAddrs {
		if addr == "r3" {
			t.Fatal("degraded round assigned load to the partitioned replica")
		}
	}
	rows := opt.RowSums(report.Assignment)
	for i, addr := range report.ClientAddrs {
		if math.Abs(rows[i]-demands[addr]) > 1e-6 {
			t.Fatalf("degraded round serves %s %g, want %g (renormalized)", addr, rows[i], demands[addr])
		}
	}
	// The degraded plan is installed on every reachable survivor, and the
	// stale split did not displace the last optimized round.
	for j, addr := range report.ReplicaAddrs {
		for _, rs := range f.replicas {
			if rs.Addr() != addr {
				continue
			}
			for i, client := range report.ClientAddrs {
				if got, want := rs.Plan(report.Round, client), report.Assignment[i][j]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s installed %g MB for %s in degraded round %d, report says %g", addr, got, client, report.Round, want)
				}
			}
		}
	}
	if f.replicas[0].committed() != committed {
		t.Fatal("degraded round overwrote the last-known-good round")
	}
	// The unreachable member was NOT declared dead: the fault may be
	// transient, and pruning is what RoundRetries is for.
	for _, rs := range []*ReplicaServer{f.replicas[0], f.replicas[1]} {
		if !rs.Ring().Contains("r3") {
			t.Fatalf("%s pruned r3 for a transient partition", rs.Addr())
		}
	}
	// Clients were notified of the degraded allocation.
	for _, cl := range f.clients {
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		alloc, err := cl.WaitAllocation(wctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.MB("r3") > 0 {
			t.Fatal("degraded allocation points a client at the unreachable replica")
		}
	}

	// Round 3: the partition heals and scheduling fully recovers.
	f.net.Heal()
	for _, cl := range f.clients {
		f.submit(t, cl, demands[cl.Addr()])
	}
	report, err = f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Degraded {
		t.Fatal("healed round still degraded")
	}
	if len(report.ReplicaAddrs) != 3 {
		t.Fatalf("healed round used %d replicas, want all 3", len(report.ReplicaAddrs))
	}
}

// TestDegradedRoundRequiresHistory: with no prior successful round there
// is nothing to fall back to, so the error surfaces.
func TestDegradedRoundRequiresHistory(t *testing.T) {
	f := newChaosFleet(t, []float64{1, 4}, 1, 7, func(cfg *ReplicaConfig) {
		cfg.RPCTimeout = 20 * time.Millisecond
		cfg.SendRetries = -1
		cfg.RoundRetries = -1
	})
	f.net.Partition([]string{"r2"}, []string{"r1"})
	f.submit(t, f.clients[0], 10)
	if _, err := f.replicas[0].RunRound(context.Background()); err == nil {
		t.Fatal("first-ever round succeeded despite an unreachable member and no fallback history")
	}
	if got := f.replicas[0].Stats.RoundsRestarted.Value(); got != 0 {
		t.Fatalf("RoundRetries -1 still restarted %d times", got)
	}
	if !f.replicas[0].Ring().Contains("r2") {
		t.Fatal("no-retry round pruned the member anyway")
	}
}

// TestSendRetriesSurviveLossBurst: a link that drops the first attempts
// recovers within the retry budget, so no member failure is attributed.
func TestSendRetriesSurviveLossBurst(t *testing.T) {
	f := newChaosFleet(t, []float64{1, 5}, 1, 21, func(cfg *ReplicaConfig) {
		cfg.RPCTimeout = 20 * time.Millisecond
		cfg.SendRetries = 6
		cfg.RetryBase = time.Millisecond
		cfg.MaxIters = -1 // projection-only round: a handful of RPCs
	})
	// 60% loss toward r2: with 7 attempts per RPC the chance a given RPC
	// exhausts its budget is ~3%, and the projection-only round only
	// sends a handful. The point: heavy transient loss costs retries, not
	// membership.
	f.net.SetLink("r1", "r2", transport.Faults{Drop: 0.6})
	f.submit(t, f.clients[0], 12)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatalf("round under loss burst failed: %v", err)
	}
	if report.Restarts != 0 && !report.Degraded {
		t.Fatalf("loss burst was attributed as member death (restarts=%d)", report.Restarts)
	}
	if f.replicas[0].Stats.SendRetried.Value() == 0 {
		t.Fatal("no retries recorded under 60% loss")
	}
	if !f.replicas[0].Ring().Contains("r2") {
		t.Fatal("lossy member was pruned")
	}
}

// TestFanOutCancelsStragglers: when one leg of a coordination wave fails
// fast, the black-holed legs must be cancelled rather than running out
// their full RPC timeouts (the fanOut goroutine-leak fix).
func TestFanOutCancelsStragglers(t *testing.T) {
	f := newChaosFleet(t, []float64{1, 3, 5, 7}, 1, 33, func(cfg *ReplicaConfig) {
		cfg.RPCTimeout = 3 * time.Second
		cfg.SendRetries = -1
		cfg.RoundRetries = -1
	})
	// r2 black-holes (would take the full 3s RPC timeout); r4 fails fast.
	f.submit(t, f.clients[0], 10)
	f.net.SetLink("r1", "r2", transport.Faults{Cut: true})
	f.net.Crash("r4")
	start := time.Now()
	_, err := f.replicas[0].RunRound(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("round succeeded with a crashed member and no fallback history")
	}
	if elapsed > time.Second {
		t.Fatalf("failed wave took %v — stragglers were not cancelled (RPCTimeout 3s)", elapsed)
	}
}

// TestRoundDeadlineNotAttributedToMembers: when the round's own context
// expires mid-wave, the failure belongs to the initiator's budget, not to
// whichever peers happened to have sends in flight — no member may be
// pruned, and the requests are re-queued for the next round to retry.
func TestRoundDeadlineNotAttributedToMembers(t *testing.T) {
	f := newChaosFleet(t, []float64{1, 4, 9}, 1, 5, func(cfg *ReplicaConfig) {
		cfg.RPCTimeout = 2 * time.Second
		cfg.SendRetries = -1
	})
	f.submit(t, f.clients[0], 10)
	// r2 black-holes, so the round is still waiting on it when the round
	// deadline (well under RPCTimeout) fires.
	f.net.SetLink("r1", "r2", transport.Faults{Cut: true})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := f.replicas[0].RunRound(ctx)
	if err == nil {
		t.Fatal("round met a 150ms deadline while a member black-holed for 2s")
	}
	var fail *failedMemberError
	if errors.As(err, &fail) {
		t.Fatalf("round-deadline expiry was attributed to member %s", fail.addr)
	}
	if got := f.replicas[0].Stats.RoundsRestarted.Value(); got != 0 {
		t.Fatalf("deadline expiry triggered %d member-pruning restarts", got)
	}
	if !f.replicas[0].Ring().Contains("r2") {
		t.Fatal("live member pruned because the round ran out of time")
	}
	if got := f.replicas[0].PendingRequests(); got != 1 {
		t.Fatalf("failed round left %d pending requests, want the 1 re-queued", got)
	}
	// With the link healed the re-queued request schedules normally.
	f.net.ClearLink("r1", "r2")
	report, err := f.replicas[0].RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Degraded || len(report.ReplicaAddrs) != 3 {
		t.Fatalf("recovered round: degraded=%v replicas=%v", report.Degraded, report.ReplicaAddrs)
	}
}

func TestConfigSentinels(t *testing.T) {
	def := (&ReplicaConfig{}).withDefaults()
	if def.RoundRetries != 3 || def.MaxIters != 200 || def.SendRetries != 2 {
		t.Fatalf("zero-value defaults = retries %d, iters %d, sendRetries %d", def.RoundRetries, def.MaxIters, def.SendRetries)
	}
	if def.RetryBase != 50*time.Millisecond {
		t.Fatalf("RetryBase default = %v", def.RetryBase)
	}
	none := (&ReplicaConfig{RoundRetries: -1, MaxIters: -1, SendRetries: -1}).withDefaults()
	if none.RoundRetries != 0 {
		t.Fatalf("RoundRetries -1 → %d, want literal 0", none.RoundRetries)
	}
	if none.MaxIters != 0 {
		t.Fatalf("MaxIters -1 → %d, want literal 0", none.MaxIters)
	}
	if none.SendRetries != 0 {
		t.Fatalf("SendRetries -1 → %d, want literal 0", none.SendRetries)
	}
	kept := (&ReplicaConfig{RoundRetries: 5, MaxIters: 80, SendRetries: 1}).withDefaults()
	if kept.RoundRetries != 5 || kept.MaxIters != 80 || kept.SendRetries != 1 {
		t.Fatalf("explicit values not preserved: %+v", kept)
	}
}

// TestChaosSoakWithChurn layers membership churn on the chaos soak: under
// the same 2% per-link loss and latency jitter, a replica drains mid-soak
// (planned power-down), survives a full partition while drained without
// ever being declared dead, and is powered back up — rounds keep
// completing with demand fully conserved throughout.
func TestChaosSoakWithChurn(t *testing.T) {
	f := newChaosFleet(t, []float64{1, 3, 5, 7, 9}, 2, 0xC0FFEE, func(cfg *ReplicaConfig) {
		cfg.Algorithm = CDPSM
		cfg.MaxIters = 40
		cfg.RPCTimeout = 40 * time.Millisecond
		cfg.SendRetries = 4
		cfg.RetryBase = 2 * time.Millisecond
		cfg.RoundRetries = -1
	})
	demands := map[string]float64{"c1": 30, "c2": 20}
	f.net.SetDefault(transport.Faults{Drop: 0.02, Jitter: 200 * time.Microsecond})

	initiator := f.replicas[0]
	// propose retries a membership change until it commits: on a lossy
	// fabric a dissemination can miss quorum, and re-proposing the same
	// logical change is idempotent by design.
	propose := func(op membership.Op, addr string) {
		t.Helper()
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err = initiator.Membership().ProposeChange(ctx, op, addr)
			cancel()
			if err == nil {
				return
			}
		}
		t.Fatalf("%s of %s never committed: %v", op, addr, err)
	}

	runRound := func(round int) *RoundReport {
		t.Helper()
		for _, cl := range f.clients {
			f.submit(t, cl, demands[cl.Addr()])
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		report, err := initiator.RunRound(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d failed outright under churn: %v", round, err)
		}
		rows := opt.RowSums(report.Assignment)
		for i, addr := range report.ClientAddrs {
			if math.Abs(rows[i]-demands[addr]) > 0.2 {
				t.Fatalf("round %d: client %s served %g, want %g", round, addr, rows[i], demands[addr])
			}
		}
		return report
	}
	rosterHas := func(report *RoundReport, addr string) bool {
		for _, a := range report.ReplicaAddrs {
			if a == addr {
				return true
			}
		}
		return false
	}

	// Rounds 1-2: the full fleet schedules under background loss.
	for round := 1; round <= 2; round++ {
		runRound(round)
		f.beatAll()
	}

	// Planned power-down of r4 mid-soak, then cut it off entirely. A
	// powered-down replica stops heartbeating, so only the active members
	// beat — and a drained member must survive a partition well past the
	// suspicion threshold without anyone declaring it dead.
	propose(membership.OpDrain, "r4")
	f.net.Partition([]string{"r4"}, []string{"r1", "r2", "r3", "r5"})
	beatActive := func() {
		for _, rs := range f.replicas {
			if rs.Addr() == "r4" {
				continue
			}
			rs.Monitor().Beat()
		}
	}
	for round := 3; round <= 4; round++ {
		report := runRound(round)
		if rosterHas(report, "r4") {
			t.Fatalf("round %d scheduled the drained replica: %v", round, report.ReplicaAddrs)
		}
		beatActive()
		beatActive() // four beats across the partition: past the threshold
	}
	if got := f.deathList(); len(got) != 0 {
		t.Fatalf("drained member declared dead under partition: %v", got)
	}

	// Power r4 back up: heal the link, undrain, and it rejoins the roster.
	f.net.Heal()
	propose(membership.OpUndrain, "r4")
	report := runRound(5)
	if !rosterHas(report, "r4") {
		t.Fatalf("round 5 roster missing the undrained replica: %v", report.ReplicaAddrs)
	}
	f.beatAll()

	// The churn cost nothing in membership terms: zero deaths fleet-wide
	// and every ring still holds all five members.
	if got := f.deathList(); len(got) != 0 {
		t.Fatalf("false member deaths under churn: %v", got)
	}
	for _, rs := range f.replicas {
		if rs.Ring().Len() != len(f.names) {
			t.Fatalf("%s ring shrank to %d under churn", rs.Addr(), rs.Ring().Len())
		}
	}
}
