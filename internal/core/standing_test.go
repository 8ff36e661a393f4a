package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"edr/internal/model"
	"edr/internal/telemetry"
)

// standingFleet is a fleet of three replicas and n clients on a tap, with
// every client's demand at 1 + i/4 MB and uniform latencies.
type standingFleet struct {
	*fleet
	tap     *requestTap
	demands []float64
}

func newStandingFleet(t *testing.T, n int) *standingFleet {
	t.Helper()
	tap := newRequestTap()
	f := &standingFleet{fleet: newFleetOn(t, tap, tap.InProcNetwork, []float64{1, 4, 2}, n, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.Incremental = true
	}), tap: tap}
	for i := 0; i < n; i++ {
		f.demands = append(f.demands, 1+float64(i)/4)
	}
	return f
}

// window has the clients for which submits reports true Submit their
// demand to contact, then runs contact's round when anything is queued or
// stands there. It returns the round's report (nil when none ran) and the
// client.request count the Submits cost.
func (f *standingFleet) window(t *testing.T, contact *ReplicaServer, submits func(i int) bool) (*RoundReport, int) {
	t.Helper()
	ctx := context.Background()
	for i, cl := range f.clients {
		if submits(i) {
			if err := cl.Submit(ctx, contact.Addr(), f.demands[i], f.uniformLatencies()); err != nil {
				t.Fatal(err)
			}
		}
	}
	sent := len(f.tap.take())
	if contact.PendingRequests() == 0 && contact.StandingClients() == 0 {
		return nil, sent
	}
	report, err := contact.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return report, sent
}

// scheduled maps each client in report to the MB its row holds.
func scheduled(report *RoundReport) map[string]float64 {
	out := make(map[string]float64, len(report.ClientAddrs))
	for i, addr := range report.ClientAddrs {
		for _, v := range report.Assignment[i] {
			out[addr] += v
		}
	}
	return out
}

// checkScheduled fails unless report schedules exactly the clients in
// want, each its demand.
func (f *standingFleet) checkScheduled(t *testing.T, report *RoundReport, want func(i int) bool) {
	t.Helper()
	got := scheduled(report)
	for i, cl := range f.clients {
		mb, in := got[cl.Addr()]
		if in != want(i) {
			t.Fatalf("round %d: client %d scheduled %v, want %v", report.Round, i, in, want(i))
		}
		if in && math.Abs(mb-f.demands[i]) > 1e-6*f.demands[i] {
			t.Fatalf("round %d: client %d scheduled %g MB, want %g", report.Round, i, mb, f.demands[i])
		}
	}
}

func everyClient(int) bool { return true }

// A client whose request does not change stands after two handle-form
// windows, then sends one identical Submit in standingRenewal: the rest
// cost no request, and its demand is in every round all the same.
func TestStandingClientSkipsIdenticalResubmission(t *testing.T) {
	const n = 8
	f := newStandingFleet(t, n)
	contact := f.replicas[0]
	reg := telemetry.NewRegistry()
	contact.RegisterMetrics(reg)
	// Window 1 sends the full forms, windows 2 and 3 the handle-form pair
	// each client stands on.
	for w := 1; w <= 3; w++ {
		report, sent := f.window(t, contact, everyClient)
		if sent != n {
			t.Fatalf("window %d sent %d requests, want %d", w, sent, n)
		}
		f.checkScheduled(t, report, everyClient)
	}
	if got := contact.StandingClients(); got != n {
		t.Fatalf("%d clients stand after three identical windows, want %d", got, n)
	}
	if got := gaugeValue(t, reg, "edr_standing_clients"); got != n {
		t.Fatalf("edr_standing_clients reads %g, want %d", got, n)
	}
	total := 0
	for w := 4; w < 4+3*standingRenewal; w++ {
		report, sent := f.window(t, contact, everyClient)
		total += sent
		f.checkScheduled(t, report, everyClient)
		if !report.Incremental || report.DirtyClients != 0 {
			t.Fatalf("window %d: incremental %v, dirty %d; want a clean commit", w, report.Incremental, report.DirtyClients)
		}
	}
	if want := 3 * n; total != want {
		t.Fatalf("%d windows of standing clients sent %d requests, want one renewal per client per %d windows, %d", 3*standingRenewal, total, standingRenewal, want)
	}
	if got := contact.PendingRequests(); got != 0 {
		t.Fatalf("%d requests pending after the round", got)
	}
}

// Renewals land on beats the clients' own addresses set, not the handles
// their contact drew at random: two fresh fleets built alike renew on
// identical beats, each client once in standingRenewal windows, and the
// fleet's renewals spread over more than one window of each cycle.
func TestStandingRenewalBeatsReproducible(t *testing.T) {
	const n, windows = 12, 3 * standingRenewal
	renewals := func() [][]int {
		f := newStandingFleet(t, n)
		contact := f.replicas[0]
		for w := 1; w <= 3; w++ {
			f.window(t, contact, everyClient)
		}
		if got := contact.StandingClients(); got != n {
			t.Fatalf("%d clients stand, want %d", got, n)
		}
		ctx := context.Background()
		beats := make([][]int, n)
		for w := 0; w < windows; w++ {
			for i, cl := range f.clients {
				if err := cl.Submit(ctx, contact.Addr(), f.demands[i], f.uniformLatencies()); err != nil {
					t.Fatal(err)
				}
				if len(f.tap.take()) > 0 {
					beats[i] = append(beats[i], w)
				}
			}
			if _, err := contact.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return beats
	}
	first, second := renewals(), renewals()
	windowsUsed := map[int]bool{}
	for i := range first {
		if !slices.Equal(first[i], second[i]) {
			t.Fatalf("client %d renewed on beats %v in one fleet and %v in the other", i, first[i], second[i])
		}
		if len(first[i]) != windows/standingRenewal {
			t.Fatalf("client %d renewed on beats %v, want one in every %d", i, first[i], standingRenewal)
		}
		windowsUsed[first[i][0]] = true
	}
	if len(windowsUsed) < 2 {
		t.Fatalf("all %d clients renew in the same window of %d", n, standingRenewal)
	}
}

// A client that submits every other window never stands, however steady
// its demand: each of its Submits sends a request, and it departs in the
// windows it skips.
func TestStandingNeedsConsecutiveWindows(t *testing.T) {
	f := newStandingFleet(t, 3)
	contact := f.replicas[0]
	steady := func(i int) bool { return i != 2 }
	for w := 1; w <= 12; w++ {
		sparse := w%2 == 1
		if sparse {
			if err := f.clients[2].Submit(context.Background(), contact.Addr(), f.demands[2], f.uniformLatencies()); err != nil {
				t.Fatal(err)
			}
			if sent := len(f.tap.take()); sent != 1 {
				t.Fatalf("window %d: the sparse client's Submit sent %d requests, want 1", w, sent)
			}
		}
		report, _ := f.window(t, contact, steady)
		f.checkScheduled(t, report, func(i int) bool { return steady(i) || sparse })
	}
	if got := contact.StandingClients(); got != 2 {
		t.Fatalf("%d clients stand, want the 2 steady ones", got)
	}
}

// A withdrawn client is gone from the next round; the others keep
// standing, and its next Submit sends the full form and schedules it again.
func TestWithdrawDepartsNextRound(t *testing.T) {
	f := newStandingFleet(t, 4)
	contact := f.replicas[0]
	for w := 0; w < 4; w++ {
		f.window(t, contact, everyClient)
	}
	ctx := context.Background()
	if err := f.clients[1].Withdraw(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.tap.takeWithdrawals(); !slices.Equal(got, []string{contact.Addr()}) {
		t.Fatalf("withdrawals reached %v, want %s", got, contact.Addr())
	}
	gone := func(i int) bool { return i != 1 }
	report, _ := f.window(t, contact, gone)
	f.checkScheduled(t, report, gone)
	if v := contact.Plan(report.Round, f.clients[1].Addr()); v != 0 {
		t.Fatalf("%s still serves the withdrawn client %g MB", contact.Addr(), v)
	}
	if got := contact.StandingClients(); got != 3 {
		t.Fatalf("%d clients stand after a withdrawal, want 3", got)
	}
	// A client holding no handle has nothing to withdraw.
	if err := f.clients[1].Withdraw(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.tap.takeWithdrawals(); len(got) != 0 {
		t.Fatalf("a second withdrawal reached %v, want none", got)
	}
	if err := f.clients[1].Submit(ctx, contact.Addr(), f.demands[1], f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	if sent := f.tap.take(); len(sent) != 1 || sent[0].Handle != 0 {
		t.Fatalf("the returning client sent %+v, want the full form", sent)
	}
	report, _ = f.window(t, contact, gone)
	f.checkScheduled(t, report, everyClient)
}

// A standing client that stops submitting is queued for roundStatesKept−1
// more drains and lapses at the drain that sweeps its handle, which
// edr_standing_lapses_total counts; its next Submit finds no handle and
// resends in full.
func TestStandingLapses(t *testing.T) {
	f := newStandingFleet(t, 3)
	contact := f.replicas[0]
	reg := telemetry.NewRegistry()
	contact.RegisterMetrics(reg)
	for w := 0; w < 3; w++ {
		f.window(t, contact, everyClient) // client 0 stands after its third request
	}
	silent := func(i int) bool { return i != 0 }
	for d := 1; d < roundStatesKept; d++ {
		report, _ := f.window(t, contact, silent)
		f.checkScheduled(t, report, everyClient)
	}
	if got := gaugeValue(t, reg, "edr_standing_lapses_total"); got != 0 {
		t.Fatalf("%g lapses before the horizon", got)
	}
	report, _ := f.window(t, contact, silent)
	f.checkScheduled(t, report, silent)
	if got := gaugeValue(t, reg, "edr_standing_lapses_total"); got != 1 {
		t.Fatalf("edr_standing_lapses_total reads %g, want 1", got)
	}
	if got := contact.StandingClients(); got != 2 {
		t.Fatalf("%d clients stand after the lapse, want 2", got)
	}
	// The client still believes it stands: identical Submits send nothing
	// until its renewal, which misses and resends in full.
	var sent []RequestBody
	for k := 0; k < standingRenewal && len(sent) == 0; k++ {
		if err := f.clients[0].Submit(context.Background(), contact.Addr(), f.demands[0], f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
		sent = f.tap.take()
	}
	if len(sent) != 2 || sent[0].Handle == 0 || sent[1].Handle != 0 {
		t.Fatalf("the lapsed client's renewal sent %+v, want a miss then the full form", sent)
	}
}

// After a contact restarts, every standing client's next renewal misses
// and resends in full: within standingRenewal windows all of them are back
// in the round, and each stays in every round after it came back.
func TestContactRestartReadmitsStandingClients(t *testing.T) {
	const n = 8
	f := newStandingFleet(t, n)
	contact := f.replicas[0]
	for w := 0; w < 4; w++ {
		f.window(t, contact, everyClient)
	}
	addr := contact.Addr()
	contact.Close()
	peers := []string{f.replicas[1].Addr(), f.replicas[2].Addr()}
	restarted, err := NewReplicaServer(f.tap, addr, peers, ReplicaConfig{Replica: model.NewReplica(addr, 1), Algorithm: LDDM, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	back := map[string]bool{}
	for w := 1; w <= standingRenewal; w++ {
		report, _ := f.window(t, restarted, everyClient)
		if report == nil {
			continue
		}
		for _, c := range report.ClientAddrs {
			back[c] = true
		}
		if got := scheduled(report); len(got) < len(back) {
			t.Fatalf("window %d after the restart schedules %d clients, %d came back", w, len(got), len(back))
		}
	}
	if len(back) != n {
		t.Fatalf("%d of %d standing clients back within %d windows of the restart", len(back), n, standingRenewal)
	}
	report, _ := f.window(t, restarted, everyClient)
	f.checkScheduled(t, report, everyClient)
}

// A standing client that submits to another contact withdraws from the old
// one first: the old contact's next round goes without it, the new one's
// schedules it, and no client is counted at both.
func TestContactSwitchWithdraws(t *testing.T) {
	f := newStandingFleet(t, 4)
	old, next := f.replicas[0], f.replicas[1]
	for w := 0; w < 4; w++ {
		f.window(t, old, everyClient)
	}
	ctx := context.Background()
	f.tap.takeWithdrawals()
	if err := f.clients[3].Submit(ctx, next.Addr(), f.demands[3], f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	if got := f.tap.takeWithdrawals(); !slices.Equal(got, []string{old.Addr()}) {
		t.Fatalf("switching contact withdrew from %v, want %s", got, old.Addr())
	}
	stay := func(i int) bool { return i != 3 }
	report, _ := f.window(t, old, stay)
	f.checkScheduled(t, report, stay)
	report, err := next.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheduled(report); len(got) != 1 || math.Abs(got[f.clients[3].Addr()]-f.demands[3]) > 1e-6 {
		t.Fatalf("the new contact scheduled %v, want the switched client's %g MB", got, f.demands[3])
	}
}

// A failed round puts its rows back, and a client's next request replaces
// its row instead of adding to it: a 5 % overload that fails one round does
// not compound, and the next window's demand, under capacity, commits.
func TestRequeuedRowIsReplaced(t *testing.T) {
	f := newFleet(t, []float64{1, 2, 3}, 4, LDDM) // 3 × 100 MB
	ctx := context.Background()
	rs := f.replicas[0]
	submit := func(mb float64) {
		t.Helper()
		for _, cl := range f.clients {
			if err := cl.Submit(ctx, rs.Addr(), mb, f.uniformLatencies()); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(78.75)
	if _, err := rs.RunRound(ctx); err == nil {
		t.Fatal("a round over 315 MB of demand on 300 MB of capacity committed")
	}
	submit(70)
	for _, cl := range f.clients {
		if got := queuedRequest(rs, cl.Addr()); got == nil || got.DemandMB != 70 {
			t.Fatalf("client %s queued %+v after a failed round, want 70 MB", cl.Addr(), got)
		}
	}
	report, err := rs.RunRound(ctx)
	if err != nil {
		t.Fatalf("the round after a failed one: %v", err)
	}
	for addr, mb := range scheduled(report) {
		if math.Abs(mb-70) > 1e-6 {
			t.Fatalf("client %s scheduled %g MB, want 70", addr, mb)
		}
	}
}

// ServeRounds keeps running rounds while a client stands, though it sends
// nothing; the withdrawal of the last client is one round with no rows, and
// after it no round runs and no error is reported.
func TestServeRoundsUntilWithdraw(t *testing.T) {
	f := newFleet(t, []float64{1, 4}, 1, LDDM)
	rs, cl := f.replicas[0], f.clients[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports := make(chan *RoundReport, 16)
	go rs.ServeRounds(ctx, 20*time.Millisecond,
		func(rep *RoundReport) {
			select {
			case reports <- rep:
			default:
			}
		},
		func(err error) { t.Errorf("round error: %v", err) },
	)
	next := func(what string) {
		t.Helper()
		select {
		case <-reports:
		case <-time.After(5 * time.Second):
			t.Fatalf("no round %s", what)
		}
	}
	for w := 0; w < 3; w++ {
		if err := cl.Submit(ctx, rs.Addr(), 12, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
		next("after a submission")
	}
	next("while the client stands")
	if rs.StandingClients() != 1 {
		t.Fatalf("%d clients stand, want 1", rs.StandingClients())
	}
	if err := cl.Withdraw(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for emptied := false; !emptied; {
		select {
		case rep := <-reports:
			// A round already under way when the client withdrew lists it.
			emptied = len(rep.ClientAddrs) == 0
		case <-deadline:
			t.Fatal("no round committed the withdrawal")
		}
	}
	if rs.PendingRequests() > 0 || rs.StandingClients() > 0 {
		t.Fatalf("%d clients queued and %d standing after the withdrawal's round", rs.PendingRequests(), rs.StandingClients())
	}
	select {
	case rep := <-reports:
		t.Fatalf("round %d ran with no client left", rep.Round)
	case <-time.After(100 * time.Millisecond):
	}
}

// checkDeparted fails unless report is a round past before that commits no
// rows: it is the contact's last report, a pull finds the round and no
// allocation in it, and no replica holds a plan for any client under it.
func (f *standingFleet) checkDeparted(t *testing.T, contact *ReplicaServer, before, report *RoundReport) {
	t.Helper()
	if report.Round <= before.Round || len(report.ClientAddrs) != 0 || len(report.Assignment) != 0 {
		t.Fatalf("round %d lists %v after round %d, want a later round with no rows", report.Round, report.ClientAddrs, before.Round)
	}
	if last := contact.LastReport(); last != report {
		t.Fatalf("the last report is round %d, want %d", last.Round, report.Round)
	}
	for _, cl := range f.clients {
		resp, err := sendRaw(t, f.fleet, contact.Addr(), MsgAllocationPull, PullBody{ClientAddr: cl.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		var pulled AllocationBody
		if err := resp.DecodeBody(&pulled); err != nil {
			t.Fatal(err)
		}
		if pulled.Round != report.Round || len(pulled.PerReplicaMB) != 0 {
			t.Fatalf("%s pulled %+v, want round %d with no allocation", cl.Addr(), pulled, report.Round)
		}
		for _, rs := range f.replicas {
			if v := rs.Plan(report.Round, cl.Addr()); v != 0 {
				t.Fatalf("%s serves %s %g MB under round %d", rs.Addr(), cl.Addr(), v, report.Round)
			}
		}
	}
}

// When the last client withdraws, the next round commits with no rows
// instead of leaving the client's row committed: replicas, pulls and the
// autoscaler's report all see no load. An empty fleet then runs no round,
// and a client that returns is scheduled.
func TestLastWithdrawalCommitsEmptyRound(t *testing.T) {
	f := newStandingFleet(t, 1)
	contact, ctx := f.replicas[0], context.Background()
	before, _ := f.window(t, contact, everyClient)
	if err := f.clients[0].Withdraw(ctx); err != nil {
		t.Fatal(err)
	}
	report, err := contact.RunRound(ctx)
	if err != nil {
		t.Fatalf("the round after the last withdrawal: %v", err)
	}
	f.checkDeparted(t, contact, before, report)
	if _, err := contact.RunRound(ctx); !errors.Is(err, errNoPending) {
		t.Fatalf("a round on an empty fleet: %v, want %v", err, errNoPending)
	}
	report, _ = f.window(t, contact, everyClient)
	f.checkScheduled(t, report, everyClient)
}

// When the last standing client lapses, the drain that retires its handle
// commits a round with no rows; the client is scheduled again once its
// renewal has resent its request in full.
func TestLastStandingLapseCommitsEmptyRound(t *testing.T) {
	f := newStandingFleet(t, 1)
	contact := f.replicas[0]
	for w := 0; w < 3; w++ {
		f.window(t, contact, everyClient) // the client stands after its third request
	}
	silent := func(int) bool { return false }
	var before *RoundReport
	for d := 1; d < roundStatesKept; d++ {
		before, _ = f.window(t, contact, silent)
		f.checkScheduled(t, before, everyClient)
	}
	report, _ := f.window(t, contact, silent)
	if report == nil {
		t.Fatal("no round ran at the lapse")
	}
	f.checkDeparted(t, contact, before, report)
	if got := contact.StandingClients(); got != 0 {
		t.Fatalf("%d clients stand after the lapse, want 0", got)
	}
	if report, _ := f.window(t, contact, silent); report != nil {
		t.Fatalf("round %d ran on an empty fleet", report.Round)
	}
	for w := 0; w < standingRenewal; w++ {
		if report, _ = f.window(t, contact, everyClient); report != nil {
			f.checkScheduled(t, report, everyClient)
			return
		}
	}
	t.Fatalf("the lapsed client was not scheduled within %d windows", standingRenewal)
}
