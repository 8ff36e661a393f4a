package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"edr/internal/model"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// requestTap wraps the in-process fabric and records every client.request
// a replica receives, as decoded, in arrival order, and the replica every
// client.withdraw reaches.
type requestTap struct {
	*transport.InProcNetwork
	mu          sync.Mutex
	requests    []RequestBody
	withdrawals []string
}

func newRequestTap() *requestTap {
	return &requestTap{InProcNetwork: transport.NewInProcNetwork()}
}

func (n *requestTap) Listen(name string, h transport.Handler) (transport.Node, error) {
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		switch req.Type {
		case MsgClientRequest:
			var body RequestBody
			if req.DecodeBody(&body) == nil {
				n.mu.Lock()
				n.requests = append(n.requests, body)
				n.mu.Unlock()
			}
		case MsgClientWithdraw:
			n.mu.Lock()
			n.withdrawals = append(n.withdrawals, name)
			n.mu.Unlock()
		}
		return h(ctx, req)
	})
}

// take returns the requests recorded since the last take.
func (n *requestTap) take() []RequestBody {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.requests
	n.requests = nil
	return out
}

// takeWithdrawals returns the replicas withdrawn from since the last call.
func (n *requestTap) takeWithdrawals() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.withdrawals
	n.withdrawals = nil
	return out
}

// queuedRow is what a client queued at its contact since the last drain:
// the row the next drain gives it, or a withdrawal.
type queuedRow struct {
	RequestBody
	gone bool
}

// queuedOf is c's queued row; false when c queued nothing.
func queuedOf(c *clientRecord) (queuedRow, bool) {
	switch {
	case c.withdrawn:
		return queuedRow{RequestBody: RequestBody{ClientAddr: c.addr}, gone: true}, true
	case c.queued != nil:
		return queuedRow{RequestBody: *c.queued}, true
	}
	return queuedRow{}, false
}

// queuedRequest is rs's queued row for client, nil when none.
func queuedRequest(rs *ReplicaServer, client string) *queuedRow {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if c := rs.clients.byAddr[client]; c != nil {
		if row, ok := queuedOf(c); ok {
			return &row
		}
	}
	return nil
}

// An unchanged resubmission to the same contact is the handle form, its
// handle and demand in 12 bytes, and it queues the row a full resubmission
// would have; an edited map, a changed key set or another contact sends
// the full form again.
func TestUnchangedResubmissionCarriesDemandOnly(t *testing.T) {
	tap := newRequestTap()
	f := newFleetOn(t, tap, tap.InProcNetwork, []float64{1, 2, 3}, 1, LDDM, nil)
	ctx := context.Background()
	cl, r1, r2 := f.clients[0], f.replicas[0], f.replicas[1]
	lat := f.uniformLatencies()
	submit := func(contact *ReplicaServer, mb float64) RequestBody {
		t.Helper()
		if err := cl.Submit(ctx, contact.Addr(), mb, lat); err != nil {
			t.Fatal(err)
		}
		got := tap.take()
		if len(got) != 1 {
			t.Fatalf("one Submit sent %d requests, want 1", len(got))
		}
		return got[0]
	}

	first := submit(r1, 10)
	if first.Handle != 0 || first.ClientAddr != cl.Addr() || len(first.LatencySec) != 3 {
		t.Fatalf("first submission %+v, want the full form", first)
	}
	second := submit(r1, 4)
	if second.Handle == 0 || second.ClientAddr != "" || second.LatencySec != nil {
		t.Fatalf("unchanged resubmission %+v, want handle and demand only", second)
	}
	bin, err := second.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) != 12 {
		t.Fatalf("handle-form body is %d bytes, want 12", len(bin))
	}
	if got := queuedRequest(r1, cl.Addr()); got.DemandMB != 14 || !reflect.DeepEqual(got.LatencySec, f.latencyList()) {
		t.Fatalf("queued %g MB with %v, want 14 MB with %v", got.DemandMB, got.LatencySec, f.latencyList())
	}

	lat[r2.Addr()] = 0.0007 // an edit
	if got := submit(r1, 1); got.Handle != 0 || len(got.LatencySec) != 3 {
		t.Fatalf("edited latencies sent %+v, want the full list", got)
	}
	delete(lat, r2.Addr()) // a smaller key set
	if got := submit(r1, 1); got.Handle != 0 || len(got.LatencySec) != 2 {
		t.Fatalf("dropped replica sent %+v, want the full list", got)
	}
	if got := submit(r1, 1); got.Handle == 0 {
		t.Fatalf("unchanged resubmission sent %+v, want its handle", got)
	}
	if got := submit(r2, 1); got.Handle != 0 {
		t.Fatalf("a new contact got %+v, want the full list", got)
	}
	if got := submit(r1, 1); got.Handle != 0 {
		t.Fatalf("switching back to a contact sent %+v, want the full list", got)
	}
}

// A contact that no longer holds the handle — it restarted, or swept the
// entry after roundStatesKept drains without a use — queues nothing for it
// and asks for the full form, which Submit resends in the same call: one
// extra RPC, and the row queued is the one a full submission queues.
func TestLatencyVersionMissResendsInFull(t *testing.T) {
	tap := newRequestTap()
	f := newFleetOn(t, tap, tap.InProcNetwork, []float64{1, 2}, 2, LDDM, nil)
	ctx := context.Background()
	cl, other := f.clients[0], f.clients[1]
	submit := func(c *Client, contact string, mb float64) []RequestBody {
		t.Helper()
		if err := c.Submit(ctx, contact, mb, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
		return tap.take()
	}
	missed := func(got []RequestBody) bool {
		return len(got) == 2 && got[0].Handle != 0 && got[0].LatencySec == nil &&
			got[1].Handle == 0 && len(got[1].LatencySec) == len(f.replicas)
	}
	check := func(rs *ReplicaServer, mb float64) {
		t.Helper()
		if got := queuedRequest(rs, cl.Addr()); got == nil || got.DemandMB != mb || !reflect.DeepEqual(got.LatencySec, f.latencyList()) {
			t.Fatalf("queued %+v, want %g MB with %v", got, mb, f.latencyList())
		}
	}

	// A restart on the same address.
	addr := f.replicas[0].Addr()
	submit(cl, addr, 5)
	f.replicas[0].Close()
	rs, err := NewReplicaServer(tap, addr, []string{f.replicas[1].Addr()}, ReplicaConfig{Replica: model.NewReplica(addr, 1), Algorithm: LDDM})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	if got := submit(cl, addr, 5); !missed(got) {
		t.Fatalf("resubmission to a restarted contact sent %+v, want a handle-form miss then the full form", got)
	}
	check(rs, 5)
	if got := submit(cl, addr, 2); len(got) != 1 || got[0].Handle == 0 {
		t.Fatalf("resubmission after the resend sent %+v, want one handle-form request", got)
	}
	check(rs, 7)

	// A sweep: roundStatesKept drains without a use keep the entry, one
	// more drops it.
	for d := 1; d <= roundStatesKept+1; d++ {
		submit(other, addr, 1)
		if rs.drainPending() == nil {
			t.Fatal("nothing drained")
		}
		if d == roundStatesKept {
			if got := submit(cl, addr, 3); len(got) != 1 || got[0].Handle == 0 {
				t.Fatalf("resubmission after %d idle drains sent %+v, want one handle-form request", d, got)
			}
			check(rs, 3)
		}
	}
	// The use above was after drain roundStatesKept, so that entry lives
	// through drain 2·roundStatesKept; drain the rest.
	for d := roundStatesKept + 2; d <= 2*roundStatesKept+1; d++ {
		submit(other, addr, 1)
		rs.drainPending()
	}
	if got := submit(cl, addr, 6); !missed(got) {
		t.Fatalf("resubmission after the sweep sent %+v, want a handle-form miss then the full form", got)
	}
	check(rs, 6)
}

// A full-form request speaks for its sender only: one naming another client
// is refused before anything is queued or stored, so the named client's
// queued demand and handle stay as they were and its round schedules what
// it asked for.
func TestFullFormForAnotherClientRefused(t *testing.T) {
	tap := newRequestTap()
	f := newFleetOn(t, tap, tap.InProcNetwork, []float64{1, 2, 3}, 2, LDDM, nil)
	ctx := context.Background()
	contact, sender, named := f.replicas[0], f.clients[0], f.clients[1]
	if err := named.Submit(ctx, contact.Addr(), 2, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	body, err := RequestBody{ClientAddr: named.Addr(), DemandMB: 7, LatencySec: f.latencyList()}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.node.Send(ctx, contact.Addr(), transport.Message{Type: MsgClientRequest, From: sender.Addr(), Body: body}); err == nil {
		t.Fatalf("%s's full form naming %s was admitted", sender.Addr(), named.Addr())
	}
	if got := queuedRequest(contact, named.Addr()); got == nil || got.DemandMB != 2 {
		t.Fatalf("%s queued %+v after the refusal, want its own 2 MB", named.Addr(), got)
	}
	if got := queuedRequest(contact, sender.Addr()); got != nil {
		t.Fatalf("the refused request queued %+v for its sender", got)
	}
	tap.take()
	if err := named.Submit(ctx, contact.Addr(), 2, f.uniformLatencies()); err != nil {
		t.Fatal(err)
	}
	if sent := tap.take(); len(sent) != 1 || sent[0].Handle == 0 {
		t.Fatalf("%s's next Submit sent %+v, want one handle-form request", named.Addr(), sent)
	}
	report, err := contact.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheduled(report); len(got) != 1 || math.Abs(got[named.Addr()]-4) > 1e-6 {
		t.Fatalf("the round scheduled %v, want %s's 4 MB alone", got, named.Addr())
	}
}

// A refused submission leaves the client's demand at the last acknowledged
// figure: the cohort push scales its unit split by it, so a refused NaN
// demand must not turn the next push into an empty row.
func TestRefusedSubmitKeepsAckedDemand(t *testing.T) {
	f := cohortFleet(t, []float64{1, 10, 5}, 4, LDDM)
	ctx := context.Background()
	contact := f.replicas[0].Addr()
	for _, cl := range f.clients {
		if err := cl.Submit(ctx, contact, 5, f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.clients[0].Submit(ctx, contact, math.NaN(), f.uniformLatencies()); err == nil {
		t.Fatal("NaN demand accepted")
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Cohorts == 0 {
		t.Fatal("round was not cohorted")
	}
	alloc, err := f.clients[0].WaitAllocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := allocatedMB(alloc); math.Abs(got-5) > 1e-6 {
		t.Fatalf("cohort push after a refused NaN submission carries %g MB, want 5", got)
	}
}

// gaugeValue reads one unlabeled gauge off reg's exposition.
func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return x
		}
	}
	t.Fatalf("%s not in the exposition:\n%s", name, b.String())
	return 0
}

// edr_latency_versions counts the clients whose lists the contact holds:
// when half of a 1 000-client fleet stops submitting, their lists outlive
// roundStatesKept rounds and are gone after one more.
func TestLatencyVersionsGaugeSweepsIdleClients(t *testing.T) {
	const clients = 1000
	f := newFleetCfg(t, []float64{1, 3, 5}, clients, LDDM, func(_ int, cfg *ReplicaConfig) {
		cfg.CohortMinClients = 2
	})
	ctx := context.Background()
	contact := f.replicas[0]
	reg := telemetry.NewRegistry()
	contact.RegisterMetrics(reg)
	lat := f.uniformLatencies()
	window := func(active int) {
		t.Helper()
		for _, cl := range f.clients[:active] {
			if err := cl.Submit(ctx, contact.Addr(), 0.05, lat); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := contact.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	window(clients)
	if got := gaugeValue(t, reg, "edr_latency_versions"); got != clients {
		t.Fatalf("after the first round the gauge reads %g, want %d", got, clients)
	}
	for round := 2; round <= roundStatesKept+1; round++ {
		window(clients / 2)
		want := clients
		if round == roundStatesKept+1 {
			want = clients / 2
		}
		if got := gaugeValue(t, reg, "edr_latency_versions"); got != float64(want) {
			t.Fatalf("after round %d the gauge reads %g, want %d", round, got, want)
		}
	}
}

// resubmitOracle is the queue a replica builds from full-list submissions
// only: per client, the summed demand and the union of its latencies, a
// newer figure replacing an older one, or a withdrawal, which a submission
// replaces.
type resubmitOracle map[string]*oracleRow

type oracleRow struct {
	demand float64
	lat    map[string]float64
	gone   bool
}

// submit queues a submission and returns the client's queued demand.
func (o resubmitOracle) submit(client string, demand float64, lat map[string]float64) float64 {
	row, ok := o[client]
	if !ok || row.gone {
		o[client] = &oracleRow{demand: demand, lat: maps.Clone(lat)}
		return demand
	}
	row.demand += demand
	maps.Copy(row.lat, lat)
	return row.demand
}

// requests lists the queue in client order, withdrawals included.
func (o resubmitOracle) requests() []queuedRow {
	out := make([]queuedRow, 0, len(o))
	for client, row := range o {
		if row.gone {
			out = append(out, queuedRow{RequestBody: RequestBody{ClientAddr: client}, gone: true})
		} else {
			out = append(out, queuedRow{RequestBody: RequestBody{ClientAddr: client, DemandMB: row.demand, LatencySec: latencyList(row.lat)}})
		}
	}
	slices.SortFunc(out, byQueuedAddr)
	return out
}

func byQueuedAddr(a, b queuedRow) int { return strings.Compare(a.ClientAddr, b.ClientAddr) }

// queued lists rs's queued rows in client order, and fails unless
// PendingRequests counts them.
func queued(t *testing.T, rs *ReplicaServer) []queuedRow {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []queuedRow
	for _, c := range rs.clients.byAddr {
		if row, ok := queuedOf(c); ok {
			out = append(out, row)
		}
	}
	if rs.clients.touched != len(out) {
		t.Fatalf("%s counts %d clients pending, %d queued", rs.Addr(), rs.clients.touched, len(out))
	}
	slices.SortFunc(out, byQueuedAddr)
	return out
}

// sameRows compares queues by demand, latency list and withdrawal; an
// empty list is one whether nil or not.
func sameRows(got, want []queuedRow) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ClientAddr != want[i].ClientAddr || got[i].DemandMB != want[i].DemandMB || got[i].gone != want[i].gone ||
			got[i].Handle != 0 || !slices.Equal(got[i].LatencySec, want[i].LatencySec) {
			return false
		}
	}
	return true
}

// standModel is the standing rule as the oracle states it: what one end of
// a client.request keeps of the last one admitted, and the verdict.
type standModel struct {
	handled bool
	demand  float64
	round   int
	stands  bool
}

// admit records an admitted request: the handle form when handled, for
// demand, acked with round and queued.
func (m *standModel) admit(handled bool, demand float64, round int, queued float64) {
	m.stands = handled && m.handled && demand == m.demand && queued == demand && (m.stands || round == m.round+1)
	m.handled, m.demand, m.round = handled, demand, round
}

// resubmitSeed encodes FuzzResubmitEquiv ops: each is an opcode byte
// (op % 10) and one argument byte.
func resubmitSeed(ops ...[2]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[0], op[1])
	}
	return out
}

// FuzzResubmitEquiv runs a random sequence of submissions (repeats within
// a window, contact switches, refused NaN demands), latency edits, dropped
// and re-added replicas, drains (which sweep, and bump the round sequence
// as the round that follows would), runs of drains long enough to lapse,
// withdrawals and replica restarts on the same address through the handle
// path, and after every step holds each replica's queue to a full-list
// oracle: the same clients with the same demands, latency lists and
// withdrawals, bit for bit. A drain must return the oracle's queue plus the
// rows of the clients the oracle has standing there that queued nothing and
// did not lapse. It also holds the path to its promises: a submission sends
// nothing exactly when the client stands and its renewal is not due; it is
// the handle form exactly when the contact and the map are the last
// successful submission's and the client did not withdraw since; it costs a
// second, full request exactly when the contact restarted or swept the
// entry since; and it withdraws from the old contact first exactly when the
// client stood there.
func FuzzResubmitEquiv(f *testing.F) {
	const (
		nClients  = 3
		nReplicas = 2
		nKeys     = 4 // latency keys: the replicas plus two outside the fleet
	)
	submit := func(c, j int) [2]byte { return [2]byte{0, byte(c + 3*j)} }
	drainOp := func(j int) [2]byte { return [2]byte{5, byte(j)} }
	f.Add(resubmitSeed(submit(0, 0), submit(0, 0), submit(1, 0), drainOp(0), submit(0, 0), submit(0, 1), submit(0, 0)))
	f.Add(resubmitSeed(submit(0, 0), [2]byte{3, 4}, submit(0, 0), [2]byte{4, 3}, submit(0, 0), [2]byte{3, 3}, submit(0, 0), [2]byte{7, 0}, submit(0, 0)))
	f.Add(resubmitSeed(submit(2, 1), submit(2, 1), [2]byte{6, 1}, submit(2, 1), submit(2, 1), drainOp(1), submit(2, 1)))
	// A repeat that drops a replica queues the union but stores the list sent.
	f.Add(resubmitSeed(submit(0, 0), [2]byte{4, 3}, submit(0, 0), drainOp(0), submit(0, 0)))
	// Client 0 idle for roundStatesKept drains, then for one more.
	for _, idle := range []int{roundStatesKept, roundStatesKept + 1} {
		ops := [][2]byte{submit(0, 0), submit(0, 0)}
		for d := 0; d < idle; d++ {
			ops = append(ops, submit(1, 0), drainOp(0))
		}
		f.Add(resubmitSeed(append(ops, submit(0, 0), submit(0, 0))...))
	}
	// Client 0 stands on replica 1, skips, renews, switches contact and
	// back, withdraws, stands again and lapses.
	var ops [][2]byte
	for w := 0; w < 2*standingRenewal+3; w++ {
		ops = append(ops, submit(0, 0), drainOp(0))
	}
	ops = append(ops, submit(0, 1), drainOp(0), submit(0, 0), drainOp(0), [2]byte{8, 0}, drainOp(0))
	for w := 0; w < 4; w++ {
		ops = append(ops, submit(0, 0), drainOp(0))
	}
	f.Add(resubmitSeed(append(ops, [2]byte{9, 0}, submit(0, 0), submit(0, 0))...))
	// A standing client refused by its contact, then by another one it
	// switches to: either way both ends drop its standing.
	stand := resubmitSeed(submit(0, 0), drainOp(0), submit(0, 0), drainOp(0), submit(0, 0), drainOp(0))
	f.Add(append(slices.Clip(stand), resubmitSeed([2]byte{7, 0}, drainOp(0), submit(0, 0), drainOp(0), drainOp(0))...))
	f.Add(append(slices.Clip(stand), resubmitSeed([2]byte{7, 3}, submit(0, 0), drainOp(0), drainOp(0))...))
	// The last client withdraws, and the last standing client lapses: each
	// drain after it leaves no rows.
	f.Add(resubmitSeed(submit(0, 0), drainOp(0), [2]byte{8, 0}, drainOp(0), drainOp(0)))
	f.Add(append(slices.Clip(stand), resubmitSeed([2]byte{9, 0}, drainOp(0), submit(0, 0))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		tap := newRequestTap()
		names := make([]string, nReplicas)
		for j := range names {
			names[j] = replicaName(j)
		}
		replicas := make([]*ReplicaServer, nReplicas)
		start := func(j int) {
			rs, err := NewReplicaServer(tap, names[j], names, ReplicaConfig{Replica: model.NewReplica(names[j], 1), Algorithm: LDDM})
			if err != nil {
				t.Fatal(err)
			}
			replicas[j] = rs
		}
		for j := range replicas {
			start(j)
		}
		defer func() {
			for _, rs := range replicas {
				rs.Close()
			}
		}()
		clients := make([]*Client, nClients)
		lats := make([]map[string]float64, nClients)
		for c := range clients {
			cl, err := NewClient(tap, clientName(c))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			clients[c] = cl
			lats[c] = make(map[string]float64, nKeys)
			for k := 0; k < nKeys; k++ {
				lats[c][fmt.Sprintf("replica%d", k+1)] = 1e-4 * float64(1+c)
			}
		}
		// What each replica holds: its queue, the verdict on each queued
		// row, its record of each client, the standing rows as of its last
		// drain, its drain count and its round sequence.
		type standRow struct {
			demand float64
			lat    map[string]float64
			drain  int
		}
		oracle := make([]resubmitOracle, nReplicas)
		verdict := make([]map[int]bool, nReplicas)
		records := make([]map[int]*standModel, nReplicas)
		standRows := make([]map[int]standRow, nReplicas)
		drains, rounds := make([]int, nReplicas), make([]int, nReplicas)
		reset := func(j int) {
			oracle[j], verdict[j], records[j], standRows[j] = resubmitOracle{}, map[int]bool{}, map[int]*standModel{}, map[int]standRow{}
			drains[j], rounds[j] = 0, 0
		}
		for j := range oracle {
			reset(j)
		}
		// What each client's last successful submission left behind.
		type last struct {
			contact  int                // -1 before the first
			lat      map[string]float64 // nil when the client holds no handle
			drain    int                // the contact's drain count then
			restarts bool               // the contact restarted since
			view     standModel         // the client's standing record
			beat     uint32             // identical Submits since it stood
		}
		prev := make([]last, nClients)
		for c := range prev {
			prev[c].contact = -1
		}
		// held reports whether client c's last contact still holds its handle.
		held := func(c int) bool {
			p := prev[c]
			return p.lat != nil && !p.restarts && drains[p.contact]-p.drain <= roundStatesKept
		}
		// withdrawn queues client c's withdrawal at its last contact.
		withdrawn := func(c int) {
			if j := prev[c].contact; held(c) {
				oracle[j][clients[c].Addr()] = &oracleRow{gone: true}
				verdict[j][c] = false
			}
		}
		drainOnce := func(j int, restartsRound bool) {
			t.Helper()
			busy := len(oracle[j]) > 0 || len(standRows[j]) > 0
			got := replicas[j].drainPending()
			if busy {
				drains[j]++
			}
			var want []queuedRow
			for c, cl := range clients {
				if row, ok := oracle[j][cl.Addr()]; ok {
					if !row.gone {
						want = append(want, queuedRow{RequestBody: RequestBody{ClientAddr: cl.Addr(), DemandMB: row.demand, LatencySec: latencyList(row.lat)}})
					}
					if verdict[j][c] && !row.gone {
						standRows[j][c] = standRow{row.demand, maps.Clone(row.lat), drains[j] - 1}
					} else {
						delete(standRows[j], c)
					}
					continue
				}
				if s, ok := standRows[j][c]; ok {
					if drains[j]-s.drain > roundStatesKept {
						delete(standRows[j], c)
						continue
					}
					want = append(want, queuedRow{RequestBody: RequestBody{ClientAddr: cl.Addr(), DemandMB: s.demand, LatencySec: latencyList(s.lat)}})
				}
			}
			rows := make([]queuedRow, len(got))
			for i, req := range got {
				rows[i] = queuedRow{RequestBody: *req}
			}
			if !sameRows(rows, want) {
				t.Fatalf("drain of %s\n got %+v\nwant %+v", names[j], rows, want)
			}
			if got := replicas[j].StandingClients(); got != len(standRows[j]) {
				t.Fatalf("%s: %d clients stand, want %d", names[j], got, len(standRows[j]))
			}
			if len(got) > 0 {
				// The round's attempt bumps the sequence; a restarted round
				// bumps it once more.
				bump := 1
				if restartsRound {
					bump = 2
				}
				replicas[j].mu.Lock()
				replicas[j].roundSeq += bump
				replicas[j].mu.Unlock()
				rounds[j] += bump
			}
			oracle[j], verdict[j] = resubmitOracle{}, map[int]bool{}
		}
		ctx := context.Background()

		for len(data) >= 2 {
			op, arg := data[0]%10, int(data[1])
			data = data[2:]
			c, j, key := arg%nClients, (arg/nClients)%nReplicas, fmt.Sprintf("replica%d", (arg/nClients)%nKeys+1)
			switch op {
			case 0, 1, 2, 7:
				demand := 0.5 + float64(arg%7)
				if op == 7 {
					demand = math.NaN()
				}
				p := &prev[c]
				demandOnly := p.contact == j && p.lat != nil && reflect.DeepEqual(p.lat, lats[c])
				miss := demandOnly && (p.restarts || drains[j]-p.drain > roundStatesKept)
				skip := false
				if demandOnly && p.view.stands && demand == p.view.demand {
					p.beat++
					skip = (p.beat+renewalPhase(clients[c].Addr()))%standingRenewal != 0
				}
				leaves := !skip && p.view.stands && p.contact != j
				if leaves {
					withdrawn(c)
				}
				err := clients[c].Submit(ctx, names[j], demand, lats[c])
				sent, left := tap.take(), tap.takeWithdrawals()
				if wantLeft := leaves; (len(left) == 1 && left[0] == names[p.contact]) != wantLeft || len(left) > 1 {
					t.Fatalf("client %d to %s withdrew from %v, want a withdrawal from its old contact %v", c, names[j], left, wantLeft)
				}
				if op == 7 {
					if err == nil {
						t.Fatal("NaN demand accepted")
					}
					if len(sent) != 1 || (sent[0].Handle != 0) != demandOnly {
						t.Fatalf("refused submission sent %+v, demand-only %v", sent, demandOnly)
					}
					// Both ends drop the client's standing: a queued row no
					// longer stands, and a standing row with none queued
					// gives way to a withdrawal.
					if leaves {
						p.lat, p.view = nil, standModel{}
					}
					if j != p.contact {
						break
					}
					p.view = standModel{}
					if rec := records[j][c]; rec != nil {
						stood := rec.stands && held(c)
						*rec = standModel{}
						if row, ok := oracle[j][clients[c].Addr()]; ok && !row.gone {
							verdict[j][c] = false
						} else if !ok && stood {
							oracle[j][clients[c].Addr()] = &oracleRow{gone: true}
						}
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case skip:
					if len(sent) != 0 {
						t.Fatalf("client %d standing at %s: sent %+v, want nothing", c, names[j], sent)
					}
				case miss:
					if len(sent) != 2 || sent[0].Handle == 0 || sent[1].Handle != 0 {
						t.Fatalf("client %d to %s: sent %+v, want a handle-form miss then the full form", c, names[j], sent)
					}
				case demandOnly:
					if len(sent) != 1 || sent[0].Handle == 0 || sent[0].ClientAddr != "" || sent[0].LatencySec != nil {
						t.Fatalf("client %d to %s: sent %+v, want one handle-form request", c, names[j], sent)
					}
				default:
					if len(sent) != 1 || sent[0].Handle != 0 {
						t.Fatalf("client %d to %s: sent %+v, want one full request", c, names[j], sent)
					}
				}
				if skip {
					break
				}
				handled := demandOnly && !miss
				queuedMB := oracle[j].submit(clients[c].Addr(), demand, lats[c])
				rec := records[j][c]
				if rec == nil {
					rec = &standModel{}
					records[j][c] = rec
				}
				rec.admit(handled, demand, rounds[j], queuedMB)
				verdict[j][c] = rec.stands
				stood := p.view.stands
				p.view.admit(handled, demand, rounds[j], queuedMB)
				if p.view.stands && !stood {
					p.beat = 0
				}
				if p.view.stands != rec.stands {
					t.Fatalf("client %d and %s disagree on its standing", c, names[j])
				}
				p.contact, p.lat, p.drain, p.restarts = j, maps.Clone(lats[c]), drains[j], false
			case 3:
				lats[c][key] = 1e-4 * float64(1+(arg/(nClients*nKeys))%4)
			case 4:
				delete(lats[c], key)
			case 5:
				drainOnce(j, arg&0x80 != 0)
			case 6:
				replicas[j].Close()
				start(j)
				reset(j)
				for c := range prev {
					if prev[c].contact == j {
						prev[c].restarts = true
					}
				}
			case 8:
				if prev[c].lat != nil {
					withdrawn(c)
				}
				if err := clients[c].Withdraw(ctx); err != nil {
					t.Fatal(err)
				}
				left := tap.takeWithdrawals()
				if want := prev[c].lat != nil; (len(left) == 1 && left[0] == names[prev[c].contact]) != want || len(left) > 1 {
					t.Fatalf("client %d withdrew from %v, want a withdrawal from its contact %v", c, left, want)
				}
				prev[c].lat, prev[c].view = nil, standModel{}
			case 9:
				for d := 0; d <= roundStatesKept; d++ {
					drainOnce(j, false)
				}
			}
			for j, rs := range replicas {
				if got, want := queued(t, rs), oracle[j].requests(); !sameRows(got, want) {
					t.Fatalf("%s queue\n got %+v\nwant %+v", names[j], got, want)
				}
				rs.mu.Lock()
				n := len(rs.clients.byHandle)
				rs.mu.Unlock()
				if n > nClients {
					t.Fatalf("%s holds %d latency lists for %d clients", names[j], n, nClients)
				}
			}
		}
	})
}

// BenchmarkSubmitWindow is one scheduling window's ingest: 10 000
// in-process clients, each measuring 10 replicas, submit one request each
// to one contact, which drains its queue and bumps its round sequence
// between windows, as a round would (untimed). Under /standing every
// submission after the first window is unchanged, so once the clients
// stand a window is the skip path plus one renewal in standingRenewal;
// under /changed every demand moves every window, so no client stands and
// every submission is a handle-form RPC.
func BenchmarkSubmitWindow(b *testing.B) {
	b.Run("standing", func(b *testing.B) { benchSubmitWindow(b, false) })
	b.Run("changed", func(b *testing.B) { benchSubmitWindow(b, true) })
}

func benchSubmitWindow(b *testing.B, changed bool) {
	const clients, replicas = 10000, 10
	prices := make([]float64, replicas)
	for j := range prices {
		prices[j] = 1 + float64(j)
	}
	inproc := transport.NewInProcNetwork()
	f := newFleetOn(b, inproc, inproc, prices, 0, LDDM, nil)
	lat := make(map[string]float64, replicas)
	for j, rs := range f.replicas {
		lat[rs.Addr()] = 0.0004 + 0.0001*float64(j)
	}
	cls := make([]*Client, clients)
	for i := range cls {
		cl, err := NewClient(inproc, fmt.Sprintf("client-%05d", i))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		cls[i] = cl
	}
	contact, ctx := f.replicas[0], context.Background()
	demand := 0.01
	window := func() {
		if changed {
			demand = 0.03 - demand
		}
		for _, cl := range cls {
			if err := cl.Submit(ctx, contact.Addr(), demand, lat); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		contact.drainPending()
		contact.mu.Lock()
		contact.roundSeq++
		contact.mu.Unlock()
		b.StartTimer()
	}
	for w := 0; w < 3; w++ {
		window() // the full forms, then the pair of handle forms a client stands on
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
	b.StopTimer()
	if want := 0; changed && contact.StandingClients() != want {
		b.Fatalf("%d clients stand with every demand moving", contact.StandingClients())
	} else if !changed && contact.StandingClients() != clients {
		b.Fatalf("%d of %d unchanged clients stand", contact.StandingClients(), clients)
	}
}
