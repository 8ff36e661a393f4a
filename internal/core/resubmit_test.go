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
// a replica receives, as decoded, in arrival order.
type requestTap struct {
	*transport.InProcNetwork
	mu       sync.Mutex
	requests []RequestBody
}

func newRequestTap() *requestTap {
	return &requestTap{InProcNetwork: transport.NewInProcNetwork()}
}

func (n *requestTap) Listen(name string, h transport.Handler) (transport.Node, error) {
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		if req.Type == MsgClientRequest {
			var body RequestBody
			if req.DecodeBody(&body) == nil {
				n.mu.Lock()
				n.requests = append(n.requests, body)
				n.mu.Unlock()
			}
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

// queuedRequest is rs's queued row for client, nil when none.
func queuedRequest(rs *ReplicaServer, client string) *RequestBody {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if req, ok := rs.pending[client]; ok {
		cp := *req
		return &cp
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
// newer figure replacing an older one.
type resubmitOracle map[string]*oracleRow

type oracleRow struct {
	demand float64
	lat    map[string]float64
}

func (o resubmitOracle) submit(client string, demand float64, lat map[string]float64) {
	row, ok := o[client]
	if !ok {
		o[client] = &oracleRow{demand: demand, lat: maps.Clone(lat)}
		return
	}
	row.demand += demand
	maps.Copy(row.lat, lat)
}

// requests lists the queue as drain orders it.
func (o resubmitOracle) requests() []RequestBody {
	out := make([]RequestBody, 0, len(o))
	for client, row := range o {
		out = append(out, RequestBody{ClientAddr: client, DemandMB: row.demand, LatencySec: latencyList(row.lat)})
	}
	slices.SortFunc(out, func(a, b RequestBody) int { return strings.Compare(a.ClientAddr, b.ClientAddr) })
	return out
}

// queued lists rs's pending rows in client order.
func queued(rs *ReplicaServer) []RequestBody {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]RequestBody, 0, len(rs.pending))
	for _, req := range rs.pending {
		out = append(out, *req)
	}
	slices.SortFunc(out, func(a, b RequestBody) int { return strings.Compare(a.ClientAddr, b.ClientAddr) })
	return out
}

// sameRows compares queues by demand and latency list; an empty list is
// one whether nil or not.
func sameRows(got, want []RequestBody) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ClientAddr != want[i].ClientAddr || got[i].DemandMB != want[i].DemandMB ||
			got[i].Handle != 0 || !slices.Equal(got[i].LatencySec, want[i].LatencySec) {
			return false
		}
	}
	return true
}

// resubmitSeed encodes FuzzResubmitEquiv ops: each is an opcode byte
// (op % 8) and one argument byte.
func resubmitSeed(ops ...[2]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[0], op[1])
	}
	return out
}

// FuzzResubmitEquiv runs a random sequence of submissions (repeats within
// a window, contact switches, refused NaN demands), latency edits, dropped
// and re-added replicas, drains (which sweep) and replica restarts on the
// same address through the handle path, and after every step holds each
// replica's queue to a full-list oracle: the same clients with the same
// demands and latency lists, bit for bit. It also holds the path to its
// promises: a submission is the handle form exactly when the contact and
// the map are the last successful submission's, and costs a second, full
// request exactly when the contact restarted or swept the entry since.
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
		oracle := make([]resubmitOracle, nReplicas)
		drains := make([]int, nReplicas)
		for j := range oracle {
			oracle[j] = resubmitOracle{}
		}
		// What each client's last successful submission left behind.
		type last struct {
			contact  int // -1 before the first
			lat      map[string]float64
			drain    int  // the contact's drain count then
			restarts bool // the contact restarted since
		}
		prev := make([]last, nClients)
		for c := range prev {
			prev[c].contact = -1
		}
		ctx := context.Background()

		for len(data) >= 2 {
			op, arg := data[0]%8, int(data[1])
			data = data[2:]
			c, j, key := arg%nClients, (arg/nClients)%nReplicas, fmt.Sprintf("replica%d", (arg/nClients)%nKeys+1)
			switch op {
			case 0, 1, 2, 7:
				demand := 0.5 + float64(arg%7)
				if op == 7 {
					demand = math.NaN()
				}
				p := prev[c]
				demandOnly := p.contact == j && reflect.DeepEqual(p.lat, lats[c])
				miss := demandOnly && (p.restarts || drains[j]-p.drain > roundStatesKept)
				err := clients[c].Submit(ctx, names[j], demand, lats[c])
				sent := tap.take()
				if op == 7 {
					if err == nil {
						t.Fatal("NaN demand accepted")
					}
					if len(sent) != 1 || (sent[0].Handle != 0) != demandOnly {
						t.Fatalf("refused submission sent %+v, demand-only %v", sent, demandOnly)
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				switch {
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
				oracle[j].submit(clients[c].Addr(), demand, lats[c])
				prev[c] = last{contact: j, lat: maps.Clone(lats[c]), drain: drains[j]}
			case 3:
				lats[c][key] = 1e-4 * float64(1+(arg/(nClients*nKeys))%4)
			case 4:
				delete(lats[c], key)
			case 5:
				want := oracle[j].requests()
				got := replicas[j].drainPending()
				if len(want) > 0 {
					drains[j]++
				}
				rows := make([]RequestBody, len(got))
				for i, req := range got {
					rows[i] = *req
				}
				if !sameRows(rows, want) {
					t.Fatalf("drain of %s\n got %+v\nwant %+v", names[j], rows, want)
				}
				oracle[j] = resubmitOracle{}
			case 6:
				replicas[j].Close()
				start(j)
				oracle[j], drains[j] = resubmitOracle{}, 0
				for c := range prev {
					if prev[c].contact == j {
						prev[c].restarts = true
					}
				}
			}
			for j, rs := range replicas {
				if got, want := queued(rs), oracle[j].requests(); !sameRows(got, want) {
					t.Fatalf("%s queue\n got %+v\nwant %+v", names[j], got, want)
				}
				rs.mu.Lock()
				n := rs.latencies.len()
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
// to one contact, whose queue is drained between windows (untimed). After
// the first window every submission is an unchanged resubmission.
func BenchmarkSubmitWindow(b *testing.B) {
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
	window := func() {
		for _, cl := range cls {
			if err := cl.Submit(ctx, contact.Addr(), 0.01, lat); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		contact.drainPending()
		b.StartTimer()
	}
	window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}
