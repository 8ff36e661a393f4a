package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"edr/internal/membership"
	"edr/internal/transport"
)

// pushRecord is one push a client received: whether it was the full form,
// and whether the client answered it with a miss.
type pushRecord struct {
	full, miss bool
}

// pushTap wraps the in-process fabric and records, per client, every push
// the client's handler answered, in arrival order.
type pushTap struct {
	*transport.InProcNetwork
	mu     sync.Mutex
	pushes map[string][]pushRecord
}

func newPushTap() *pushTap {
	return &pushTap{InProcNetwork: transport.NewInProcNetwork(), pushes: map[string][]pushRecord{}}
}

func (n *pushTap) Listen(name string, h transport.Handler) (transport.Node, error) {
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		resp, err := h(ctx, req)
		if err == nil && (req.Type == MsgAllocation || req.Type == MsgCohortAllocation) {
			// The full form lists its roster; the short form's count is 0.
			r := transport.NewReader(req.Body)
			r.U32()
			r.Str()
			r.U32()
			r.U64()
			rec := pushRecord{full: r.U32() > 0, miss: rosterMissed(resp)}
			n.mu.Lock()
			n.pushes[name] = append(n.pushes[name], rec)
			n.mu.Unlock()
		}
		return resp, err
	})
}

// take returns the pushes recorded since the last take.
func (n *pushTap) take() map[string][]pushRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.pushes
	n.pushes = map[string][]pushRecord{}
	return out
}

// waitPushed takes cl's delivered push, failing if none arrived: a round's
// pushes land before RunRound returns.
func waitPushed(t *testing.T, cl *Client) AllocationBody {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	alloc, err := cl.WaitAllocation(ctx)
	if err != nil {
		t.Fatalf("%s got no allocation: %v", cl.Addr(), err)
	}
	return alloc
}

// checkRow holds alloc to the committed row of client in report: the
// round's roster, and per replica the MB within tol of the row's.
func checkRow(t *testing.T, alloc AllocationBody, report *RoundReport, client string, tol float64) {
	t.Helper()
	i, ok := slices.BinarySearch(report.ClientAddrs, client)
	if !ok {
		t.Fatalf("%s is not in round %d", client, report.Round)
	}
	if alloc.Round != report.Round || !slices.Equal(alloc.Replicas, report.ReplicaAddrs) {
		t.Fatalf("%s was pushed round %d over %v, want round %d over %v", client, alloc.Round, alloc.Replicas, report.Round, report.ReplicaAddrs)
	}
	for j, want := range report.Assignment[i] {
		if got := alloc.PerReplicaMB[j]; math.Abs(got-math.Max(want, 0)) > tol {
			t.Fatalf("%s was pushed %g MB from %s, the committed row says %g", client, got, alloc.Replicas[j], want)
		}
	}
}

// A client learns a round's roster once: in the cold round every client
// answers the short-form push with a miss and gets exactly one full form
// after it, which is the one delivery Stats.Allocations counts; the next
// round on the same roster sends every client one short form and no full
// one. Both verbs deliver the committed row.
func TestRosterMissResendsFullForm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cohorts int
		tol     float64
	}{{"per-client", 0, 0}, {"cohort", 2, 1e-9}} {
		t.Run(tc.name, func(t *testing.T) {
			tap := newPushTap()
			f := newFleetOn(t, tap, tap.InProcNetwork, []float64{1, 3, 5}, 6, LDDM, func(_ int, cfg *ReplicaConfig) {
				cfg.CohortMinClients = tc.cohorts
			})
			ctx := context.Background()
			demands := []float64{10, 12, 14, 16, 18, 20}
			for round, want := range [][]pushRecord{
				{{full: false, miss: true}, {full: true}},
				{{full: false}},
			} {
				submitAll(t, f, demands)
				report, err := f.replicas[0].RunRound(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if (report.Cohorts > 0) != (tc.cohorts > 0) {
					t.Fatalf("round %d cohorts = %d", report.Round, report.Cohorts)
				}
				got := tap.take()
				for _, cl := range f.clients {
					if !slices.Equal(got[cl.Addr()], want) {
						t.Fatalf("round %d: %s received %+v, want %+v", round+1, cl.Addr(), got[cl.Addr()], want)
					}
					if n := cl.Stats.Allocations.Value(); n != int64(round+1) {
						t.Fatalf("round %d: %s counted %d deliveries, want %d", round+1, cl.Addr(), n, round+1)
					}
					checkRow(t, waitPushed(t, cl), report, cl.Addr(), tc.tol)
				}
			}
		})
	}
}

// A replica drains between the clients' admission and their push: the
// round runs on a roster the clients do not hold, so each misses, receives
// the full form and ends up with the committed row over the new roster.
func TestRosterChangeBetweenAdmissionAndPush(t *testing.T) {
	tap := newPushTap()
	f := newFleetOn(t, tap, tap.InProcNetwork, []float64{1, 3, 5, 7}, 3, LDDM, nil)
	ctx := context.Background()
	demands := []float64{10, 20, 30}
	submitAll(t, f, demands)
	if _, err := f.replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	for _, cl := range f.clients {
		waitPushed(t, cl)
	}
	tap.take()

	submitAll(t, f, demands)
	drained := f.replicas[3].Addr()
	if _, err := f.replicas[0].Membership().ProposeChange(ctx, membership.OpDrain, drained); err != nil {
		t.Fatal(err)
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(report.ReplicaAddrs, drained) {
		t.Fatalf("round %d still runs on the drained %s: %v", report.Round, drained, report.ReplicaAddrs)
	}
	got := tap.take()
	for _, cl := range f.clients {
		if want := []pushRecord{{full: false, miss: true}, {full: true}}; !slices.Equal(got[cl.Addr()], want) {
			t.Fatalf("%s received %+v after the drain, want %+v", cl.Addr(), got[cl.Addr()], want)
		}
		checkRow(t, waitPushed(t, cl), report, cl.Addr(), 0)
	}
}

// pushClient is a client on its own fabric that holds roster, with a
// queued demand of demand MB, and the node an initiator pushes from.
func pushClient(t testing.TB, roster []string, demand float64) (*Client, transport.Node) {
	t.Helper()
	network := transport.NewInProcNetwork()
	cl, err := NewClient(network, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	initiator, err := network.Listen("initiator", func(context.Context, transport.Message) (transport.Message, error) {
		return transport.Message{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { initiator.Close() })
	cl.held = heldRoster{replicas: roster, hash: rosterHash(roster)}
	cl.demand = demand
	return cl, initiator
}

// A push or a pull reply carrying a value that is not finite and
// non-negative is refused, and nothing reaches the mailbox; so is a cohort
// push whose unit share, scaled by the client's demand, is not finite. At
// the parent a NaN or +Inf MB and a +Inf unit share were delivered.
func TestClientRefusesNonFinitePush(t *testing.T) {
	roster := []string{"r1", "r2"}
	cl, initiator := pushClient(t, roster, 10)
	short := func(v float64) hostile {
		return append(hostile{}.u32(4).str("LDDM").u32(9).u64(rosterHash(roster)).u32(0).u32(1), 0b11).u32(2).f64(1).f64(v)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		verb string
		body hostile
	}{
		{MsgAllocation, short(math.NaN())},
		{MsgAllocation, short(math.Inf(1))},
		{MsgAllocation, short(-1)},
		{MsgCohortAllocation, short(math.Inf(1))},
		{MsgCohortAllocation, short(math.MaxFloat64)}, // × 10 MB overflows
	} {
		msg, err := transport.NewMessage(tc.verb, initiator.Name(), tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := initiator.Send(ctx, cl.Addr(), msg); err == nil {
			t.Errorf("%s carrying %x delivered", tc.verb, []byte(tc.body))
		}
	}
	if n := cl.Stats.Allocations.Value(); n != 0 {
		t.Fatalf("refused pushes counted %d deliveries", n)
	}
	wctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if alloc, err := cl.WaitAllocation(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a refused push reached the mailbox: %+v, %v", alloc, err)
	}
	var pulled AllocationBody
	if err := pulled.UnmarshalBinary(hostile{}.u32(4).str("LDDM").u32(9).u64(rosterHash(roster)).u32(2).str("r1").str("r2").u32(1)); err == nil {
		t.Fatal("a truncated full form decoded")
	}
	bad := append(hostile{}.u32(4).str("LDDM").u32(9).u64(rosterHash(roster)).u32(2).str("r1").str("r2").u32(1), 0b01).u32(1).f64(math.NaN())
	if err := pulled.UnmarshalBinary(bad); err == nil {
		t.Fatal("a pull reply carrying NaN MB decoded")
	}
}

// pushAllocs is testing.AllocsPerRun of one push of verb on a roster the
// client holds, answered by the client's handler.
func pushAllocs(t *testing.T, verb string) float64 {
	roster := make([]string, 10)
	vals := make([]float64, len(roster))
	for j := range roster {
		roster[j] = fmt.Sprintf("replica-%02d", j)
		vals[j] = 0.1 * float64(j%3)
	}
	cl, _ := pushClient(t, roster, 25)
	h := pushHeader{round: 3, algorithm: "LDDM", iterations: 40, roster: roster, hash: rosterHash(roster)}
	body, err := h.marshal(vals, false)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{Type: verb, From: "initiator", Body: body}
	cl.held.algorithm = "LDDM"
	return testing.AllocsPerRun(200, func() {
		resp, err := cl.handlePush(msg)
		if err != nil || rosterMissed(resp) {
			t.Fatalf("push refused: %v", err)
		}
	})
}

// A push on a roster the client holds allocates its PerReplicaMB and
// nothing else: no replica address, no algorithm name, no heap body. The
// parent decoded the addresses and built a map, 6 allocations.
func TestKnownRosterPushAllocations(t *testing.T) {
	for _, verb := range []string{MsgAllocation, MsgCohortAllocation} {
		if got := pushAllocs(t, verb); got > 2 {
			t.Errorf("%s on a known roster: %g allocations, want ≤ 2", verb, got)
		}
	}
}

// The contact's unchanged resubmission allocates its ack's 16 bytes and
// nothing else, measured across drains: the body is decoded in place, the
// handle resolves to the address and list the table holds, and a row is
// carved from a slab. A repeat of a client already queued allocates the ack
// alone; over a window of first submissions and repeats the drain's and
// the slab's allocations, one each per window, amortize below one per
// request. The parent allocated 5: the body decoded on the heap, its
// address, the queued row, the ack's value and its bytes.
func TestHandleResubmissionAllocatesTheAckAlone(t *testing.T) {
	f := newFleet(t, []float64{1, 3}, 0, LDDM)
	rs := f.replicas[0]
	const clients = 64
	msgs := make([]transport.Message, clients)
	for i := range msgs {
		addr := fmt.Sprintf("client-%03d", i)
		full, err := RequestBody{ClientAddr: addr, DemandMB: 1, LatencySec: f.latencyList()}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rs.handleClientRequest(transport.Message{Type: MsgClientRequest, From: addr, Body: full})
		if err != nil {
			t.Fatal(err)
		}
		var ack RequestAck
		if err := ack.UnmarshalBinary(resp.Body); err != nil || ack.Handle == 0 {
			t.Fatalf("ack %+v, %v", ack, err)
		}
		short, err := RequestBody{Handle: ack.Handle, DemandMB: 1}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = transport.Message{Type: MsgClientRequest, From: addr, Body: short}
	}
	submit := func(msg transport.Message) {
		resp, err := rs.handleClientRequest(msg)
		var ack RequestAck
		if err != nil || ack.UnmarshalBinary(resp.Body) != nil || ack.Handle == 0 {
			t.Fatalf("handle-form resubmission refused: %v", err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { submit(msgs[0]) }); got > 1 {
		t.Errorf("repeat of a queued client: %g allocations, want 1", got)
	}
	rs.drainPending()
	n := 0
	got := testing.AllocsPerRun(20*clients, func() {
		submit(msgs[n%clients])
		if n++; n%(2*clients) == 0 {
			rs.drainPending()
		}
	})
	if got > 1 {
		t.Errorf("handle-form window across drains: %g allocations a request, want ≤ 1", got)
	}
}

// FuzzPushBodies feeds arbitrary bytes to a client's push handler, under
// either verb (the first input byte's low bit), with the client holding a
// three-replica roster and a queued demand. Nothing may panic; a refused
// push or a miss delivers nothing; a push the client takes delivers one
// allocation over a roster as long as its values, each finite and
// non-negative. And a push taken on the roster the client holds delivers,
// bit for bit, what the push's full form delivers to a client holding no
// roster. The seeds are both forms of a push under both verbs, a short
// form naming another roster, and every refused allocation of
// hostileCases.
func FuzzPushBodies(f *testing.F) {
	roster := []string{"r1", "r2", "r3"}
	h := pushHeader{round: 5, algorithm: "ADMM", iterations: 17, roster: roster, hash: rosterHash(roster)}
	for _, vals := range [][]float64{{0, 0.25, 0.75}, {3, 0, 0}, {0, 0, 0}} {
		for _, full := range []bool{false, true} {
			b, err := h.marshal(vals, full)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{0}, b...))
			f.Add(append([]byte{1}, b...))
		}
	}
	other := pushHeader{round: 5, algorithm: "ADMM", roster: roster[:2], hash: rosterHash(roster[:2])}
	if b, err := other.marshal([]float64{1, 1}, false); err == nil {
		f.Add(append([]byte{0}, b...))
	}
	for _, tc := range hostileCases() {
		if _, ok := tc.into.(*AllocationBody); ok {
			f.Add(append([]byte{0}, tc.data...))
		}
	}
	const demand = 7.5
	holder, _ := pushClient(f, roster, demand)
	fresh, _ := pushClient(f, nil, demand)
	deliveries := func(cl *Client) (AllocationBody, int64) {
		select {
		case body := <-cl.alloc:
			return body, 1
		default:
			return AllocationBody{}, 0
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		verb := MsgAllocation
		if data[0]&1 == 1 {
			verb = MsgCohortAllocation
		}
		data = data[1:]
		holder.held = heldRoster{replicas: roster, hash: rosterHash(roster)}
		fresh.held = heldRoster{}
		resp, err := holder.handlePush(transport.Message{Type: verb, From: "initiator", Body: data})
		got, n := deliveries(holder)
		if err != nil || rosterMissed(resp) {
			if n != 0 {
				t.Fatalf("a refused push or a miss delivered %+v", got)
			}
			return
		}
		if n != 1 || len(got.PerReplicaMB) != len(got.Replicas) {
			t.Fatalf("a taken push delivered %d allocations, the last %+v", n, got)
		}
		for _, v := range got.PerReplicaMB {
			if !(v >= 0) || math.IsInf(v, 1) {
				t.Fatalf("delivered %g MB", v)
			}
		}
		// The push as its full form, to a client that holds no roster.
		sent, _, err := decodePush(data, &heldRoster{replicas: roster, hash: rosterHash(roster)})
		if err != nil {
			t.Fatal(err)
		}
		full := pushHeader{round: sent.Round, algorithm: sent.Algorithm, iterations: sent.Iterations, roster: sent.Replicas, hash: rosterHash(sent.Replicas)}
		b, err := full.marshal(sent.PerReplicaMB, true)
		if err != nil {
			t.Fatalf("a taken push does not re-encode in full: %v", err)
		}
		resp, err = fresh.handlePush(transport.Message{Type: verb, From: "initiator", Body: b})
		if err != nil || rosterMissed(resp) {
			t.Fatalf("the full form was refused (%v) or missed", err)
		}
		want, _ := deliveries(fresh)
		same := got.Round == want.Round && got.Algorithm == want.Algorithm && got.Iterations == want.Iterations &&
			slices.Equal(got.Replicas, want.Replicas) && len(got.PerReplicaMB) == len(want.PerReplicaMB)
		for j := 0; same && j < len(got.PerReplicaMB); j++ {
			same = math.Float64bits(got.PerReplicaMB[j]) == math.Float64bits(want.PerReplicaMB[j])
		}
		if !same {
			t.Fatalf("the push delivered %+v, its full form %+v", got, want)
		}
	})
}
