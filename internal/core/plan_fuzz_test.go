package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"edr/internal/model"
	"edr/internal/sim"
	"edr/internal/transport"
)

// planFuzzClients is the client universe FuzzPlanInstall draws from, in
// ascending address order: 3·planChunk addresses of two lengths, so a plan
// spans chunks and a chunk mixes them. planFuzzAbsent are addresses no
// install names.
var planFuzzClients, planFuzzAbsent = func() ([]string, []string) {
	names := make([]string, 3*planChunk)
	for i := range names {
		names[i] = fmt.Sprintf("c%05d", i)
		if i%3 == 0 {
			names[i] = fmt.Sprintf("127.0.0.1:%d", 40001+i)
		}
	}
	slices.Sort(names)
	return names, []string{"", "1", "127.0.0.1:4000", "127.0.0.1:400011", "a", "c", "c0000", "c000010", "c00005x", "c99", "zz"}
}()

// clientMB is one plan entry as the tests write and read them.
type clientMB struct {
	Client string
	MB     float64
}

// assignOf is the AssignBody carrying updates as given, in order, whether
// or not an install would take them: refusing them is MarshalBinary's job.
func assignOf(round, base int, updates []clientMB) *AssignBody {
	w := transport.NewWriter(nil)
	for _, u := range updates {
		w.Str(u.Client)
		w.F64(u.MB)
	}
	raw, _ := w.Done()
	return &AssignBody{Round: round, BaseRound: base, Updates: raw}
}

// rawAssign is the replica.assign body carrying updates as given, for what
// MarshalBinary refuses to write.
func rawAssign(round, base int, updates []clientMB) []byte {
	w := transport.NewWriter(nil)
	w.U32(round)
	w.U32(base)
	w.U32(len(updates))
	raw, _ := w.Done()
	return append(raw, assignOf(round, base, updates).Updates...)
}

// listOf decodes e's entries.
func listOf(e transport.Pairs) []clientMB {
	out := []clientMB{}
	for off := 0; off < len(e); {
		addr, mb, next := e.At(off)
		out = append(out, clientMB{string(addr), mb})
		off = next
	}
	return out
}

// entries lists the plan's entries in order: nil for no plan, empty for
// an installed plan that serves no client.
func (p *servingPlan) entries() []clientMB {
	if p == nil {
		return nil
	}
	out := []clientMB{}
	for _, chunk := range p.chunks {
		out = append(out, listOf(chunk)...)
	}
	return out
}

// fuzzInput hands out a fuzz input a byte at a time, zeros once spent.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// amount maps a byte to an MB figure, a third of them not positive.
func (in *fuzzInput) amount() float64 { return float64(int(in.next()%12)-4) * 0.75 }

// FuzzPlanInstall drives replica.assign through one replica's handler, wire
// codec included: a base plan, then full installs and deltas — removals,
// amounts ≤ 0, clients absent from the base, clients departed from it —
// against any earlier round. Every installed plan must answer Plan exactly
// as a map oracle does, for every client and for addresses no install
// names; a full install whose clients do not strictly ascend, or one of
// whose entries is 0 or NaN, must be refused and leave its round without a
// plan, which a delta then cannot build on.
func FuzzPlanInstall(f *testing.F) {
	f.Add([]byte{})
	// Two scripted seeds: a base missing every third client at 3 MB; a delta
	// that cycles through departing, zeroing, moving (or adding) and leaving
	// clients; a full install with two entries swapped (seed 1) or one entry
	// repeated (seed 2); then a delta against that refused round.
	for _, shuffle := range []byte{1, 2} {
		var seed []byte
		for i := range planFuzzClients {
			seed = append(seed, [][]byte{{0}, {1, 8}, {1, 8}}[i%3]...)
		}
		seed = append(seed, 1, 0)
		for i := range planFuzzClients {
			seed = append(seed, [][]byte{{0}, {1, 2}, {1, 9}, {3}}[i%4]...)
		}
		seed = append(seed, 0, shuffle)
		for range planFuzzClients {
			seed = append(seed, 1, 8)
		}
		seed = append(seed, 3, 1, 2)
		for range planFuzzClients {
			seed = append(seed, 3)
		}
		f.Add(seed)
	}
	// A base of 38 entries, one chunk, and a delta that adds 52 clients
	// inside it, so the merged chunk of 90 is cut in two; neither count is
	// a multiple of planChunk. Then a full install whose 40th entry is 0
	// (seed 3) or NaN (seed 4), and a delta against that refused round.
	for _, nan := range []byte{0, 1} {
		var seed []byte
		for i := range planFuzzClients {
			if i >= 20 && i < 78 {
				seed = append(seed, 0)
			} else {
				seed = append(seed, 1, 8)
			}
		}
		seed = append(seed, 1, 0)
		for i := range planFuzzClients {
			if i >= 20 && i < 78 && i%10 != 0 {
				seed = append(seed, 1, 10)
			} else {
				seed = append(seed, 3)
			}
		}
		seed = append(seed, 0, 3)
		for range planFuzzClients {
			seed = append(seed, 1, 8)
		}
		seed = append(seed, 39, nan, 1, 2)
		for range planFuzzClients {
			seed = append(seed, 1, 5)
		}
		f.Add(seed)
	}
	rs, err := NewReplicaServer(transport.NewInProcNetwork(), "replica", nil, ReplicaConfig{Replica: model.NewReplica("replica", 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { rs.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		rs.mu.Lock()
		rs.rounds, rs.roundOrder = map[int]*roundState{}, nil
		rs.mu.Unlock()
		// oracles[k] is round k's plan; nil for a round whose install was
		// refused.
		oracles := []map[string]float64{nil}
		send := func(round int, msg transport.Message) error {
			rs.mu.Lock()
			rs.rounds[round] = &roundState{}
			rs.mu.Unlock()
			_, err := rs.handle(context.Background(), msg)
			return err
		}
		install := func(body *AssignBody) error {
			msg, err := transport.NewMessage(MsgAssign, "fuzz", body)
			if err != nil {
				t.Fatalf("round %d: marshal: %v", body.Round, err)
			}
			return send(body.Round, msg)
		}
		full := func(round int, shuffle byte) {
			var updates []clientMB
			want := map[string]float64{}
			for _, c := range planFuzzClients {
				if in.next()%4 == 0 {
					continue // not a row of this round
				}
				// An amount ≤ 0 is a row the replica does not serve, which
				// a full install leaves out.
				if mb := in.amount(); mb > 0 {
					updates = append(updates, clientMB{c, mb})
					want[c] = mb
				}
			}
			// shuffle 1 swaps two entries, 2 repeats one, 3 makes one 0 or
			// NaN: each must be refused. The marshaler refuses them too, so
			// the bytes are written by hand.
			if n := len(updates); n >= 2 && shuffle%4 != 0 {
				k := int(in.next()) % (n - 1)
				switch shuffle % 4 {
				case 1:
					updates[k], updates[k+1] = updates[k+1], updates[k]
				case 2:
					updates[k+1].Client = updates[k].Client
				case 3:
					updates[k].MB = [...]float64{0, math.NaN()}[in.next()%2]
				}
				if err := send(round, transport.Message{Type: MsgAssign, From: "fuzz", Body: rawAssign(round, 0, updates)}); err == nil {
					t.Fatalf("round %d: install with entries %v installed", round, updates)
				}
				oracles = append(oracles, nil)
				return
			}
			if err := install(assignOf(round, 0, updates)); err != nil {
				t.Fatalf("round %d: full install: %v", round, err)
			}
			oracles = append(oracles, want)
		}
		full(1, 0)
		for op := 0; op < 6 && len(in) > 0; op++ {
			round := len(oracles)
			switch kind := in.next(); kind % 3 {
			case 0:
				full(round, in.next())
			default:
				base := 1 + int(in.next())%(round-1)
				var updates []clientMB
				want := map[string]float64{}
				for c, mb := range oracles[base] {
					want[c] = mb
				}
				for _, c := range planFuzzClients {
					switch in.next() % 4 {
					case 0: // departs: removed explicitly
						updates = append(updates, clientMB{c, 0})
						delete(want, c)
					case 1: // new amount, possibly ≤ 0 (a removal too)
						mb := in.amount()
						updates = append(updates, clientMB{c, mb})
						if mb > 0 {
							want[c] = mb
						} else {
							delete(want, c)
						}
					}
				}
				err := install(assignOf(round, base, updates))
				if oracles[base] == nil {
					if err == nil {
						t.Fatalf("round %d: delta against round %d, which has no plan, installed", round, base)
					}
					oracles = append(oracles, nil)
					continue
				}
				if err != nil {
					t.Fatalf("round %d: delta against round %d: %v", round, base, err)
				}
				oracles = append(oracles, want)
			}
		}
		for round, want := range oracles[1:] {
			round++
			for _, c := range append(planFuzzClients, planFuzzAbsent...) {
				if got := rs.Plan(round, c); got != want[c] {
					t.Fatalf("round %d: Plan(%q) = %g, the oracle says %g", round, c, got, want[c])
				}
			}
			rs.mu.Lock()
			plan := rs.rounds[round].plan.entries()
			rs.mu.Unlock()
			if (plan == nil) != (want == nil) || len(plan) != len(want) {
				t.Fatalf("round %d: plan of %d entries (nil %v), the oracle has %d (nil %v)", round, len(plan), plan == nil, len(want), want == nil)
			}
			for k, e := range plan {
				if !(e.MB > 0) || (k > 0 && e.Client <= plan[k-1].Client) {
					t.Fatalf("round %d: plan %v holds a non-positive entry or does not ascend at %d", round, plan, k)
				}
			}
		}
	})
}

// Delta installs copy only the chunks of a serving plan their updates fall
// in and share the rest with their base, so a newer install must never
// change an older round's plan. A seeded chain grows plans across many
// chunks — runs of new clients that split a chunk, removals that empty
// one, deltas against any earlier round, full installs between — and after
// every install checks Plan for every round so far against that round's
// oracle, and every plan's chunks: none empty, none longer than
// 2·planChunk, entries positive and ascending across them.
func TestPlanInstallsKeepEveryRound(t *testing.T) {
	rs, err := NewReplicaServer(transport.NewInProcNetwork(), "replica", nil, ReplicaConfig{Replica: model.NewReplica("replica", 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	names := make([]string, 600)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
	}
	for _, seed := range []uint64{1, 2, 3} {
		r := sim.NewRand(seed)
		rs.mu.Lock()
		rs.rounds, rs.roundOrder = map[int]*roundState{}, nil
		rs.mu.Unlock()
		oracles := []map[string]float64{nil}
		install := func(body *AssignBody, want map[string]float64) {
			t.Helper()
			msg, err := transport.NewMessage(MsgAssign, "test", body)
			if err != nil {
				t.Fatal(err)
			}
			rs.mu.Lock()
			rs.rounds[body.Round] = &roundState{}
			rs.mu.Unlock()
			if _, err := rs.handle(context.Background(), msg); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, body.Round, err)
			}
			oracles = append(oracles, want)
			for round, want := range oracles[1:] {
				round++
				for _, c := range names {
					if got := rs.Plan(round, c); got != want[c] {
						t.Fatalf("seed %d: after installing round %d, Plan(%d, %q) = %g, the oracle says %g", seed, body.Round, round, c, got, want[c])
					}
				}
				rs.mu.Lock()
				plan := rs.rounds[round].plan
				rs.mu.Unlock()
				last := ""
				for _, chunk := range plan.chunks {
					if n := chunk.Len(); n == 0 || n > 2*planChunk {
						t.Fatalf("seed %d round %d: a chunk of %d entries", seed, round, n)
					}
					for _, e := range listOf(chunk) {
						if !(e.MB > 0) || e.Client <= last {
							t.Fatalf("seed %d round %d: entry %v after %q", seed, round, e, last)
						}
						last = e.Client
					}
				}
			}
		}
		full := func(density float64) {
			want := map[string]float64{}
			var updates []clientMB
			for _, c := range names {
				if r.Float64() < density {
					mb := r.Range(0.5, 5)
					updates = append(updates, clientMB{c, mb})
					want[c] = mb
				}
			}
			install(assignOf(len(oracles), 0, updates), want)
		}
		full(0.4)
		full(0) // the empty plan, which deltas may build on too
		for op := 0; op < 40; op++ {
			if op%13 == 12 {
				full(0.4)
				continue
			}
			base := 1 + r.Intn(len(oracles)-1)
			want := maps.Clone(oracles[base])
			var updates []clientMB
			// A run of consecutive clients, every one set or removed, and a
			// few scattered updates.
			from, run := r.Intn(len(names)), planChunk+r.Intn(3*planChunk)
			for i, c := range names {
				inRun := i >= from && i < from+run
				if !inRun && r.Float64() > 0.01 {
					continue
				}
				mb := r.Range(-2, 5)
				if inRun {
					// Runs alternately fill (splitting the chunks they grow)
					// and remove (emptying chunks).
					mb = float64(op%2) * r.Range(0.5, 5)
				}
				updates = append(updates, clientMB{c, mb})
				if mb > 0 {
					want[c] = mb
				} else {
					delete(want, c)
				}
			}
			install(assignOf(len(oracles), base, updates), want)
		}
	}
}

// A delta install of one entry copies one chunk and shares every other
// with its base: the same bytes, the same backing array.
func TestPlanDeltaSharesUntouchedChunks(t *testing.T) {
	var updates []clientMB
	for i := 0; i < 10*planChunk; i++ {
		updates = append(updates, clientMB{fmt.Sprintf("c%04d", i), 1})
	}
	base := new(servingPlan).apply(assignOf(1, 0, updates).Updates)
	next := base.apply(assignOf(2, 1, []clientMB{{fmt.Sprintf("c%04d", 3*planChunk+1), 2}}).Updates)
	if len(next.chunks) != len(base.chunks) {
		t.Fatalf("%d chunks after a one-entry delta, %d before", len(next.chunks), len(base.chunks))
	}
	for k := range base.chunks {
		if shared := &next.chunks[k][0] == &base.chunks[k][0]; shared == (k == 3) {
			t.Fatalf("chunk %d shared %v", k, shared)
		}
	}
}

// planShapeClients is a plan's worth of addresses of two lengths, in
// ascending order, that is no multiple of planChunk.
func planShapeClients() []string {
	names := make([]string, 2*planChunk+7)
	for i := range names {
		names[i] = fmt.Sprintf("c%05d", i)
		if i%2 == 0 {
			names[i] = fmt.Sprintf("127.0.0.1:%d", 40001+i)
		}
	}
	slices.Sort(names)
	return names
}

// A full install of 2·planChunk+7 entries, addresses of mixed length, is
// two chunks that answer Plan for every client and for none else; a delta
// that adds, moves and removes entries across both answers as its oracle
// does. A full install whose k-th entry is 0 or NaN, for k first, inside
// a chunk and last, is refused whole: its round holds no plan, answers 0
// for every client, and a delta against it is refused too.
func TestPlanInstallShapes(t *testing.T) {
	rs, err := NewReplicaServer(transport.NewInProcNetwork(), "replica", nil, ReplicaConfig{Replica: model.NewReplica("replica", 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	names := planShapeClients()
	send := func(round int, body []byte) error {
		rs.mu.Lock()
		rs.rounds[round] = &roundState{}
		rs.mu.Unlock()
		_, err := rs.handleAssign(transport.Message{Type: MsgAssign, From: "test", Body: body})
		return err
	}
	check := func(round int, want map[string]float64) {
		t.Helper()
		for _, c := range append(slices.Clone(names), planFuzzAbsent...) {
			if got := rs.Plan(round, c); got != want[c] {
				t.Fatalf("round %d: Plan(%q) = %g, want %g", round, c, got, want[c])
			}
		}
	}
	var full []clientMB
	want := map[string]float64{}
	for i, c := range names {
		full = append(full, clientMB{c, float64(i + 1)})
		want[c] = float64(i + 1)
	}
	body, err := assignOf(1, 0, full).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := send(1, body); err != nil {
		t.Fatal(err)
	}
	check(1, want)
	if chunks := rs.rounds[1].plan.chunks; len(chunks) != 2 || chunks[0].Len() != planChunk || chunks[1].Len() != planChunk+7 {
		t.Fatalf("%d entries carved into %d chunks", len(names), len(chunks))
	}

	var delta []clientMB
	for i := 1; i < len(names); i += 3 {
		mb := float64(i%4) * 0.5 // every fourth a removal
		delta = append(delta, clientMB{names[i], mb})
		if mb > 0 {
			want[names[i]] = mb
		} else {
			delete(want, names[i])
		}
	}
	if body, err = assignOf(2, 1, delta).MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if err := send(2, body); err != nil {
		t.Fatal(err)
	}
	check(2, want)

	for _, k := range []int{0, planChunk + 3, len(full) - 1} {
		for _, bad := range []float64{0, math.NaN()} {
			entries := slices.Clone(full)
			entries[k].MB = bad
			if err := send(3, rawAssign(3, 0, entries)); err == nil || !strings.Contains(err.Error(), "assign round 3") {
				t.Fatalf("full install with entry %d at %g: error %v", k, bad, err)
			}
			if rs.rounds[3].plan != nil {
				t.Fatalf("full install with entry %d at %g left a plan", k, bad)
			}
			check(3, nil)
			if body, err = assignOf(4, 3, delta).MarshalBinary(); err != nil {
				t.Fatal(err)
			}
			if err := send(4, body); err == nil {
				t.Fatalf("delta against the refused round installed")
			}
		}
	}
}

// planPinFleet is a 10 000-client result over three replicas, each row
// served by one or two of them, and the full install of replica 0's column.
func planPinFleet() (clients []string, x [][]float64, column []clientMB) {
	clients, x = make([]string, 10000), make([][]float64, 10000)
	for i := range clients {
		clients[i] = fmt.Sprintf("c%05d", i)
		x[i] = []float64{float64(i%3) * 0.75, float64(i%5) + 0.5, 0}
		if i%7 == 0 {
			x[i][2] = 1.25
		}
		if x[i][0] > 0 {
			column = append(column, clientMB{clients[i], x[i][0]})
		}
	}
	return clients, x, column
}

// install writes each replica's body from the rows in one allocation, of
// exactly its size: bytes equal to the AssignBody codec's, full install and
// delta alike.
func TestInstallBodyIsItsOnlyAllocation(t *testing.T) {
	clients, x, column := planPinFleet()
	base := make([][]float64, len(x))
	for i, row := range x {
		base[i] = slices.Clone(row)
	}
	var updates []clientMB
	rows := []int{}
	for i := 0; i < len(x); i += 100 {
		base[i][0] += 1 // so the delta carries row i
		rows = append(rows, i)
		updates = append(updates, clientMB{clients[i], x[i][0]})
	}
	for _, tc := range []struct {
		name string
		d    assignDiff
		want *AssignBody
	}{
		{"full", assignDiff{round: 5, clients: clients, x: x, every: true}, assignOf(5, 0, column)},
		{"delta", assignDiff{round: 6, baseRound: 5, clients: clients, x: x, base: base, rows: rows}, assignOf(6, 5, updates)},
	} {
		body, err := tc.d.body(0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) || len(body) != cap(body) {
			t.Fatalf("%s: body of %d bytes (cap %d), the codec writes %d", tc.name, len(body), cap(body), len(want))
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { tc.d.body(0) }); n != 1 {
			t.Errorf("%s: %v allocations to write a body, want 1", tc.name, n)
		}
	}
}

// A full install costs the replica the same few allocations at 10 000
// entries as at 100: none per client.
func TestFullInstallAllocationsFlat(t *testing.T) {
	rs, err := NewReplicaServer(transport.NewInProcNetwork(), "replica", nil, ReplicaConfig{Replica: model.NewReplica("replica", 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	_, _, column := planPinFleet()
	rs.mu.Lock()
	rs.rounds[1] = &roundState{}
	rs.mu.Unlock()
	var allocs []float64
	for _, n := range []int{100, len(column)} {
		body, err := assignOf(1, 0, column[:n]).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		msg := transport.Message{Type: MsgAssign, From: "test", Body: body}
		if _, err := rs.handleAssign(msg); err != nil {
			t.Fatal(err)
		}
		for _, e := range column[:n] {
			if got := rs.Plan(1, e.Client); got != e.MB {
				t.Fatalf("%d entries: Plan(%q) = %g, installed %g", n, e.Client, got, e.MB)
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { rs.handleAssign(msg) }))
	}
	if !raceEnabled && (allocs[0] != allocs[1] || allocs[1] > 4) {
		t.Errorf("a full install of 100 entries made %v allocations, of %d entries %v; want the same, at most 4", allocs[0], len(column), allocs[1])
	}
}

// A delta install allocates each chunk it merges once, and its chunk list:
// nothing for the chunks it shares, nothing per update.
func TestDeltaInstallAllocatesPerMergedChunk(t *testing.T) {
	_, _, column := planPinFleet()
	base := new(servingPlan).apply(assignOf(1, 0, column).Updates)
	var updates []clientMB
	for i := 0; i < len(column); i += 100 {
		updates = append(updates, clientMB{column[i].Client, column[i].MB + 1})
		if i+1 < len(column) {
			updates = append(updates, clientMB{column[i+1].Client, 0}) // a removal in the same chunk
		}
	}
	delta := assignOf(2, 1, updates).Updates
	next := base.apply(delta)
	merged := 0
	for _, chunk := range next.chunks {
		if !slices.ContainsFunc(base.chunks, func(b transport.Pairs) bool { return &b[0] == &chunk[0] }) {
			merged++
		}
	}
	if want := len(updates) / 2; merged != want {
		t.Fatalf("%d chunks merged, want %d", merged, want)
	}
	want := map[string]float64{}
	for _, e := range column {
		want[e.Client] = e.MB
	}
	for _, u := range updates {
		if u.MB > 0 {
			want[u.Client] = u.MB
		} else {
			delete(want, u.Client)
		}
	}
	if got := next.entries(); len(got) != len(want) {
		t.Fatalf("%d entries after the delta, want %d", len(got), len(want))
	}
	for c, mb := range want {
		if got := next.lookup(c); got != mb {
			t.Fatalf("lookup(%q) = %g, want %g", c, got, mb)
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() { base.apply(delta) }); n != float64(merged+1) {
		t.Errorf("a delta merging %d chunks made %v allocations, want %d", merged, n, merged+1)
	}
}

// BenchmarkPlanInstall is replica.assign at 10 000 clients: the
// initiator's body for one replica, and the replica's full install and 1 %
// delta (decode and plan build) of that body.
func BenchmarkPlanInstall(b *testing.B) {
	rs, err := NewReplicaServer(transport.NewInProcNetwork(), "replica", nil, ReplicaConfig{Replica: model.NewReplica("replica", 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rs.Close() })
	clients, x, column := planPinFleet()
	var updates []clientMB
	for i := 0; i < len(column); i += 100 {
		updates = append(updates, clientMB{column[i].Client, column[i].MB * 2})
	}
	full, err := assignOf(1, 0, column).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	delta, err := assignOf(2, 1, updates).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	rs.mu.Lock()
	rs.rounds[1], rs.rounds[2] = &roundState{}, &roundState{}
	rs.mu.Unlock()
	if _, err := rs.handleAssign(transport.Message{Type: MsgAssign, Body: full}); err != nil {
		b.Fatal(err)
	}
	d := assignDiff{round: 1, clients: clients, x: x, every: true}
	b.Run("body10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.body(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name string
		body []byte
	}{{"full10k", full}, {"delta1pct", delta}} {
		msg := transport.Message{Type: MsgAssign, Body: tc.body}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rs.handleAssign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
