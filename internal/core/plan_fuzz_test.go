package core

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"edr/internal/model"
	"edr/internal/sim"
	"edr/internal/transport"
)

// planFuzzClients is the client universe FuzzPlanInstall draws from, in
// ascending address order; planFuzzAbsent are addresses no install names.
var planFuzzClients, planFuzzAbsent = func() ([]string, []string) {
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
	}
	return names, []string{"", "a", "c", "c05x", "c99", "zz"}
}()

// entries lists the plan's entries in order: nil for no plan, empty for
// an installed plan that serves no client.
func (p *servingPlan) entries() []ClientMB {
	if p == nil {
		return nil
	}
	out := []ClientMB{}
	for _, chunk := range p.chunks {
		out = append(out, chunk...)
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
// names; a full install whose clients do not strictly ascend must be
// refused and leave its round without a plan, which a delta then cannot
// build on.
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
		install := func(body AssignBody) error {
			msg, err := transport.NewMessage(MsgAssign, "fuzz", body)
			if err != nil {
				t.Fatalf("round %d: marshal: %v", body.Round, err)
			}
			return send(body.Round, msg)
		}
		full := func(round int, shuffle byte) {
			body := AssignBody{Round: round}
			want := map[string]float64{}
			for _, c := range planFuzzClients {
				if in.next()%4 == 0 {
					continue // not a row of this round
				}
				// An amount ≤ 0 is a row the replica does not serve, which
				// a full install leaves out.
				if mb := in.amount(); mb > 0 {
					body.Updates = append(body.Updates, ClientMB{c, mb})
					want[c] = mb
				}
			}
			// shuffle 1 swaps two entries, 2 repeats one: either must be
			// refused. The marshaler refuses them too, so the bytes are
			// written by hand.
			if n := len(body.Updates); n >= 2 && shuffle%3 != 0 {
				k := int(in.next()) % (n - 1)
				if shuffle%3 == 1 {
					body.Updates[k], body.Updates[k+1] = body.Updates[k+1], body.Updates[k]
				} else {
					body.Updates[k+1].Client = body.Updates[k].Client
				}
				w := transport.NewWriter(nil)
				w.U32(round)
				w.U32(0)
				w.U32(n)
				for _, u := range body.Updates {
					w.Str(u.Client)
					w.F64(u.MB)
				}
				raw, _ := w.Done()
				if err := send(round, transport.Message{Type: MsgAssign, From: "fuzz", Body: raw}); err == nil {
					t.Fatalf("round %d: install with entries %v installed", round, body.Updates)
				}
				oracles = append(oracles, nil)
				return
			}
			if err := install(body); err != nil {
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
				body := AssignBody{Round: round, BaseRound: base}
				want := map[string]float64{}
				for c, mb := range oracles[base] {
					want[c] = mb
				}
				for _, c := range planFuzzClients {
					switch in.next() % 4 {
					case 0: // departs: removed explicitly
						body.Updates = append(body.Updates, ClientMB{c, 0})
						delete(want, c)
					case 1: // new amount, possibly ≤ 0 (a removal too)
						mb := in.amount()
						body.Updates = append(body.Updates, ClientMB{c, mb})
						if mb > 0 {
							want[c] = mb
						} else {
							delete(want, c)
						}
					}
				}
				err := install(body)
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
		install := func(body AssignBody, want map[string]float64) {
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
					if len(chunk) == 0 || len(chunk) > 2*planChunk {
						t.Fatalf("seed %d round %d: a chunk of %d entries", seed, round, len(chunk))
					}
					for _, e := range chunk {
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
			body := AssignBody{Round: len(oracles)}
			for _, c := range names {
				if r.Float64() < density {
					mb := r.Range(0.5, 5)
					body.Updates = append(body.Updates, ClientMB{c, mb})
					want[c] = mb
				}
			}
			install(body, want)
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
			body := AssignBody{Round: len(oracles), BaseRound: base}
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
				body.Updates = append(body.Updates, ClientMB{c, mb})
				if mb > 0 {
					want[c] = mb
				} else {
					delete(want, c)
				}
			}
			install(body, want)
		}
	}
}

// A delta install of one entry copies one chunk and shares every other
// with its base.
func TestPlanDeltaSharesUntouchedChunks(t *testing.T) {
	var updates []ClientMB
	for i := 0; i < 10*planChunk; i++ {
		updates = append(updates, ClientMB{fmt.Sprintf("c%04d", i), 1})
	}
	base := new(servingPlan)
	base.carve(updates)
	next := base.apply([]ClientMB{{fmt.Sprintf("c%04d", 3*planChunk+1), 2}})
	if len(next.chunks) != len(base.chunks) {
		t.Fatalf("%d chunks after a one-entry delta, %d before", len(next.chunks), len(base.chunks))
	}
	for k := range base.chunks {
		if shared := &next.chunks[k][0] == &base.chunks[k][0]; shared == (k == 3) {
			t.Fatalf("chunk %d shared %v", k, shared)
		}
	}
}
