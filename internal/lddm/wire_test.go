package lddm

import (
	"bytes"
	"context"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"edr/internal/engine"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/transport"
)

// sameBits reports whether two vectors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Every iteration's folded column is, bit for bit, the packed water-filling
// SolveLocal returns for the μ the replica decoded — through the real
// codecs, on full and masked instances — and no reply needs more than one
// explicit entry.
func TestLocalSolveReplyBitExact(t *testing.T) {
	for _, seed := range []uint64{3, 17, 41} {
		r := sim.NewRand(seed)
		spec := probgen.Spec{Clients: 30, Replicas: 6, DemandLo: 1, DemandHi: 12}
		full, err := probgen.MustFeasible(r, spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Geo = true
		for name, prob := range map[string]*opt.Problem{
			"full":   full,
			"masked": maskedInstanceSpec(t, r, spec),
		} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				c, n := prob.C(), prob.N()
				sp := prob.Sparsity()
				want := make([][]float64, n)
				lt := newSpy(t, prob, 120, 1e-12)
				lt.onSolve = func(j int, body SolveBody) error {
					lp := &LocalProblem{
						Replica: prob.System.Replicas[j],
						Mu:      make([]float64, c),
						Demands: prob.Demands,
						Clients: sp.RowIdx[sp.ColStart[j]:sp.ColStart[j+1]],
					}
					for p, i := range lp.Clients {
						lp.Mu[i] = body.Mu[p]
					}
					packed, err := SolveLocal(lp)
					want[j] = packed
					return err
				}
				partials, served := make([]int, n), make([]int, n) // per replica: folds run concurrently
				lt.onReply = func(j int, reply SolveReply) error {
					if len(reply.Pos) > 1 {
						return fmt.Errorf("replica %d: %d explicit entries, want at most 1", j, len(reply.Pos))
					}
					partials[j] += len(reply.Pos)
					for p := 0; p < reply.M; p++ {
						if reply.served(p) {
							served[j]++
						}
					}
					return nil
				}
				alg := &roundAlg{}
				d := &engine.Driver{
					Observe: true,
					OnIterate: func(k int, _, _ float64) {
						for j := 0; j < n; j++ {
							lo, hi := sp.ColStart[j], sp.ColStart[j+1]
							got := make([]float64, 0, hi-lo)
							for s := lo; s < hi; s++ {
								got = append(got, alg.primal[sp.PosCSR[s]])
							}
							if !sameBits(got, want[j]) {
								t.Fatalf("iteration %d, replica %d: folded %v, SolveLocal %v", k, j, got, want[j])
							}
						}
					},
				}
				if _, _, err := lt.run(d, alg); err != nil {
					t.Fatal(err)
				}
				totalPartials, totalServed := 0, 0
				for j := 0; j < n; j++ {
					totalPartials += partials[j]
					totalServed += served[j]
				}
				if totalPartials == 0 || totalServed == 0 {
					t.Fatalf("round exercised %d partial shares and %d whole ones; want both", totalPartials, totalServed)
				}
			})
		}
	}
}

// Hand-built local problems at the water-filling's edges: each column
// survives pack → binary → Unpack bit for bit, each client written
// through its own slot and no other slot touched, with at most one
// explicit entry.
func TestLocalSolveReplyEdgeColumns(t *testing.T) {
	rep := func(mutate func(*model.Replica)) model.Replica {
		r := model.NewReplica("r", 2)
		if mutate != nil {
			mutate(&r)
		}
		return r
	}
	cases := []struct {
		name    string
		lp      *LocalProblem
		partial bool // the column must carry one explicit entry
	}{
		{"base load", &LocalProblem{
			Replica: rep(func(r *model.Replica) { r.Base = 40 }),
			Mu:      []float64{-300, -200, -150, -100}, Demands: []float64{10, 15, 20, 5},
			Clients: []int{0, 1, 2, 3},
		}, true},
		{"linear cost (break-even +Inf)", &LocalProblem{
			Replica: rep(func(r *model.Replica) { r.Gamma = 1 }),
			Mu:      []float64{-50, -40, -30}, Demands: []float64{40, 50, 30},
			Clients: []int{0, 1, 2},
		}, true},
		{"binding capacity", &LocalProblem{
			Replica: rep(nil),
			Mu:      []float64{-1e6, -1e6, -1e6}, Demands: []float64{60, 30, 25},
			Clients: []int{0, 1, 2},
		}, true},
		{"zero demands", &LocalProblem{
			Replica: rep(nil),
			Mu:      []float64{-9, -9, -8, -7}, Demands: []float64{0, 1.5, 0, 2.25},
			Clients: []int{0, 1, 2, 3},
		}, false},
		{"nothing served", &LocalProblem{
			Replica: rep(nil),
			Mu:      []float64{0, 1, 0.5}, Demands: []float64{10, 20, 30},
			Clients: []int{0, 1, 2},
		}, false},
		{"tied multipliers", &LocalProblem{
			Replica: rep(nil),
			Mu:      []float64{-16, -16, -16, -16, -16}, Demands: []float64{5, 5, 5, 5, 5},
			Clients: []int{0, 1, 2, 3, 4},
		}, true},
		{"masked support", &LocalProblem{
			Replica: rep(nil),
			Mu:      []float64{-1e6, -20, -1e6, -25, -30, -1e6, -15, -1e6, -12, -40},
			Demands: []float64{9, 4, 9, 3.5, 6, 9, 2, 9, 7, 1},
			Clients: []int{1, 3, 4, 6, 8, 9},
		}, true},
	}
	for _, tc := range cases {
		packed, err := SolveLocal(tc.lp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var reply SolveReply
		reply.pack(packed, tc.lp.Clients, tc.lp.Demands)
		if n := len(reply.Pos); n > 1 || (n == 1) != tc.partial {
			t.Fatalf("%s: %d explicit entries for column %v (partial share expected: %v)", tc.name, n, packed, tc.partial)
		}
		msg, err := transport.NewMessage(MsgLocalSolve+".ack", "r", reply)
		if err != nil {
			t.Fatal(err)
		}
		var got SolveReply
		if err := msg.DecodeBody(&got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Slots in reverse support order, and one past them a slot of
		// another column that Unpack must not touch.
		m := len(tc.lp.Clients)
		slots, x := make([]int, m), make([]float64, m+1)
		for p := range slots {
			slots[p] = m - 1 - p
		}
		x[m] = math.NaN()
		if err := got.Unpack(tc.lp.Clients, slots, tc.lp.Demands, x); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for p, i := range tc.lp.Clients {
			if math.Float64bits(x[slots[p]]) != math.Float64bits(packed[p]) {
				t.Fatalf("%s: client %d rebuilt as %v, SolveLocal %v", tc.name, i, x[slots[p]], packed[p])
			}
		}
		if !math.IsNaN(x[m]) {
			t.Fatalf("%s: Unpack wrote outside its column's slots (%v)", tc.name, x)
		}
	}
}

// wireBytes builds a binary body field by field, valid or not: a uint32
// is written as a u32, a float64 as an f64 and a []byte as it is.
func wireBytes(fields ...any) []byte {
	w := transport.NewWriter(nil)
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			w.U32(int(v))
		case float64:
			w.F64(v)
		case []byte:
			w.Raw(v)
		}
	}
	b, _ := w.Done()
	return b
}

// replyBytes builds a reply body field by field, valid or not.
func replyBytes(m uint32, bitmap []byte, count uint32, entries ...any) []byte {
	return wireBytes(append([]any{m, bitmap, count}, entries...)...)
}

// A malformed reply or request is refused with an error naming the replica
// it came from or was addressed to; nothing panics and nothing is folded.
func TestLocalSolveHostileBodies(t *testing.T) {
	prob := maskedInstance(t, sim.NewRand(7), 20, 4)
	addrs := replicaAddrs(prob.N())
	sp := prob.Sparsity()
	j := 0
	for k := 1; k < prob.N(); k++ {
		if sp.ColNNZ(k) > sp.ColNNZ(j) {
			j = k
		}
	}
	m := sp.ColNNZ(j)
	if m < 9 {
		t.Fatalf("widest support has %d clients; want a multi-byte bitmap", m)
	}
	width := (m + 7) / 8
	ex, err := (&roundAlg{}).Init(&engine.Round{Seq: 1, Prob: prob, ReplicaAddrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	fold := ex.Fold

	binBody := func(b []byte) transport.Message { return transport.Message{Type: MsgLocalSolve + ".ack", Body: b} }
	valid := SolveReply{M: m + 1, Served: make([]byte, (m+8)/8)}
	wrongM, err := valid.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	replies := []struct {
		name string
		msg  transport.Message
	}{
		{"m above the support", binBody(wrongM)},
		{"m below the support", binBody(replyBytes(uint32(m-1), make([]byte, (m+6)/8), 0))},
		{"bitmap truncated", binBody(replyBytes(uint32(m), make([]byte, width-1), 0)[:4+width-1])},
		{"count beyond the bytes left", binBody(replyBytes(uint32(m), make([]byte, width), 1000, uint32(0), 1.5))},
		{"count below the bytes left", binBody(replyBytes(uint32(m), make([]byte, width), 0, uint32(0), 1.5))},
		{"huge count", binBody(replyBytes(uint32(m), make([]byte, width), math.MaxUint32))},
		{"position at m", binBody(replyBytes(uint32(m), make([]byte, width), 1, uint32(m), 1.5))},
		{"positions out of order", binBody(replyBytes(uint32(m), make([]byte, width), 2, uint32(3), 1.5, uint32(1), 2.5))},
		{"position also in the bitmap", binBody(replyBytes(uint32(m), append([]byte{0x01}, make([]byte, width-1)...), 1, uint32(0), 1.5))},
		{"huge m", binBody(replyBytes(math.MaxUint32, nil, 0))},
		{"empty", binBody([]byte{0})},
	}
	for _, tc := range replies {
		err := fold(j, wireReply(tc.msg))
		if err == nil || !strings.Contains(err.Error(), addrs[j]) {
			t.Errorf("%s: fold error %v, want one naming %s", tc.name, err, addrs[j])
		}
	}

	sr := &engine.ServerRound{Round: 1, Prob: prob, Col: j, Self: addrs[j], ReplicaAddrs: addrs}
	mu := func(k int) []float64 { return make([]float64, k) }
	requests := []struct {
		name string
		msg  transport.Message
	}{
		{"short multipliers", mustMessage(t, SolveBody{Round: 1, Mu: mu(m - 1)})},
		{"long multipliers", mustMessage(t, SolveBody{Round: 1, Mu: mu(m + 1)})},
		{"JSON multipliers", transport.Message{Type: MsgLocalSolve, Body: []byte(`{"Round":1,"Mu":[0]}`)}},
		{"count beyond the bytes left", transport.Message{Type: MsgLocalSolve, Body: wireBytes(uint32(0), uint32(m))}},
		{"trailing bytes", transport.Message{Type: MsgLocalSolve, Body: append(mustMessage(t, SolveBody{Round: 1, Mu: mu(m)}).Body, 0)}},
	}
	for _, tc := range requests {
		_, err := serverHalf{}.Handle(context.Background(), MsgLocalSolve, wireReply(tc.msg), sr)
		if err == nil || !strings.Contains(err.Error(), addrs[j]) {
			t.Errorf("%s: handler error %v, want one naming %s", tc.name, err, addrs[j])
		}
	}
	wellFormed := wireReply(mustMessage(t, SolveBody{Round: 1, Mu: mu(m)}))
	if _, err := (serverHalf{}).Handle(context.Background(), MsgLocalSolve, wellFormed, sr); err != nil {
		t.Fatalf("well-formed request refused: %v", err)
	}

	// A bitmap bit past m has no client; the decoder refuses it whatever
	// the support.
	if err := (&SolveReply{}).UnmarshalBinary(replyBytes(9, []byte{0, 0x02}, 0)); err == nil {
		t.Error("bitmap with a bit past m decoded")
	}
}

// A request whose multipliers are not all finite is refused before the
// fill runs: a NaN would scramble the order of the finite clients too.
func TestLocalSolveRefusesNonFiniteMultipliers(t *testing.T) {
	prob := maskedInstance(t, sim.NewRand(7), 20, 4)
	addrs := replicaAddrs(prob.N())
	const j = 0
	m := prob.Sparsity().ColNNZ(j)
	sr := &engine.ServerRound{Round: 1, Prob: prob, Col: j, Self: addrs[j], ReplicaAddrs: addrs}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mu := make([]float64, m)
		mu[m-1] = bad
		_, err := serverHalf{}.Handle(context.Background(), MsgLocalSolve, wireReply(mustMessage(t, SolveBody{Round: 1, Mu: mu})), sr)
		if err == nil || !strings.Contains(err.Error(), addrs[j]) {
			t.Errorf("μ %v: handler error %v, want one naming %s", bad, err, addrs[j])
		}
	}
}

// A listed share outside (0, R_c) is refused and nothing is folded; an
// in-range one is accepted.
func TestSolveReplyRefusesOutOfRangeShares(t *testing.T) {
	clients, demands := []int{0, 2}, []float64{4, 9, 2.5}
	for _, tc := range []struct {
		val float64
		ok  bool
	}{
		{1.25, true},
		{math.Nextafter(2.5, 0), true},
		{0, false},
		{math.Copysign(0, -1), false},
		{-1, false},
		{2.5, false}, // the whole demand belongs in the bitmap
		{3, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		reply := SolveReply{M: 2, Served: []byte{0x01}, Pos: []int{1}, Val: []float64{tc.val}}
		col := []float64{-7, -7} // what a refused reply must leave in place
		err := reply.Unpack(clients, []int{0, 1}, demands, col)
		if tc.ok {
			if err != nil || col[0] != 4 || col[1] != tc.val {
				t.Errorf("share %v: refused (%v) or rebuilt as %v", tc.val, err, col)
			}
			continue
		}
		if err == nil {
			t.Errorf("share %v accepted", tc.val)
		}
		for p, v := range col {
			if v != -7 {
				t.Errorf("share %v: refused reply wrote slot %d = %v", tc.val, p, v)
			}
		}
	}
}

func mustMessage(t *testing.T, body SolveBody) transport.Message {
	t.Helper()
	msg, err := transport.NewMessage(MsgLocalSolve, "initiator", body)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// bodyFields is what a body's fields hold: its scalars, and the array,
// length and capacity of each slice.
type bodyFields struct {
	round, m            int
	mu, served, pos, vl sliceHeader
}

type sliceHeader struct {
	first    any
	len, cap int
}

func headerOf[T any](s []T) sliceHeader {
	h := sliceHeader{len: len(s), cap: cap(s)}
	if cap(s) > 0 {
		h.first = &s[:1][0]
	}
	return h
}

// fieldsOf reads b's fields, to check that a refused decode left them be.
func fieldsOf(b wireBody) bodyFields {
	switch b := b.(type) {
	case *SolveBody:
		return bodyFields{round: b.Round, mu: headerOf(b.Mu)}
	case *SolveReply:
		return bodyFields{m: b.M, served: headerOf(b.Served), pos: headerOf(b.Pos), vl: headerOf(b.Val)}
	}
	return bodyFields{}
}

// A reply decodes into the storage of the one it replaces when that has
// the room, and a refused reply leaves the fields of the one it was
// decoded into as they were.
func TestSolveReplyDecodesIntoKeptStorage(t *testing.T) {
	kept := SolveReply{M: 9, Served: make([]byte, 2, 4), Pos: make([]int, 0, 4), Val: make([]float64, 0, 4)}
	held := fieldsOf(&kept)
	valid := SolveReply{M: 12, Served: []byte{0x01, 0x08}, Pos: []int{1, 4}, Val: []float64{0.5, 0.25}}
	bin, err := valid.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := kept.UnmarshalBinary(bin); err != nil || !sameBody(&kept, &valid) {
		t.Fatalf("decoded %+v (err %v), want %+v", kept, err, valid)
	}
	if got := fieldsOf(&kept); got.served.first != held.served.first || got.pos.first != held.pos.first || got.vl.first != held.vl.first {
		t.Fatal("a reply that fits the kept storage was decoded into new storage")
	}
	held = fieldsOf(&kept)
	for _, bad := range [][]byte{
		bin[:len(bin)-1],
		append(slices.Clone(bin), 0),
		replyBytes(12, []byte{0x01, 0x08}, 1, uint32(0), 0.5), // position 0 is in the bitmap
		replyBytes(9, []byte{0, 0x02}, 0),                     // a bit past m
	} {
		if err := kept.UnmarshalBinary(bad); err == nil {
			t.Fatalf("%x decoded", bad)
		}
		if got := fieldsOf(&kept); got != held {
			t.Fatalf("refusing %x changed the kept reply's fields from %+v to %+v", bad, held, got)
		}
	}
}

// wireBody is either LDDM body, for the fuzz target.
type wireBody interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// sameBody compares two decoded bodies field by field, floats by bits.
func sameBody(a, b wireBody) bool {
	switch a := a.(type) {
	case *SolveBody:
		b := b.(*SolveBody)
		return a.Round == b.Round && sameBits(a.Mu, b.Mu)
	case *SolveReply:
		b := b.(*SolveReply)
		return a.M == b.M && bytes.Equal(a.Served, b.Served) &&
			slices.Equal(a.Pos, b.Pos) && sameBits(a.Val, b.Val)
	}
	return false
}

// FuzzLocalSolveBodies feeds arbitrary bytes to both LDDM decoders — the
// first byte picks one — and builds a valid body of each kind from the same
// bytes. Nothing may panic; whatever decodes must re-encode to exactly the
// input bytes (the encoding is canonical) and decode again to the same body;
// a valid body must survive encode → decode bit for bit, and a reply must
// Unpack to the column it was packed from; one listing a share outside
// (0, R_c) must be refused.
func FuzzLocalSolveBodies(f *testing.F) {
	seeds := []wireBody{
		&SolveBody{Round: 3, Mu: []float64{-1.5, math.Copysign(0, -1), math.NaN(), math.Inf(-1)}},
		&SolveBody{Round: 1, Mu: []float64{}},
		&SolveReply{M: 0, Served: []byte{}},
		&SolveReply{M: 9, Served: []byte{0x5b, 0x00}, Pos: []int{2}, Val: []float64{0.25}},
		&SolveReply{M: 12, Served: []byte{0x01, 0x08}, Pos: []int{1, 4, 10}, Val: []float64{1, math.NaN(), -2}},
	}
	for _, s := range seeds {
		bin, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		kind := byte(0)
		if _, ok := s.(*SolveReply); ok {
			kind = 1
		}
		f.Add(append([]byte{kind}, bin...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fresh := func() wireBody {
			if data[0]%2 == 0 {
				return &SolveBody{}
			}
			return &SolveReply{}
		}
		body, in := fresh(), data[1:]
		decoded := body.UnmarshalBinary(in) == nil
		// As the round uses them: decoded into the storage of an earlier
		// body, a request or a reply is accepted or refused alike, decodes
		// to the same body and re-encodes to the same bytes; one refused
		// leaves the earlier body's fields as they were. A request
		// re-encoded through a kept buffer gives those bytes in that
		// buffer.
		var kept wireBody = &SolveBody{Round: 7, Mu: []float64{9, 9, 9, 9}[:1]}
		if data[0]%2 == 1 {
			kept = &SolveReply{M: 3, Served: []byte{0x05, 9, 9}[:1], Pos: []int{1, 7, 7}[:1], Val: []float64{0.5, 9, 9}[:1]}
		}
		held := fieldsOf(kept)
		if err := kept.UnmarshalBinary(in); (err == nil) != decoded {
			t.Fatalf("%T refused %v fresh decodes with %v into kept storage", kept, !decoded, err)
		}
		if !decoded && fieldsOf(kept) != held {
			t.Fatalf("a refused %T changed the kept body's fields from %+v to %+v", kept, held, fieldsOf(kept))
		}
		if decoded {
			if !sameBody(body, kept) {
				t.Fatalf("kept storage decodes %+v, fresh %+v", kept, body)
			}
			enc, err := kept.MarshalBinary()
			if err != nil || !bytes.Equal(enc, in) {
				t.Fatalf("%T decoded into kept storage re-encodes to %x (err %v), want %x", kept, enc, err, in)
			}
			if req, ok := kept.(*SolveBody); ok {
				buf := []byte{1, 2, 3}
				req.buf = &buf
				enc, err := req.MarshalBinary()
				if err != nil || !bytes.Equal(enc, in) || !bytes.Equal(buf, in) {
					t.Fatalf("re-encoded through a kept buffer: %x (err %v), buffer %x, want %x", enc, err, buf, in)
				}
			}
		}
		if decoded {
			first, err := body.MarshalBinary()
			if err != nil {
				t.Fatalf("%T decoded but does not re-encode: %v", body, err)
			}
			if !bytes.Equal(first, in) {
				t.Fatalf("%T: %d input bytes re-encode to %d different ones", body, len(in), len(first))
			}
			again := fresh()
			if err := again.UnmarshalBinary(first); err != nil || !sameBody(body, again) {
				t.Fatalf("%T: re-encoded bytes decode to a different body (err %v)", body, err)
			}
		}

		// A valid body of each kind from the same bytes: 16 bytes a client,
		// its packed value then its demand, the demand replaced by the value
		// itself when the value's low byte is odd. A value that is neither
		// 0, nor its demand, nor strictly inside (0, demand) is no honest
		// share: the valid column holds 0 there, and the raw one must be
		// refused. Capped at 20 clients (three bitmap bytes): longer inputs
		// add no case, only fuzzer time.
		m := min(len(in)/16, 20)
		packed, demands, clients := make([]float64, m), make([]float64, m), make([]int, m)
		raw, hostile := make([]float64, m), false
		for p := range packed {
			chunk := in[16*p:]
			raw[p] = math.Float64frombits(binary.LittleEndian.Uint64(chunk))
			demands[p] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8:]))
			if chunk[0]&1 == 1 {
				demands[p] = raw[p]
			}
			clients[p] = p
			v, bits := raw[p], math.Float64bits(raw[p])
			if bits == 0 || bits == math.Float64bits(demands[p]) || (v > 0 && v < demands[p]) {
				packed[p] = v
			} else {
				hostile = true
			}
		}
		var reply SolveReply
		reply.pack(packed, clients, demands)
		for _, pair := range [][2]wireBody{
			{&SolveBody{Round: m, Mu: packed}, &SolveBody{}},
			{&reply, &SolveReply{}},
		} {
			valid, got := pair[0], pair[1]
			bin, err := valid.MarshalBinary()
			if err != nil {
				t.Fatalf("%T: valid body does not encode: %v", valid, err)
			}
			if err := got.UnmarshalBinary(bin); err != nil || !sameBody(valid, got) {
				t.Fatalf("%T: valid body does not round-trip (err %v)", valid, err)
			}
		}
		col := make([]float64, m)
		if err := reply.Unpack(clients, clients, demands, col); err != nil {
			t.Fatal(err)
		}
		for p := range packed {
			if math.Float64bits(col[p]) != math.Float64bits(packed[p]) {
				t.Fatalf("client %d: packed %v (demand %v) rebuilt as %v", p, packed[p], demands[p], col[p])
			}
		}
		if hostile {
			var bad SolveReply
			bad.pack(raw, clients, demands)
			if err := bad.Unpack(clients, clients, demands, col); err == nil {
				t.Fatalf("column %v over demands %v: out-of-range share accepted", raw, demands)
			}
		}
	})
}

// wireSink keeps the benchmarked codec calls observable.
var wireSink int

// BenchmarkLocalSolveWire is one request and one reply of an LDDM wave on
// a replica reaching 70 of 100 clients: encoded, then decoded. The frame
// sizes are reported as B/request and B/reply.
func BenchmarkLocalSolveWire(b *testing.B) {
	r := sim.NewRand(5)
	const c = 100
	lp := &LocalProblem{Replica: model.NewReplica("r", 3), Mu: make([]float64, c), Demands: make([]float64, c)}
	for i := 0; i < c; i++ {
		lp.Mu[i], lp.Demands[i] = r.Range(-12, 0), r.Range(1, 6)
		if i%10 < 7 {
			lp.Clients = append(lp.Clients, i)
		}
	}
	packed, err := SolveLocal(lp)
	if err != nil {
		b.Fatal(err)
	}
	body := SolveBody{Round: 12}
	for _, i := range lp.Clients {
		body.Mu = append(body.Mu, lp.Mu[i])
	}
	var reply SolveReply
	reply.pack(packed, lp.Clients, lp.Demands)
	frameBytes := func(verb string, v encoding.BinaryMarshaler) float64 {
		msg, err := transport.NewMessage(verb, "replica-01", v)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := transport.WriteFrame(&buf, msg); err != nil {
			b.Fatal(err)
		}
		return float64(buf.Len())
	}
	reqBytes, replyBytes := frameBytes(MsgLocalSolve, body), frameBytes(MsgLocalSolve+".ack", reply)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		reqBin, err := body.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		replyBin, err := reply.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var gotBody SolveBody
		var gotReply SolveReply
		if err := gotBody.UnmarshalBinary(reqBin); err != nil {
			b.Fatal(err)
		}
		if err := gotReply.UnmarshalBinary(replyBin); err != nil {
			b.Fatal(err)
		}
		wireSink += len(gotBody.Mu) + gotReply.M
	}
	b.ReportMetric(reqBytes, "B/request")
	b.ReportMetric(replyBytes, "B/reply")
}

// handleRound is BenchmarkLocalSolveWire's replica as a one-replica round:
// 70 of 100 clients within its latency bound, μ and demands drawn alike.
// It returns the initiator's half, already Init'ed with that μ, its
// exchange, and the replica's side of the round.
func handleRound(tb testing.TB) (*roundAlg, engine.Exchange, *engine.ServerRound) {
	tb.Helper()
	r := sim.NewRand(5)
	const c = 100
	prob := &opt.Problem{
		System:     &model.System{Replicas: []model.Replica{model.NewReplica("r", 3)}},
		Demands:    make([]float64, c),
		Latency:    make([][]float64, c),
		MaxLatency: 1,
	}
	mu := make([]float64, c)
	for i := 0; i < c; i++ {
		mu[i], prob.Demands[i] = r.Range(-12, 0), r.Range(1, 6)
		prob.Latency[i] = []float64{0}
		if i%10 >= 7 {
			prob.Latency[i][0] = 2
		}
	}
	addrs := []string{"r"}
	alg := &roundAlg{}
	ex, err := alg.Init(&engine.Round{Seq: 12, Prob: prob, ReplicaAddrs: addrs})
	if err != nil {
		tb.Fatal(err)
	}
	copy(alg.mu, mu)
	return alg, ex, &engine.ServerRound{Round: 12, Prob: prob, Col: 0, Self: addrs[0], ReplicaAddrs: addrs}
}

// BenchmarkLocalSolveHandle is one local solve of an LDDM wave end to end
// through the real codecs, on BenchmarkLocalSolveWire's replica: the
// initiator builds and encodes the request, the replica's Handle decodes
// and solves it and encodes its reply, and the initiator's Fold decodes
// and unpacks it into the primal.
func BenchmarkLocalSolveHandle(b *testing.B) {
	_, ex, sr := handleRound(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		req, err := transport.NewMessage(MsgLocalSolve, "initiator", ex.Body(0))
		if err != nil {
			b.Fatal(err)
		}
		reply, err := serverHalf{}.Handle(ctx, MsgLocalSolve, wireReply(req), sr)
		if err != nil {
			b.Fatal(err)
		}
		if err := ex.Fold(0, engine.Reply{Verb: MsgLocalSolve + ".ack", Body: reply}); err != nil {
			b.Fatal(err)
		}
	}
}

// Once a replica's state exists, decoding a request and water-filling
// against it allocate nothing: μ decodes into the state's buffer and the
// column is the local problem's own. The whole of Handle allocates only
// the reply's bytes: the decision is packed into the state's reply. The
// initiator's request bytes are its per-replica buffer, encoded again in
// place, and its Fold decodes the reply into the one it keeps for the
// replica.
func TestLocalSolveSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	alg, ex, sr := handleRound(t)
	body := ex.Body(0)
	msg, err := transport.NewMessage(MsgLocalSolve, "initiator", body)
	if err != nil {
		t.Fatal(err)
	}
	req := wireReply(msg)
	st, err := sr.State("LDDM", func() (any, error) { return newServerState(sr), nil })
	if err != nil {
		t.Fatal(err)
	}
	ls := st.(*serverState)
	want, err := ls.solve(req, sr)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.Clone(want) // the next solve overwrites the column
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ls.solve(req, sr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode and solve allocate %v times, want 0", n)
	}
	if got, _ := ls.solve(req, sr); !sameBits(got, want) {
		t.Fatalf("steady-state solve %v, first solve %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := body.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("encoding a request allocates %v times, want 0", n)
	}

	ctx := context.Background()
	first, err := serverHalf{}.Handle(ctx, MsgLocalSolve, req, sr)
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	if n := testing.AllocsPerRun(100, func() {
		if reply, err = (serverHalf{}).Handle(ctx, MsgLocalSolve, req, sr); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Handle allocates %v times, want 1 (the reply's bytes)", n)
	}
	if !bytes.Equal(reply, first) || len(reply) != cap(reply) {
		t.Fatalf("steady-state reply %x (capacity %d), first %x", reply, cap(reply), first)
	}
	resp := engine.Reply{Verb: MsgLocalSolve + ".ack", Body: reply}
	if n := testing.AllocsPerRun(100, func() {
		if err := ex.Fold(0, resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Fold allocates %v times, want 0", n)
	}
	got := make([]float64, len(want))
	for p, s := range alg.sp.PosCSR {
		got[p] = alg.primal[s]
	}
	if !sameBits(got, want) {
		t.Fatalf("folded column %v, solved %v", got, want)
	}
}

// Two requests to one replica's round state that overlap, as a TCP retry
// can overlap its first attempt, each get back the bytes of the column of
// their own μ: the handler encodes its reply before it lets go of the state
// it packed the reply into.
func TestLocalSolveOverlappingRequestsGetTheirOwnColumn(t *testing.T) {
	alg, ex, sr := handleRound(t)
	sp := alg.sp
	var reqs [2]engine.Reply
	var want [2][]float64
	for k := range reqs {
		if k == 1 {
			for i := range alg.mu {
				alg.mu[i] /= 3 // cheaper clients: the fill serves more of them
			}
		}
		msg, err := transport.NewMessage(MsgLocalSolve, "initiator", ex.Body(0))
		if err != nil {
			t.Fatal(err)
		}
		msg.Body = slices.Clone(msg.Body) // the next encoding reuses the buffer
		reqs[k] = wireReply(msg)
		lp := &LocalProblem{Replica: sr.Prob.System.Replicas[0], Mu: alg.mu, Demands: sr.Prob.Demands, Clients: sp.RowIdx}
		col, err := SolveLocal(lp)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = col
	}
	if sameBits(want[0], want[1]) {
		t.Fatal("both multiplier vectors give one column; the test would prove nothing")
	}
	const solves = 1000
	var wg sync.WaitGroup
	start, errs := make(chan struct{}), make(chan error, 2)
	for k := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var reply SolveReply
			col := make([]float64, len(want[k]))
			for n := 0; n < solves; n++ {
				b, err := serverHalf{}.Handle(context.Background(), MsgLocalSolve, reqs[k], sr)
				if err == nil {
					err = reply.UnmarshalBinary(b)
				}
				if err == nil {
					err = reply.Unpack(sp.RowIdx, sp.PosCSR, sr.Prob.Demands, col)
				}
				if err == nil && !sameBits(col, want[k]) {
					err = fmt.Errorf("request %d, solve %d: got the column %v, want %v", k, n, col, want[k])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
