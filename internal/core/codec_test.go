package core

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"edr/internal/membership"
	"edr/internal/opt"
	"edr/internal/transport"
)

// binaryBody is what every codec in codec.go provides through its pointer.
type binaryBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// controlBodies lists one fresh value of every body codec.go covers, and of
// the membership bodies, in the order FuzzControlBodies numbers them.
func controlBodies() []binaryBody {
	return []binaryBody{
		&RequestBody{}, &RequestAck{}, &RoundSpec{}, &AssignBody{},
		&AllocationBody{}, &ReplicaInfo{}, &PullBody{}, &DownloadBody{},
		&membership.Epoch{}, &membership.EpochAck{}, &membership.ProposeBody{},
		&WithdrawBody{},
	}
}

// codecCases are the bodies the round-trip tests and the fuzz corpus start
// from: every codec, with its empty, handle-form, delta-form, zero-demand
// and zero-share shapes.
func codecCases() []binaryBody {
	infos := []ReplicaInfo{
		{Addr: "r1", Price: 1, Alpha: 1, Beta: 0.01, Gamma: 3, Bandwidth: 100},
		{Addr: "r2", Price: 8, Alpha: 2, Beta: 0.02, Gamma: 2, Bandwidth: 50, BaseMB: 12.5},
	}
	return []binaryBody{
		&RequestBody{ClientAddr: "c2"},
		&RequestBody{ClientAddr: "c1", DemandMB: 0, LatencySec: []Latency{{"r1", 0.0005}}},
		&RequestBody{ClientAddr: "c1", DemandMB: 25.125, LatencySec: []Latency{{"r1", 0.0005}, {"r2", 0.0011}, {"r3", 1e-9}}},
		&RequestBody{Handle: 0xfffffffe, DemandMB: 3.5}, // the handle form: no address
		&RequestAck{},
		&RequestAck{Round: 41, QueuedMB: 25.125},
		&RequestAck{Round: 41, QueuedMB: 25.125, Handle: 7},
		&RequestAck{Round: 2, QueuedMB: 3},
		&RoundSpec{},
		&RoundSpec{ // one infeasible pair
			Round: 7, Replicas: infos, ClientAddrs: []string{"c1", "c2", "c3"},
			Demands:  []float64{10, 0, 30},
			Feasible: [][]bool{{true, true}, {true, false}, {true, true}},
		},
		&RoundSpec{ // cohorted, fully feasible
			Round: 8, Replicas: infos, ClientAddrs: []string{"c1", "c4"},
			Demands:  []float64{40, 2.5},
			Feasible: [][]bool{{true, true}, {true, true}},
		},
		&RoundSpec{ // a sparse support: 5 cells, 2 feasible
			Round: 9, Replicas: infos[:1], ClientAddrs: []string{"c1", "c2", "c3", "c4", "c5"},
			Demands:  []float64{1, 0, 0, 2, 0},
			Feasible: [][]bool{{true}, {false}, {false}, {true}, {false}},
		},
		&AssignBody{},
		assignOf(7, 0, []clientMB{{"c1", 4}, {"c3", 2.5}}),
		assignOf(9, 7, []clientMB{{"c1", 4.25}, {"c3", 0}, {"c9", 1}}),
		&AssignBody{Round: 10, BaseRound: 9},
		&AllocationBody{},
		&AllocationBody{Round: 7, Replicas: []string{"r1", "r2"}, PerReplicaMB: []float64{7, 3}, Algorithm: "LDDM", Iterations: 200},
		&AllocationBody{Round: 7, Algorithm: "CDPSM"}, // an absent client's pull reply
		&AllocationBody{Round: 7, Algorithm: "ADMM", Iterations: 12, Replicas: []string{"r1", "r2", "r3"}, PerReplicaMB: []float64{0, 0.75, 0}},
		&ReplicaInfo{},
		&infos[0],
		&infos[1],
		&PullBody{},
		&PullBody{ClientAddr: "127.0.0.1:40113"},
		&DownloadBody{},
		&DownloadBody{Round: 7, SizeMB: 12.5},
		&membership.Epoch{},
		&membership.Epoch{Seq: 3, Members: []string{"r1", "r2", "r3"}},
		&membership.Epoch{Seq: 4, Members: []string{"r1", "r2", "r3"}, Drained: []string{"r2"}},
		&membership.EpochAck{},
		&membership.EpochAck{Seq: 4, Accepted: true},
		&membership.ProposeBody{},
		&membership.ProposeBody{Op: membership.OpDrain, Addr: "r2"},
	}
}

// fresh returns a zero value of b's type.
func fresh(b binaryBody) binaryBody {
	return reflect.New(reflect.TypeOf(b).Elem()).Interface().(binaryBody)
}

// Every body survives the binary codec unchanged, decodes from binary to
// exactly what it decodes from JSON to, and has one byte representation.
func TestControlCodecRoundTrip(t *testing.T) {
	for i, in := range codecCases() {
		name := fmt.Sprintf("%d-%T", i, in)
		bin, err := in.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromBin := fresh(in)
		if err := fromBin.UnmarshalBinary(bin); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(fromBin, in) {
			t.Errorf("%s: binary round trip\n got %+v\nwant %+v", name, fromBin, in)
		}
		js, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromJSON := fresh(in)
		if err := json.Unmarshal(js, fromJSON); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(fromBin, fromJSON) {
			t.Errorf("%s: codecs disagree\nbinary %+v\n  JSON %+v", name, fromBin, fromJSON)
		}
		for rep := 0; rep < 8; rep++ {
			again, err := in.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(bin) {
				t.Fatalf("%s: two encodings of one body differ", name)
			}
		}
	}
}

// The routed bodies lead with their round id, so a dispatcher can read it
// without decoding (transport.BinaryRound).
func TestControlCodecRoundHeader(t *testing.T) {
	for _, body := range []encoding.BinaryMarshaler{RoundSpec{Round: 77}, AssignBody{Round: 77, BaseRound: 3}} {
		msg, err := transport.NewMessage("x", "n", body)
		if err != nil {
			t.Fatal(err)
		}
		if round, err := transport.BinaryRound(msg); err != nil || round != 77 {
			t.Errorf("%T: BinaryRound = %d, %v", body, round, err)
		}
	}
}

// A string the u16 header cannot describe fails the marshal; it is never
// written with a truncated length. Neither is a pair list or a roster whose
// keys do not strictly ascend, a request that mixes the handle form with an
// address or a list, a full form with no address, an allocation whose
// values do not pair with its roster or carry a NaN or infinite MB, nor an
// assign carrying a non-finite MB or, against the empty plan, one that is
// not positive, or bytes that are not whole entries, which no decoder
// would take back. An install's 64 KiB name is refused by the writer that
// install and the marshaler share.
func TestControlCodecRejectsOversizedStrings(t *testing.T) {
	long := strings.Repeat("x", 1<<16)
	for _, body := range []binaryBody{
		&RequestBody{ClientAddr: long},
		&RequestBody{ClientAddr: "c", LatencySec: []Latency{{long, 1}}},
		&RoundSpec{Replicas: []ReplicaInfo{{Addr: long}}},
		&RoundSpec{ClientAddrs: []string{"ok", long}},
		&AllocationBody{Algorithm: long},
		&AllocationBody{Replicas: []string{long}, PerReplicaMB: []float64{1}},
	} {
		if _, err := body.MarshalBinary(); err == nil {
			t.Errorf("%T with a 64 KiB string marshaled", body)
		}
	}
	for _, body := range []binaryBody{
		&RequestBody{ClientAddr: "c", LatencySec: []Latency{{"r2", 1}, {"r1", 1}}},
		&RequestBody{ClientAddr: "c", LatencySec: []Latency{{"r1", 1}, {"r1", 2}}},
		&RequestBody{Handle: 3, LatencySec: []Latency{{"r1", 1}}},
		&RequestBody{Handle: 3, ClientAddr: "c"},
		&RequestBody{DemandMB: 1},
		assignOf(0, 1, []clientMB{{"c2", 1}, {"c1", 1}}),
		assignOf(0, 1, []clientMB{{"c1", 1}, {"c1", 0}}),
		&AllocationBody{Replicas: []string{"r2", "r1"}, PerReplicaMB: []float64{1, 1}},
		&AllocationBody{Replicas: []string{"r1", "r1"}, PerReplicaMB: []float64{1, 1}},
	} {
		if _, err := body.MarshalBinary(); err == nil {
			t.Errorf("%+v with keys out of order, or named twice, marshaled", body)
		}
	}
	for _, body := range []binaryBody{
		&AllocationBody{Replicas: []string{"r1"}},
		&AllocationBody{Replicas: []string{"r1"}, PerReplicaMB: []float64{1, 2}},
		&AllocationBody{Replicas: []string{"r1"}, PerReplicaMB: []float64{math.NaN()}},
		&AllocationBody{Replicas: []string{"r1"}, PerReplicaMB: []float64{math.Inf(1)}},
	} {
		if _, err := body.MarshalBinary(); err == nil {
			t.Errorf("%+v with values no client takes marshaled", body)
		}
	}
	for _, body := range []binaryBody{
		assignOf(4, 0, []clientMB{{"c1", 1}, {"c2", 0}}),
		assignOf(4, 0, []clientMB{{"c1", -1}}),
		assignOf(4, 3, []clientMB{{"c1", math.NaN()}}),
		assignOf(4, 3, []clientMB{{"c1", math.Inf(-1)}}),
		&AssignBody{Round: 4, BaseRound: 3, Updates: transport.Pairs{2, 0, 'c'}}, // not a whole entry
	} {
		if _, err := body.MarshalBinary(); err == nil {
			t.Errorf("%+v with an entry no install applies marshaled", body)
		}
	}
	for _, base := range []int{0, 1} {
		d := assignDiff{round: 2, baseRound: base, clients: []string{long}, x: [][]float64{{1}}, every: true}
		if _, err := d.body(0); err == nil {
			t.Errorf("assign over base %d with a 64 KiB name written", base)
		}
	}
	ok := &RequestBody{ClientAddr: long[:1<<16-1]}
	if _, err := ok.MarshalBinary(); err != nil {
		t.Errorf("65 535-byte string refused: %v", err)
	}
}

// hostile builds a body field by field, whether its layout allows it or
// not.
type hostile []byte

// put appends what write writes to h.
func (h hostile) put(write func(w *transport.Writer)) hostile {
	w := transport.NewWriter(h)
	write(&w)
	b, _ := w.Done()
	return b
}

func (h hostile) u32(v uint32) hostile  { return h.put(func(w *transport.Writer) { w.U32(int(v)) }) }
func (h hostile) u64(v uint64) hostile  { return h.put(func(w *transport.Writer) { w.U64(v) }) }
func (h hostile) f64(v float64) hostile { return h.put(func(w *transport.Writer) { w.F64(v) }) }
func (h hostile) str(s string) hostile  { return h.put(func(w *transport.Writer) { w.Str(s) }) }

// MarshalBinary sends h as it is (transport.NewMessage).
func (h hostile) MarshalBinary() ([]byte, error) { return h, nil }

// hostileCase is a body a decoder must refuse; field, when set, is the
// field the refusal must name.
type hostileCase struct {
	name  string
	into  binaryBody
	data  hostile
	field string
}

// hostileCases are bodies every decoder must refuse. A decoder must not
// take a count's word for it: a header claiming more entries than the bytes
// behind it could hold is refused before anything is allocated for it, lists
// that have to pair up must agree in length, and a pair list's keys must
// strictly ascend — out of order or repeated, two byte strings would decode
// to one body. A round spec's mask must also fit the roster the spec
// spelled out, with exactly one encoding, its refusals naming the field, and
// nothing may follow it: a spec still carrying the retired warm seed is
// refused. An assign's entries must be finite, and positive against the
// empty plan, and their refusals name the round. A request is one form or
// the other, whole; a push's roster must ascend and hash to the roster it
// names, its columns must fit that roster, with one value each, finite and
// positive, and a short form names a roster no fresh decoder holds. An
// epoch ack's flag is 0 or 1, and a withdrawal names a handle, never 0.
// No body takes a byte past its last field, an ack, an install, a download,
// an epoch or a withdrawal included.
func hostileCases() []hostileCase {
	const huge = 1 << 30
	// roster opens a spec of 3 clients × 1 replica: a 1-byte bitmap.
	roster := func() hostile {
		h := hostile{}.u32(1).u32(1).str("r")
		for k := 0; k < 6; k++ {
			h = h.f64(1)
		}
		return h.u32(3).str("a").str("b").str("c").u32(3).f64(1).f64(2).f64(3)
	}
	// warm follows a bitmap of clients a and c (nnz 2) with a warm seed in
	// the retired layout.
	warm := func(v ...float64) hostile {
		h := append(roster().u32(1), 0b101).u32(uint32(len(v)))
		for _, x := range v {
			h = h.f64(x)
		}
		return h
	}
	// Each opens a two-pair list, freshly: appending to a shared prefix
	// would let one case overwrite another.
	request := func() hostile { return hostile{}.u32(0).str("c").f64(1).u32(2) }
	update := func() hostile { return hostile{}.u32(2).u32(1).u32(2) }
	// push opens an allocation naming the roster hash; listed is the full
	// form over r1 < r2 < r3 up to its 1-byte column bitmap, cols.
	push := func(hash uint64) hostile { return hostile{}.u32(1).str("LDDM").u32(9).u64(hash) }
	listed := func(cols byte) hostile {
		return append(push(rosterHash([]string{"r1", "r2", "r3"})).u32(3).str("r1").str("r2").str("r3").u32(1), cols)
	}
	return []hostileCase{
		{"request: map count", &RequestBody{}, hostile{}.u32(0).str("c").f64(1).u32(huge), ""},
		{"request: truncated string", &RequestBody{}, append(hostile{}.u32(0), 0xff, 0xff, 'c'), ""},
		{"ack: truncated", &RequestAck{}, hostile{1, 0, 0}, ""},
		{"ack: truncated handle", &RequestAck{}, hostile{}.u32(1).f64(2).u32(9)[:15], ""},
		{"request: truncated handle form", &RequestBody{}, hostile{}.u32(9).f64(1)[:11], ""},
		{"request: handle form and latencies", &RequestBody{}, hostile{}.u32(5).f64(1).u32(1).str("r1").f64(1e-4), "trailing bytes"},
		{"request: handle form and one trailing byte", &RequestBody{}, append(hostile{}.u32(5).f64(1), 0), "trailing bytes"},
		{"request: full form with an empty address", &RequestBody{}, hostile{}.u32(0).str("").f64(1).u32(0), "names no client"},
		{"request: full form and one trailing byte", &RequestBody{}, append(hostile{}.u32(0).str("c").f64(1).u32(0), 0), "trailing bytes"},
		{"spec: replica count", &RoundSpec{}, hostile{}.u32(1).u32(huge), ""},
		{"spec: client count", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(huge), ""},
		{"spec: demand count", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(0).u32(huge), ""},
		{"spec: demands without clients", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(0).u32(1).f64(5), ""},
		{"spec: bitmap wider than the roster", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(0).u32(0).u32(huge), "feasibility bitmap"},
		{"spec: bitmap shorter than the roster", &RoundSpec{}, roster().u32(0).u32(0), "feasibility bitmap"},
		{"spec: bitmap longer than the roster", &RoundSpec{}, append(roster().u32(2), 0b101, 0).u32(0), "feasibility bitmap"},
		{"spec: bitmap truncated", &RoundSpec{}, roster().u32(1), "feasibility bitmap"},
		{"spec: bit past the roster", &RoundSpec{}, append(roster().u32(1), 0b1101).u32(0), "feasibility bitmap"},
		{"spec: warm seed", &RoundSpec{}, warm(1, 2), "trailing bytes"},
		{"spec: empty warm seed", &RoundSpec{}, warm(), "trailing bytes"},
		{"spec: warm longer than the support", &RoundSpec{}, warm(1, 2, 3), "trailing bytes"},
		{"spec: NaN warm", &RoundSpec{}, warm(1, math.NaN()), "trailing bytes"},
		{"spec: one trailing byte", &RoundSpec{}, append(roster().u32(1), 0b101, 0), "trailing bytes"},
		{"spec: trailing byte after an empty bitmap", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(0).u32(0).u32(0).u32(0), "trailing bytes"},
		{"assign: update count", &AssignBody{}, hostile{}.u32(1).u32(1).u32(huge), ""},
		{"assign: base-less zero entry", &AssignBody{}, hostile{}.u32(6).u32(0).u32(2).str("c1").f64(4).str("c2").f64(0), "assign round 6"},
		{"assign: base-less negative entry", &AssignBody{}, hostile{}.u32(6).u32(0).u32(1).str("c1").f64(-2), "assign round 6"},
		{"assign: NaN update", &AssignBody{}, hostile{}.u32(6).u32(5).u32(1).str("c1").f64(math.NaN()), "assign round 6"},
		{"assign: +Inf entry", &AssignBody{}, hostile{}.u32(6).u32(0).u32(1).str("c1").f64(math.Inf(1)), "assign round 6"},
		{"allocation: roster count", &AllocationBody{}, push(1).u32(huge), ""},
		{"allocation: values without a roster", &AllocationBody{}, push(0).u32(0).u32(0).u32(1).f64(1), "values"},
		{"request: latencies out of order", &RequestBody{}, request().str("r2").f64(1e-4).str("r1").f64(1e-4), ""},
		{"request: latency twice", &RequestBody{}, request().str("r1").f64(1e-4).str("r1").f64(2e-4), ""},
		{"assign: updates out of order", &AssignBody{}, update().str("c2").f64(1).str("c1").f64(1), ""},
		{"assign: update twice", &AssignBody{}, update().str("c1").f64(1).str("c1").f64(0), ""},
		{"allocation: roster out of order", &AllocationBody{}, push(rosterHash([]string{"r2", "r1"})).u32(2).str("r2").str("r1").u32(1).u32(0), "ascend"},
		{"allocation: replica twice", &AllocationBody{}, push(rosterHash([]string{"r1", "r1"})).u32(2).str("r1").str("r1").u32(1).u32(0), "ascend"},
		{"allocation: hash of another roster", &AllocationBody{}, push(rosterHash([]string{"r1"})).u32(2).str("r1").str("r2").u32(1).u32(0), "hash"},
		{"allocation: short form", &AllocationBody{}, append(push(rosterHash([]string{"r1"})).u32(0).u32(1), 0b1).u32(1).f64(1), "does not list"},
		{"allocation: column past the roster", &AllocationBody{}, listed(0b1001).u32(2).f64(1).f64(1), "column bitmap"},
		{"allocation: columns wider than the roster", &AllocationBody{}, append(push(rosterHash([]string{"r1"})).u32(1).str("r1").u32(2), 1, 0).u32(1).f64(1), "column bitmap"},
		{"allocation: more values than columns", &AllocationBody{}, listed(0b011).u32(3).f64(1).f64(1).f64(1), "values"},
		{"allocation: fewer values than columns", &AllocationBody{}, listed(0b011).u32(1).f64(1), "values"},
		{"allocation: values past the body", &AllocationBody{}, listed(0b011).u32(2).f64(1), "values"},
		{"allocation: NaN value", &AllocationBody{}, listed(0b001).u32(1).f64(math.NaN()), "not finite and positive"},
		{"allocation: +Inf value", &AllocationBody{}, listed(0b010).u32(1).f64(math.Inf(1)), "not finite and positive"},
		{"allocation: negative value", &AllocationBody{}, listed(0b100).u32(1).f64(-1), "not finite and positive"},
		{"allocation: zero in a column", &AllocationBody{}, listed(0b100).u32(1).f64(0), "not finite and positive"},
		{"allocation: one trailing byte", &AllocationBody{}, append(listed(0b001).u32(1).f64(1), 0), "trailing bytes"},
		{"ack: one trailing byte", &RequestAck{}, append(hostile{}.u32(41).f64(25.125).u32(7), 0xff), "trailing bytes"},
		{"assign: full install and one trailing byte", &AssignBody{}, append(hostile{}.u32(7).u32(0).u32(1).str("c1").f64(4), 0xff), "trailing bytes"},
		{"info: truncated", &ReplicaInfo{}, hostile{}.str("r1").f64(1).f64(1).f64(1).f64(1).f64(1), ""},
		{"info: one trailing byte", &ReplicaInfo{}, append(hostile{}.str("r1").f64(1).f64(1).f64(1).f64(1).f64(1).f64(0), 0), "trailing bytes"},
		{"pull: truncated address", &PullBody{}, append(hostile{}, 9, 0, 'c'), ""},
		{"pull: one trailing byte", &PullBody{}, append(hostile{}.str("c1"), 0), "trailing bytes"},
		{"download: truncated", &DownloadBody{}, hostile{}.u32(1).f64(2)[:11], ""},
		{"download: one trailing byte", &DownloadBody{}, append(hostile{}.u32(1).f64(2), 0), "trailing bytes"},
		{"epoch: member count", &membership.Epoch{}, hostile{}.u32(1).u32(huge), ""},
		{"epoch: no drained list", &membership.Epoch{}, hostile{}.u32(1).u32(1).str("r1"), ""},
		{"epoch: one trailing byte", &membership.Epoch{}, append(hostile{}.u32(1).u32(1).str("r1").u32(0), 0), "trailing bytes"},
		{"epoch ack: flag 2", &membership.EpochAck{}, hostile{}.u32(4).u32(2), "flag"},
		{"epoch ack: one trailing byte", &membership.EpochAck{}, append(hostile{}.u32(4).u32(1), 0), "trailing bytes"},
		{"propose: no address", &membership.ProposeBody{}, hostile{}.str("drain"), ""},
		{"propose: one trailing byte", &membership.ProposeBody{}, append(hostile{}.str("drain").str("r2"), 0), "trailing bytes"},
		{"withdraw: handle 0", &WithdrawBody{}, hostile{}.u32(0), "handle"},
		{"withdraw: truncated", &WithdrawBody{}, hostile{}.u32(7)[:3], ""},
		{"withdraw: one trailing byte", &WithdrawBody{}, append(hostile{}.u32(7), 0), "trailing bytes"},
	}
}

func TestControlCodecRejectsHostileInput(t *testing.T) {
	for _, tc := range hostileCases() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.into.UnmarshalBinary(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the %s", tc.name, err, tc.field)
		}
		// Generous: the point is megabytes-for-bytes, not the error string.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.data), grew)
		}
	}
}

// decodedBytes is what a decoded body holds on the heap, give or take
// headers: the quantity the fuzz target bounds by the input's length.
func decodedBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		return decodedBytes(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += decodedBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += decodedBytes(v.Index(i))
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += decodedBytes(it.Key()) + decodedBytes(it.Value())
		}
		return n
	case reflect.String:
		return v.Len()
	default:
		return int(v.Type().Size())
	}
}

// FuzzControlBodies feeds arbitrary bytes to every decoder in codec.go and
// to the membership bodies':
// none may panic, none may build a body out of proportion to its input, and
// whatever decodes must re-encode to exactly the bytes it came from, since
// a body has one byte representation.
// The first input byte picks the decoder. The seeds are every codec case,
// every refused body of hostileCases and a withdrawal.
func FuzzControlBodies(f *testing.F) {
	kinds := controlBodies()
	seed := func(body binaryBody, bin []byte) {
		for k := range kinds {
			if reflect.TypeOf(kinds[k]) == reflect.TypeOf(body) {
				f.Add(append([]byte{byte(k)}, bin...))
			}
		}
	}
	for _, body := range codecCases() {
		bin, err := body.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		seed(body, bin)
	}
	for _, tc := range hostileCases() {
		seed(tc.into, tc.data)
	}
	// Appended past the seeds above, which keep their numbers.
	withdraw, err := WithdrawBody{Handle: 0x01020304}.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	seed(&WithdrawBody{}, withdraw)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := fresh(kinds[int(data[0])%len(kinds)])
		data = data[1:]
		if body.UnmarshalBinary(data) != nil {
			return
		}
		// Strings, list and map entries cost the input at least what they
		// occupy decoded; a mask cell costs a bit and decodes to a byte.
		limit := 64 + 8*len(data)
		if got := decodedBytes(reflect.ValueOf(body)); got > limit {
			t.Fatalf("%T: %d input bytes decoded to %d", body, len(data), got)
		}
		// Compared as bytes: NaN payloads decode fine and never DeepEqual.
		if again, err := body.MarshalBinary(); err != nil || string(again) != string(data) {
			t.Fatalf("%T: %x decoded and re-encodes to %x (err %v)", body, data, again, err)
		}
	})
}

// FuzzFeasibilityBitmap checks the round spec's mask encoding: a rows ×
// cols mask (cell k set where bit k of bits is) survives writeMask and
// readMask unchanged, with the support the replica solves over — its
// opt.Sparsity — intact; and a byte string readMask accepts re-encodes to
// itself, so every non-canonical string (a width other than
// ⌈rows·cols/8⌉, a bit set past the last cell) is refused.
func FuzzFeasibilityBitmap(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{0b101})
	f.Add(uint8(3), uint8(1), []byte{0b1101})
	f.Add(uint8(100), uint8(10), []byte(strings.Repeat("\xa5", 125)))
	f.Add(uint8(2), uint8(3), []byte{0x3f, 0})
	f.Add(uint8(0), uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint8, bits []byte) {
		c, n := int(rows), int(cols)%17
		mask := make([][]bool, c)
		for i := range mask {
			mask[i] = make([]bool, n)
			for j := range mask[i] {
				k := i*n + j
				mask[i][j] = k>>3 < len(bits) && bits[k>>3]&(1<<(k&7)) != 0
			}
		}
		w := transport.NewWriter(nil)
		writeMask(&w, mask, c, n)
		enc, err := w.Done()
		if err != nil {
			t.Fatal(err)
		}
		r := transport.NewReader(enc)
		got := readMask(&r, c, n)
		if err := r.Done(); err != nil {
			t.Fatalf("%d×%d mask does not decode whole: %v", c, n, err)
		}
		if c*n == 0 {
			if got != nil {
				t.Fatalf("a mask with no cells decoded to %v", got)
			}
		} else {
			want := opt.NewSparsity(mask)
			if !reflect.DeepEqual(got, mask) || !reflect.DeepEqual(opt.NewSparsity(got), want) {
				t.Fatalf("%d×%d mask round trip\n got %v\nwant %v", c, n, got, mask)
			}
		}

		raw := append(hostile{}.u32(uint32(len(bits))), bits...)
		r = transport.NewReader(raw)
		dec := readMask(&r, c, n)
		if r.Err() != nil {
			return
		}
		w = transport.NewWriter(nil)
		writeMask(&w, dec, c, n)
		if again, err := w.Done(); err != nil || string(again) != string(raw) {
			t.Fatalf("%d×%d: accepted a bitmap that is not its mask's encoding (%v)", c, n, err)
		}
	})
}

// codecSink keeps the benchmarked calls observable.
var codecSink int

// BenchmarkControlCodec is one encode plus one decode of the bodies that
// dominate a fleet-scale round, binary beside encoding/json: a request
// naming 10 replicas, a full install serving 10 000 clients, the 100-update
// delta assign of a 1 %-drift round, and a cohort allocation in full.
func BenchmarkControlCodec(b *testing.B) {
	request := &RequestBody{ClientAddr: "client-004217", DemandMB: 12.5}
	cohort := &AllocationBody{Round: 12, Algorithm: "LDDM", Iterations: 200}
	for j := 0; j < 10; j++ {
		addr := fmt.Sprintf("replica-%02d", j)
		request.LatencySec = append(request.LatencySec, Latency{addr, 0.0004 + 0.0001*float64(j)})
		cohort.Replicas = append(cohort.Replicas, addr)
		cohort.PerReplicaMB = append(cohort.PerReplicaMB, 0.1)
	}
	var full, updates []clientMB
	for i := 0; i < 10000; i++ {
		full = append(full, clientMB{fmt.Sprintf("client-%06d", i), float64(1+i%7) * 1.375})
	}
	for i := 0; i < 10000; i += 100 {
		updates = append(updates, clientMB{fmt.Sprintf("client-%06d", i), float64(i%7) * 1.5})
	}
	assign, delta := assignOf(12, 0, full), assignOf(13, 12, updates)
	for _, tc := range []struct {
		name string
		body binaryBody
	}{{"request", request}, {"assign10k", assign}, {"assignDelta100", delta}, {"cohort", cohort}} {
		b.Run(tc.name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bin, err := tc.body.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				if err := fresh(tc.body).UnmarshalBinary(bin); err != nil {
					b.Fatal(err)
				}
				codecSink += len(bin)
			}
		})
		b.Run(tc.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				js, err := json.Marshal(tc.body)
				if err != nil {
					b.Fatal(err)
				}
				if err := json.Unmarshal(js, fresh(tc.body)); err != nil {
					b.Fatal(err)
				}
				codecSink += len(js)
			}
		})
	}
}
