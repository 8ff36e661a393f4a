package core

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"edr/internal/transport"
)

// binaryBody is what every codec in codec.go provides through its pointer.
type binaryBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// controlBodies lists one fresh value of every body codec.go covers, in the
// order FuzzControlBodies numbers them.
func controlBodies() []binaryBody {
	return []binaryBody{
		&RequestBody{}, &RequestAck{}, &RoundSpec{}, &AssignBody{},
		&AllocationBody{}, &CohortAllocationBody{},
	}
}

// codecCases are the bodies the round-trip tests and the fuzz corpus start
// from: every codec, with its empty, nil-Warm, delta-form, zero-demand and
// refused shapes.
func codecCases() []binaryBody {
	infos := []ReplicaInfo{
		{Addr: "r1", Price: 1, Alpha: 1, Beta: 0.01, Gamma: 3, Bandwidth: 100},
		{Addr: "r2", Price: 8, Alpha: 2, Beta: 0.02, Gamma: 2, Bandwidth: 50, BaseMB: 12.5},
	}
	return []binaryBody{
		&RequestBody{},
		&RequestBody{ClientAddr: "c1", DemandMB: 0, LatencySec: map[string]float64{"r1": 0.0005}},
		&RequestBody{ClientAddr: "c1", DemandMB: 25.125, LatencySec: map[string]float64{"r2": 0.0011, "r1": 0.0005, "r3": 1e-9}},
		&RequestAck{},
		&RequestAck{Accepted: true, Pending: 10000, Round: 41},
		&RequestAck{Pending: 3, Round: 2},
		&RoundSpec{},
		&RoundSpec{ // nil Warm, one infeasible pair
			Round: 7, Replicas: infos, ClientAddrs: []string{"c1", "c2", "c3"},
			Demands:       []float64{10, 0, 30},
			LatencySec:    [][]float64{{0.0005, 0.0007}, {0.0005, 1}, {0.0001, 0.0002}},
			MaxLatencySec: 0.0018,
		},
		&RoundSpec{ // cohorted, warm-started from a mostly-zero split
			Round: 8, Replicas: infos, ClientAddrs: []string{"c1", "c4"},
			Demands:       []float64{40, 2.5},
			LatencySec:    [][]float64{{0.0005, 0.0007}, {0.0005, 0.0009}},
			MaxLatencySec: 0.0018, RawClients: 10000,
			Warm: [][]float64{{40, 0}, {0, 2.5}},
		},
		&AssignBody{},
		&AssignBody{Round: 7, Column: []float64{4, 0, 2.5}, ClientAddrs: []string{"c1", "c2", "c3"}},
		&AssignBody{Round: 9, BaseRound: 7, Updates: map[string]float64{"c3": 0, "c1": 4.25, "c9": 1}},
		&AssignBody{Round: 10, BaseRound: 9},
		&AllocationBody{},
		&AllocationBody{Round: 7, PerReplicaMB: map[string]float64{"r2": 3, "r1": 7}, Algorithm: "LDDM", Iterations: 200},
		&CohortAllocationBody{},
		&CohortAllocationBody{Round: 7, Algorithm: "ADMM", Iterations: 12, Replicas: []string{"r1", "r2"}, UnitMB: []float64{0.75, 0.25}},
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
		// Map iteration order must not reach the wire.
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
	for _, body := range []any{RoundSpec{Round: 77}, AssignBody{Round: 77, BaseRound: 3}} {
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
// written with a truncated length.
func TestControlCodecRejectsOversizedStrings(t *testing.T) {
	long := strings.Repeat("x", 1<<16)
	for _, body := range []binaryBody{
		&RequestBody{ClientAddr: long},
		&RequestBody{ClientAddr: "c", LatencySec: map[string]float64{long: 1}},
		&RoundSpec{Replicas: []ReplicaInfo{{Addr: long}}},
		&RoundSpec{ClientAddrs: []string{"ok", long}},
		&AssignBody{ClientAddrs: []string{long}, Column: []float64{1}},
		&AssignBody{BaseRound: 1, Updates: map[string]float64{long: 1}},
		&AllocationBody{Algorithm: long},
		&CohortAllocationBody{Replicas: []string{long}, UnitMB: []float64{1}},
	} {
		if _, err := body.MarshalBinary(); err == nil {
			t.Errorf("%T with a 64 KiB string marshaled", body)
		}
	}
	ok := &RequestBody{ClientAddr: long[:1<<16-1]}
	if _, err := ok.MarshalBinary(); err != nil {
		t.Errorf("65 535-byte string refused: %v", err)
	}
}

// hostile builds a body from raw little-endian fields.
type hostile []byte

func (h hostile) u32(v uint32) hostile  { return transport.AppendUint32(h, v) }
func (h hostile) f64(v float64) hostile { return transport.AppendFloat64(h, v) }
func (h hostile) str(s string) hostile {
	b, _ := transport.AppendString(h, s)
	return b
}

// A decoder must not take a count's word for it: a header claiming more
// entries than the bytes behind it could hold is refused before anything is
// allocated for it, and lists that have to pair up must agree in length.
func TestControlCodecRejectsHostileInput(t *testing.T) {
	const huge = 1 << 30
	emptyMatrix := func(h hostile) hostile { return append(h, transport.MatrixFull).u32(0).u32(0) }
	cases := []struct {
		name string
		into binaryBody
		data hostile
	}{
		{"request: map count", &RequestBody{}, hostile{}.str("c").f64(1).u32(huge)},
		{"request: truncated string", &RequestBody{}, hostile{0xff, 0xff, 'c'}},
		{"ack: truncated", &RequestAck{}, hostile{1, 0, 0}},
		{"spec: replica count", &RoundSpec{}, hostile{}.u32(1).u32(huge)},
		{"spec: client count", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(huge)},
		{"spec: demand count", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(0).u32(huge)},
		{"spec: demands without clients", &RoundSpec{}, hostile{}.u32(1).u32(0).u32(0).u32(1).f64(5)},
		{"spec: matrix larger than the roster", &RoundSpec{},
			append(hostile{}.u32(1).u32(0).u32(0).u32(0), transport.MatrixSparse).u32(1 << 11).u32(1 << 11).u32(0)},
		{"spec: delta matrix", &RoundSpec{},
			append(hostile{}.u32(1).u32(0).u32(0).u32(0), transport.MatrixDelta).u32(0).u32(0).u32(0)},
		{"spec: warm larger than the roster", &RoundSpec{},
			append(emptyMatrix(hostile{}.u32(1).u32(0).u32(0).u32(0)).f64(1).u32(0), transport.MatrixSparse).u32(1 << 11).u32(1 << 11).u32(0)},
		{"assign: column count", &AssignBody{}, hostile{}.u32(1).u32(0).u32(huge)},
		{"assign: address count", &AssignBody{}, hostile{}.u32(1).u32(0).u32(0).u32(huge)},
		{"assign: update count", &AssignBody{}, hostile{}.u32(1).u32(1).u32(0).u32(0).u32(huge)},
		{"assign: amounts without clients", &AssignBody{}, hostile{}.u32(1).u32(0).u32(1).f64(4).u32(0).u32(0)},
		{"allocation: map count", &AllocationBody{}, hostile{}.u32(1).u32(huge)},
		{"cohort allocation: replica count", &CohortAllocationBody{}, hostile{}.u32(1).str("LDDM").u32(9).u32(huge)},
		{"cohort allocation: units without replicas", &CohortAllocationBody{}, hostile{}.u32(1).str("LDDM").u32(9).u32(0).u32(1).f64(1)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.into.UnmarshalBinary(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
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

// FuzzControlBodies feeds arbitrary bytes to every decoder in codec.go:
// none may panic, none may build a body out of proportion to its input, and
// whatever decodes must re-encode to bytes that decode to the same body.
// The first input byte picks the decoder.
func FuzzControlBodies(f *testing.F) {
	kinds := controlBodies()
	for _, body := range codecCases() {
		bin, err := body.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		for k := range kinds {
			if reflect.TypeOf(kinds[k]) == reflect.TypeOf(body) {
				f.Add(append([]byte{byte(k)}, bin...))
			}
		}
	}
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
		// occupy decoded. The exception is a RoundSpec's two matrices, which
		// may arrive sparse: they are bounded by the roster the same input
		// spelled out instead (at least 10 bytes a client, 50 a replica).
		limit := 64 + 8*len(data)
		if spec, ok := body.(*RoundSpec); ok {
			limit += 2 * 8 * len(spec.Demands) * len(spec.Replicas)
		}
		if got := decodedBytes(reflect.ValueOf(body)); got > limit {
			t.Fatalf("%T: %d input bytes decoded to %d", body, len(data), got)
		}
		first, err := body.MarshalBinary()
		if err != nil {
			t.Fatalf("%T decoded but does not re-encode: %v", body, err)
		}
		again := fresh(body)
		if err := again.UnmarshalBinary(first); err != nil {
			t.Fatalf("%T re-encoded to bytes that do not decode: %v", body, err)
		}
		// Compared as bytes: NaN payloads decode fine and never DeepEqual.
		second, err := again.MarshalBinary()
		if err != nil || string(second) != string(first) {
			t.Fatalf("%T: re-encoding is not a fixed point (err %v)", body, err)
		}
	})
}

// codecSink keeps the benchmarked calls observable.
var codecSink int

// BenchmarkControlCodec is one encode plus one decode of the three bodies
// that dominate a fleet-scale round, binary beside encoding/json.
func BenchmarkControlCodec(b *testing.B) {
	request := &RequestBody{ClientAddr: "client-004217", DemandMB: 12.5, LatencySec: map[string]float64{}}
	cohort := &CohortAllocationBody{Round: 12, Algorithm: "LDDM", Iterations: 200}
	for j := 0; j < 10; j++ {
		addr := fmt.Sprintf("replica-%02d", j)
		request.LatencySec[addr] = 0.0004 + 0.0001*float64(j)
		cohort.Replicas = append(cohort.Replicas, addr)
		cohort.UnitMB = append(cohort.UnitMB, 0.1)
	}
	assign := &AssignBody{Round: 12}
	for i := 0; i < 10000; i++ {
		assign.ClientAddrs = append(assign.ClientAddrs, fmt.Sprintf("client-%06d", i))
		assign.Column = append(assign.Column, float64(i%7)*1.375)
	}
	for _, tc := range []struct {
		name string
		body binaryBody
	}{{"request", request}, {"assign10k", assign}, {"cohort", cohort}} {
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
