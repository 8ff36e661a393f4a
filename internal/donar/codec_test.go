package donar

import (
	"encoding"
	"encoding/hex"
	"reflect"
	"testing"

	"edr/internal/transport"
)

// donarBody is what every codec in codec.go provides through its pointer.
type donarBody interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// donarBodies lists one fresh value of every DONAR body, in the order
// FuzzDonarBodies numbers them.
func donarBodies() []donarBody {
	return []donarBody{&requestBody{}, &requests{}, &localSolveBody{}, &localSolveReply{}, &notifyBody{}, &AllocationBody{}}
}

// fresh returns a zero value of b's type.
func fresh(b donarBody) donarBody {
	return reflect.New(reflect.TypeOf(b).Elem()).Interface().(donarBody)
}

// golden is one body pinned to its bytes.
type golden struct {
	hex  string
	body donarBody
}

func goldenBodies() []golden {
	lat := map[string]float64{"r2": 0.25, "r1": 0.5}
	return []golden{
		{"0200633100000000000004400200000002007231000000000000e03f02007232000000000000d03f", &requestBody{ClientAddr: "c1", DemandMB: 2.5, LatencySec: lat}},
		{"0200000002006331000000000000f03f000000000200633200000000000000400200000002007231000000000000e03f02007232000000000000d03f", &requests{{ClientAddr: "c1", DemandMB: 1}, {ClientAddr: "c2", DemandMB: 2, LatencySec: lat}}},
		{"010000000200000002007232000000000000594002007231000000000000494002000000000000000000084000000000000000000100000002006331000000000000f03f0200000002007231000000000000e03f02007232000000000000d03f", &localSolveBody{Epoch: 1, Replicas: []ReplicaSpec{{"r2", 100}, {"r1", 50}}, OtherLoads: []float64{3, 0}, Requests: requests{{ClientAddr: "c1", DemandMB: 1, LatencySec: lat}}}},
		{"030000000100000002007231000000000000f03f000000000200000002007231000000000000e03f02007232000000000000f83f02000000000000000000f83f000000000000f83f", &localSolveReply{Assignments: []map[string]float64{{"r1": 1}, nil, {"r1": 0.5, "r2": 1.5}}, Loads: []float64{1.5, 1.5}}},
		{"01000000020000000200633102006332020000000100000002007231000000000000f03f0100000002007232000000000000e03f", &notifyBody{Epoch: 1, ClientAddrs: []string{"c1", "c2"}, Allocations: []map[string]float64{{"r1": 1}, {"r2": 0.5}}}},
		{"010000000200000002007231000000000000f03f02007232000000000000e03f", &AllocationBody{Epoch: 1, PerReplicaMB: map[string]float64{"r2": 0.5, "r1": 1}}},
	}
}

// Every DONAR layout, pinned byte for byte: each body encodes to its hex
// and decodes to the body it came from, which encodes to the same hex
// again.
func TestWireGoldenBytes(t *testing.T) {
	for _, tc := range goldenBodies() {
		got, err := tc.body.MarshalBinary()
		if h := hex.EncodeToString(got); err != nil || h != tc.hex {
			t.Errorf("%T: encodes to\n%s (%v)\nwant\n%s", tc.body, h, err, tc.hex)
			continue
		}
		back := fresh(tc.body)
		if err := back.UnmarshalBinary(got); err != nil || !reflect.DeepEqual(back, tc.body) {
			t.Errorf("%T: decodes to %+v, %v", tc.body, back, err)
			continue
		}
		if again, err := back.MarshalBinary(); err != nil || string(again) != string(got) {
			t.Errorf("%T: re-encodes to %x, %v", tc.body, again, err)
		}
	}
}

// wire builds a body field by field, whether its layout allows it or not.
func wire(write func(w *transport.Writer)) []byte {
	w := transport.NewWriter(nil)
	write(&w)
	b, _ := w.Done()
	return b
}

// hostileBody is a body its decoder must refuse.
type hostileBody struct {
	name string
	into donarBody
	data []byte
}

// hostileBodies are bodies the decoders must refuse: a count the bytes left
// cannot hold, a map's keys out of order or twice, a notify whose
// allocations do not pair up with its clients, and, for every golden body,
// one byte past its last field.
func hostileBodies() []hostileBody {
	out := []hostileBody{
		{"request: latencies out of order", &requestBody{}, wire(func(w *transport.Writer) {
			w.Str("c")
			w.F64(1)
			w.Pairs(1, func(int) (string, float64) { return "r2", 1 })
			w.Str("r1")
			w.F64(1)
		})},
		{"requests: count", &requests{}, wire(func(w *transport.Writer) { w.U32(1 << 30) })},
		{"local solve: replica count", &localSolveBody{}, wire(func(w *transport.Writer) {
			w.U32(1)
			w.U32(1 << 30)
		})},
		{"notify: allocations for fewer clients", &notifyBody{}, wire(func(w *transport.Writer) {
			w.U32(1)
			w.Strs([]string{"c1", "c2"})
			w.U32(1)
			w.U32(0)
		})},
		{"allocation: replica twice", &AllocationBody{}, wire(func(w *transport.Writer) {
			w.U32(1)
			w.U32(2)
			w.Str("r1")
			w.F64(1)
			w.Str("r1")
			w.F64(2)
		})},
	}
	for _, tc := range goldenBodies() {
		bin, err := hex.DecodeString(tc.hex)
		if err != nil {
			panic(err)
		}
		out = append(out, hostileBody{"one trailing byte", fresh(tc.body), append(bin, 0)})
	}
	return out
}

func TestCodecRejectsHostileInput(t *testing.T) {
	for _, tc := range hostileBodies() {
		if err := tc.into.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%T: %s accepted", tc.into, tc.name)
		}
	}
}

// FuzzDonarBodies feeds arbitrary bytes to every DONAR decoder: none may
// panic, and whatever decodes must re-encode to exactly the bytes it came
// from, since a body has one byte representation. The first input byte
// picks the decoder; the seeds are the golden and the hostile bodies.
func FuzzDonarBodies(f *testing.F) {
	kinds := donarBodies()
	seed := func(body donarBody, data []byte) {
		for k := range kinds {
			if reflect.TypeOf(kinds[k]) == reflect.TypeOf(body) {
				f.Add(append([]byte{byte(k)}, data...))
			}
		}
	}
	for _, tc := range goldenBodies() {
		data, _ := hex.DecodeString(tc.hex)
		seed(tc.body, data)
	}
	for _, tc := range hostileBodies() {
		seed(tc.into, tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := fresh(kinds[int(data[0])%len(kinds)])
		if body.UnmarshalBinary(data[1:]) != nil {
			return
		}
		if again, err := body.MarshalBinary(); err != nil || string(again) != string(data[1:]) {
			t.Fatalf("%T: %x decoded and re-encodes to %x (err %v)", body, data[1:], again, err)
		}
	})
}
