package core

import (
	"fmt"
	"sort"

	"edr/internal/transport"
)

// Binary codecs for the runtime-owned bodies on a round's path: what a
// client submits and is told (client.request and its ack, client.allocation,
// client.allocation.cohort) and what the initiator installs on the replicas
// (round.start, replica.assign). They are paid once per client or per
// replica every round, so they are binary like the iteration verbs;
// replica.info, the pull request, membership, ring and download bodies are
// JSON. A body's type is its only codec (transport.DecodeBody): a JSON
// body sent to one of these verbs is refused.
//
// Layouts, all little-endian, built from the transport primitives (string =
// u16 length + bytes, strings = u32 count + strings, floats = u32 count +
// f64s, map = u32 count + (string, f64) pairs in ascending key order, matrix
// = one v2 kinded frame):
//
//	RequestBody           string ClientAddr | f64 DemandMB | map LatencySec
//	RequestAck            u8 Accepted | u32 Pending | u32 Round
//	RoundSpec             u32 Round | u32 n, n × (string Addr | f64 Price Alpha
//	                      Beta Gamma Bandwidth BaseMB) | strings ClientAddrs |
//	                      floats Demands | matrix LatencySec |
//	                      f64 MaxLatencySec | u32 RawClients | matrix Warm
//	AssignBody            u32 Round | u32 BaseRound | floats Column |
//	                      strings ClientAddrs | map Updates
//	AllocationBody        u32 Round | map PerReplicaMB | string Algorithm |
//	                      u32 Iterations
//	CohortAllocationBody  u32 Round | string Algorithm | u32 Iterations |
//	                      strings Replicas | floats UnitMB
//
// RoundSpec and AssignBody lead with their round id per the wire convention
// (transport.BinaryRound). Map entries are written in sorted key order, so a
// body has exactly one byte representation. A zero-length list, map or
// matrix decodes as nil, which is what JSON decodes an absent one to.
//
// Decoders take hostile input: a claimed count is checked against the bytes
// left before anything is allocated for it (a string costs at least 2 bytes,
// a map entry 10, a ReplicaInfo 50), a RoundSpec matrix must have the
// spec's own rows × columns, and paired lists must agree in length.

// minReplicaInfoBytes is the size of a ReplicaInfo with an empty address.
const minReplicaInfoBytes = 2 + 6*8

// writer accumulates a body; the first string the codec cannot carry sticks
// as err and fails the marshal.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u32(v int)     { w.b = transport.AppendUint32(w.b, uint32(v)) }
func (w *writer) f64(v float64) { w.b = transport.AppendFloat64(w.b, v) }

func (w *writer) floats(v []float64) { w.b = transport.AppendFloats(w.b, v) }

func (w *writer) matrix(m [][]float64) { w.b = transport.AppendMatrixKinded(w.b, m, nil) }

func (w *writer) str(s string) {
	if w.err == nil {
		w.b, w.err = transport.AppendString(w.b, s)
	}
}

func (w *writer) strs(v []string) {
	if w.err == nil {
		w.b, w.err = transport.AppendStrings(w.b, v)
	}
}

func (w *writer) floatMap(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.u32(len(keys))
	for _, k := range keys {
		w.str(k)
		w.f64(m[k])
	}
}

func (w *writer) done() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// reader consumes a body; the first failure sticks as err and every later
// read returns a zero value.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: "+format, args...)
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("binary body truncated (want u8)")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() int {
	if r.err != nil {
		return 0
	}
	var v uint32
	v, r.b, r.err = transport.ReadUint32(r.b)
	return int(v)
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	var v float64
	v, r.b, r.err = transport.ReadFloat64(r.b)
	return v
}

func (r *reader) str() string {
	if r.err != nil {
		return ""
	}
	var s string
	s, r.b, r.err = transport.ReadString(r.b)
	return s
}

func (r *reader) strs() []string {
	if r.err != nil {
		return nil
	}
	var v []string
	v, r.b, r.err = transport.ReadStrings(r.b)
	if len(v) == 0 {
		return nil
	}
	return v
}

func (r *reader) floats() []float64 {
	if r.err != nil {
		return nil
	}
	var v []float64
	v, r.b, r.err = transport.ReadFloats(r.b)
	if len(v) == 0 {
		return nil
	}
	return v
}

func (r *reader) floatMap() map[string]float64 {
	n := r.u32()
	if r.err != nil || n == 0 {
		return nil
	}
	if uint64(n)*10 > uint64(len(r.b)) {
		r.fail("binary map claims %d entries, %d bytes left", n, len(r.b))
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		m[k] = r.f64()
	}
	return m
}

// matrix consumes a kinded frame that must be rows × cols or empty (an
// absent matrix; specProblem refuses a spec that needed one). The dims are
// checked before the frame is decoded: a sparse frame allocates by its
// header, not by its length.
func (r *reader) matrix(rows, cols int) [][]float64 {
	if r.err != nil {
		return nil
	}
	// A kinded frame opens u8 kind | u32 rows | u32 cols.
	if len(r.b) < 9 {
		r.fail("binary matrix frame truncated")
		return nil
	}
	gotRows, rest, _ := transport.ReadUint32(r.b[1:])
	gotCols, _, _ := transport.ReadUint32(rest)
	if (gotRows != 0 || gotCols != 0) && (int(gotRows) != rows || int(gotCols) != cols) {
		r.fail("binary matrix is %d×%d, the spec has %d clients × %d replicas", gotRows, gotCols, rows, cols)
		return nil
	}
	var m [][]float64
	m, r.b, r.err = transport.ReadMatrixKinded(r.b, nil)
	if len(m) == 0 {
		return nil
	}
	return m
}

func (b RequestBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 16+len(b.ClientAddr)+32*len(b.LatencySec))}
	w.str(b.ClientAddr)
	w.f64(b.DemandMB)
	w.floatMap(b.LatencySec)
	return w.done()
}

func (b *RequestBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.ClientAddr = r.str()
	b.DemandMB = r.f64()
	b.LatencySec = r.floatMap()
	return r.err
}

func (b RequestAck) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 9)}
	accepted := byte(0)
	if b.Accepted {
		accepted = 1
	}
	w.b = append(w.b, accepted)
	w.u32(b.Pending)
	w.u32(b.Round)
	return w.done()
}

func (b *RequestAck) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Accepted = r.u8() != 0
	b.Pending = r.u32()
	b.Round = r.u32()
	return r.err
}

func (s RoundSpec) MarshalBinary() ([]byte, error) {
	cells := len(s.Demands) * len(s.Replicas)
	if s.Warm != nil {
		cells *= 2
	}
	w := writer{b: make([]byte, 0, 64+64*len(s.Replicas)+32*len(s.ClientAddrs)+8*cells)}
	w.u32(s.Round)
	w.u32(len(s.Replicas))
	for _, info := range s.Replicas {
		w.str(info.Addr)
		w.f64(info.Price)
		w.f64(info.Alpha)
		w.f64(info.Beta)
		w.f64(info.Gamma)
		w.f64(info.Bandwidth)
		w.f64(info.BaseMB)
	}
	w.strs(s.ClientAddrs)
	w.floats(s.Demands)
	w.matrix(s.LatencySec)
	w.f64(s.MaxLatencySec)
	w.u32(s.RawClients)
	w.matrix(s.Warm)
	return w.done()
}

func (s *RoundSpec) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	s.Round = r.u32()
	n := r.u32()
	if r.err == nil && uint64(n)*minReplicaInfoBytes > uint64(len(r.b)) {
		r.fail("binary round spec claims %d replicas, %d bytes left", n, len(r.b))
	}
	s.Replicas = nil
	if r.err == nil && n > 0 {
		s.Replicas = make([]ReplicaInfo, n)
	}
	for j := range s.Replicas {
		s.Replicas[j] = ReplicaInfo{
			Addr:      r.str(),
			Price:     r.f64(),
			Alpha:     r.f64(),
			Beta:      r.f64(),
			Gamma:     r.f64(),
			Bandwidth: r.f64(),
			BaseMB:    r.f64(),
		}
	}
	s.ClientAddrs = r.strs()
	s.Demands = r.floats()
	if r.err == nil && len(s.Demands) != len(s.ClientAddrs) {
		r.fail("binary round spec has %d demands for %d clients", len(s.Demands), len(s.ClientAddrs))
	}
	s.LatencySec = r.matrix(len(s.Demands), len(s.Replicas))
	s.MaxLatencySec = r.f64()
	s.RawClients = r.u32()
	s.Warm = r.matrix(len(s.Demands), len(s.Replicas))
	return r.err
}

func (b AssignBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 32+8*len(b.Column)+24*len(b.ClientAddrs)+32*len(b.Updates))}
	w.u32(b.Round)
	w.u32(b.BaseRound)
	w.floats(b.Column)
	w.strs(b.ClientAddrs)
	w.floatMap(b.Updates)
	return w.done()
}

func (b *AssignBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.BaseRound = r.u32()
	b.Column = r.floats()
	b.ClientAddrs = r.strs()
	if r.err == nil && len(b.Column) != len(b.ClientAddrs) {
		r.fail("binary assign round %d has %d amounts for %d clients", b.Round, len(b.Column), len(b.ClientAddrs))
	}
	b.Updates = r.floatMap()
	return r.err
}

func (b AllocationBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 32+len(b.Algorithm)+32*len(b.PerReplicaMB))}
	w.u32(b.Round)
	w.floatMap(b.PerReplicaMB)
	w.str(b.Algorithm)
	w.u32(b.Iterations)
	return w.done()
}

func (b *AllocationBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.PerReplicaMB = r.floatMap()
	b.Algorithm = r.str()
	b.Iterations = r.u32()
	return r.err
}

func (b CohortAllocationBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 32+len(b.Algorithm)+32*len(b.Replicas))}
	w.u32(b.Round)
	w.str(b.Algorithm)
	w.u32(b.Iterations)
	w.strs(b.Replicas)
	w.floats(b.UnitMB)
	return w.done()
}

func (b *CohortAllocationBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.Algorithm = r.str()
	b.Iterations = r.u32()
	b.Replicas = r.strs()
	b.UnitMB = r.floats()
	if r.err == nil && len(b.UnitMB) != len(b.Replicas) {
		r.fail("binary cohort allocation has %d unit entries for %d replicas", len(b.UnitMB), len(b.Replicas))
	}
	return r.err
}
