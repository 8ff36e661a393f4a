package core

import (
	"fmt"
	"math"
	"slices"

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
// f64s, pairs = u32 count + (string, f64) pairs whose keys strictly ascend,
// bitmap = u32 byte count + ⌈|C|·|N|/8⌉ bytes whose bit k, bit k%8 of byte
// k/8, is mask cell (k/|N|, k%|N|), no bit set at or past |C|·|N|):
//
//	RequestBody           string ClientAddr | f64 DemandMB | u32 LatencyVersion |
//	                      pairs LatencySec
//	RequestAck            u32 Round | f64 QueuedMB | u32 LatencyVersion
//	RoundSpec             u32 Round | u32 n, n × (string Addr | f64 Price Alpha
//	                      Beta Gamma Bandwidth BaseMB) | strings ClientAddrs |
//	                      floats Demands | bitmap Feasible | floats Warm
//	AssignBody            u32 Round | u32 BaseRound | pairs Updates
//	AllocationBody        u32 Round | pairs PerReplicaMB | string Algorithm |
//	                      u32 Iterations
//	CohortAllocationBody  u32 Round | string Algorithm | u32 Iterations |
//	                      strings Replicas | floats UnitMB
//
// RoundSpec and AssignBody lead with their round id per the wire convention
// (transport.BinaryRound). A pair list is written in ascending key order and
// a list out of order, or with a key twice, is refused both ways: the
// request's latencies and the delta's updates are Go slices kept in that
// order from the client to the replica's plan, and a map (PerReplicaMB) is
// sorted on its way out. A request names its latencies one way: in full
// (LatencyVersion 0 and the list) or by the version its contact acked for
// that list (and no pairs); one with both is refused both ways. A body has
// exactly one byte representation. A zero-length list or mask decodes as
// nil, which is what JSON decodes an absent one to. A decoded list's
// strings share one allocation.
//
// Decoders take hostile input: a claimed count is checked against the bytes
// left before anything is allocated for it (a string costs at least 2 bytes,
// a pair 10, a ReplicaInfo 50), a RoundSpec mask must fit the spec's own
// clients × replicas and its warm seed be one finite, non-negative value
// per set bit, and paired lists must agree in length.

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

// mask writes m, which must have rows × cols cells, as a bitmap.
func (w *writer) mask(m [][]bool, rows, cols int) {
	width := (rows*cols + 7) / 8
	w.u32(width)
	w.b = append(w.b, make([]byte, width)...)
	bm, k := w.b[len(w.b)-width:], 0
	for _, row := range m {
		for _, ok := range row {
			if ok && k < rows*cols {
				bm[k>>3] |= 1 << (k & 7)
			}
			k++
		}
	}
	if k != rows*cols && w.err == nil {
		w.err = fmt.Errorf("core: feasibility mask has %d cells for %d clients × %d replicas", k, rows, cols)
	}
}

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

// pairs writes a pair list; keys that do not strictly ascend fail the
// marshal (transport.AppendPairs).
func (w *writer) pairs(n int, pair func(i int) (string, float64)) {
	if w.err == nil {
		w.b, w.err = transport.AppendPairs(w.b, n, pair)
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

// readPairs consumes a pair list (transport.ReadPairs): keys strictly
// ascending, an empty list read as nil.
func readPairs[T any](r *reader, pair func(key string, v float64) T) []T {
	if r.err != nil {
		return nil
	}
	var v []T
	v, r.b, r.err = transport.ReadPairs(r.b, pair)
	return v
}

// mask consumes a rows × cols bitmap written by writer.mask and returns the
// mask (nil when it has no cells) with its count of set bits. The width
// must be exactly ⌈rows·cols/8⌉ and no bit may be set past the last cell,
// so a mask has one encoding.
func (r *reader) mask(rows, cols int) ([][]bool, int) {
	cells := rows * cols
	width := (cells + 7) / 8
	if got := r.u32(); r.err == nil && (got != width || got > len(r.b)) {
		r.fail("feasibility bitmap of %d bytes (%d left) for %d clients × %d replicas, which take %d", got, len(r.b), rows, cols, width)
	}
	if r.err != nil || cells == 0 {
		return nil, 0
	}
	bm := r.b[:width]
	if r.b = r.b[width:]; bm[width-1]>>((cells-1)%8+1) != 0 {
		r.fail("feasibility bitmap sets bits past its %d cells", cells)
		return nil, 0
	}
	m, all, nnz := make([][]bool, rows), make([]bool, cells), 0
	for k := range all {
		if all[k] = bm[k>>3]&(1<<(k&7)) != 0; all[k] {
			nnz++
		}
	}
	for c := range m {
		m[c], all = all[:cols:cols], all[cols:]
	}
	return m, nnz
}

func (b RequestBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 20+len(b.ClientAddr)+32*len(b.LatencySec))}
	if b.LatencyVersion != 0 && len(b.LatencySec) > 0 {
		w.err = bothEncodings(b.ClientAddr, b.LatencyVersion, len(b.LatencySec))
	}
	w.str(b.ClientAddr)
	w.f64(b.DemandMB)
	w.u32(int(b.LatencyVersion))
	w.pairs(len(b.LatencySec), func(i int) (string, float64) { return b.LatencySec[i].Replica, b.LatencySec[i].Sec })
	return w.done()
}

func (b *RequestBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.ClientAddr = r.str()
	b.DemandMB = r.f64()
	b.LatencyVersion = uint32(r.u32())
	b.LatencySec = readPairs(&r, func(addr string, sec float64) Latency { return Latency{addr, sec} })
	if r.err == nil && b.LatencyVersion != 0 && b.LatencySec != nil {
		r.err = bothEncodings(b.ClientAddr, b.LatencyVersion, len(b.LatencySec))
	}
	return r.err
}

// bothEncodings refuses a request that names its latencies twice: by
// version and as a list.
func bothEncodings(client string, version uint32, n int) error {
	return fmt.Errorf("core: request from %s carries latency version %d and %d latencies", client, version, n)
}

func (b RequestAck) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 16)}
	w.u32(b.Round)
	w.f64(b.QueuedMB)
	w.u32(int(b.LatencyVersion))
	return w.done()
}

func (b *RequestAck) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.QueuedMB = r.f64()
	b.LatencyVersion = uint32(r.u32())
	return r.err
}

func (s RoundSpec) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 64+64*len(s.Replicas)+32*len(s.ClientAddrs)+len(s.Demands)*len(s.Replicas)/8)}
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
	w.mask(s.Feasible, len(s.Demands), len(s.Replicas))
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
	s.Feasible, _ = r.mask(len(s.Demands), len(s.Replicas))
	if r.err == nil && len(r.b) != 0 {
		r.fail("round spec has %d trailing bytes after the feasibility bitmap", len(r.b))
	}
	return r.err
}

func (b AssignBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 16+32*len(b.Updates)), err: b.check()}
	w.u32(b.Round)
	w.u32(b.BaseRound)
	w.pairs(len(b.Updates), func(i int) (string, float64) { return b.Updates[i].Client, b.Updates[i].MB })
	return w.done()
}

func (b *AssignBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.BaseRound = r.u32()
	b.Updates = readPairs(&r, func(addr string, mb float64) ClientMB { return ClientMB{addr, mb} })
	if r.err == nil {
		r.err = b.check()
	}
	return r.err
}

// check refuses an update no install could apply: a non-finite MB, or a
// full install's (BaseRound 0) entry that is not positive, since the empty
// plan has nothing to remove.
func (b AssignBody) check() error {
	for _, u := range b.Updates {
		if math.IsNaN(u.MB) || math.IsInf(u.MB, 0) || (b.BaseRound == 0 && !(u.MB > 0)) {
			return fmt.Errorf("core: assign round %d (base %d) carries %g MB for %q", b.Round, b.BaseRound, u.MB, u.Client)
		}
	}
	return nil
}

func (b AllocationBody) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 32+len(b.Algorithm)+32*len(b.PerReplicaMB))}
	addrs := make([]string, 0, len(b.PerReplicaMB))
	for addr := range b.PerReplicaMB {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	w.u32(b.Round)
	w.pairs(len(addrs), func(i int) (string, float64) { return addrs[i], b.PerReplicaMB[addrs[i]] })
	w.str(b.Algorithm)
	w.u32(b.Iterations)
	return w.done()
}

func (b *AllocationBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.PerReplicaMB = nil
	type share struct {
		addr string
		mb   float64
	}
	if per := readPairs(&r, func(addr string, mb float64) share { return share{addr, mb} }); per != nil {
		b.PerReplicaMB = make(map[string]float64, len(per))
		for _, s := range per {
			b.PerReplicaMB[s.addr] = s.mb
		}
	}
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
