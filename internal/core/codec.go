package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"edr/internal/transport"
)

// Binary codecs for the runtime-owned bodies on a round's path: what a
// client submits and is told (client.request and its ack, client.allocation,
// client.allocation.cohort and the pull reply) and what the initiator
// installs on the replicas (round.start, replica.assign). They are paid once
// per client or per replica every round, so they are binary like the
// iteration verbs; replica.info, the pull request, membership, ring and
// download bodies are JSON. A body's type is its only codec
// (transport.DecodeBody): a JSON body sent to one of these verbs is refused.
//
// Layouts, all little-endian, built from the transport primitives (string =
// u16 length + bytes, strings = u32 count + strings, floats = u32 count +
// f64s, pairs = u32 count + (string, f64) pairs whose keys strictly ascend,
// bitmap = u32 byte count + ⌈k/8⌉ bytes over k cells whose bit i, bit i%8 of
// byte i/8, is cell i, no bit set at or past k):
//
//	RequestBody     u32 Handle | f64 DemandMB                     (Handle ≠ 0)
//	                u32 0 | string ClientAddr | f64 DemandMB | pairs LatencySec
//	RequestAck      u32 Round | f64 QueuedMB | u32 Handle
//	RoundSpec       u32 Round | u32 n, n × (string Addr | f64 Price Alpha
//	                Beta Gamma Bandwidth BaseMB) | strings ClientAddrs |
//	                floats Demands | bitmap Feasible (|C|·|N| cells, cell
//	                k = (k/|N|, k%|N|))
//	AssignBody      u32 Round | u32 BaseRound | pairs Updates
//	AllocationBody  u32 Round | string Algorithm | u32 Iterations |
//	                u64 Roster | strings Replicas | bitmap Columns (one
//	                cell per roster entry) | floats Values
//
// RoundSpec and AssignBody lead with their round id per the wire convention
// (transport.BinaryRound). A pair list is written in ascending key order and
// a list out of order, or with a key twice, is refused both ways: the
// request's latencies and the delta's updates are Go slices kept in that
// order from the client to the replica's plan.
//
// A request comes in one of two forms: the full form (Handle 0, a non-empty
// address and the list) or the handle form, which names the client and its
// stored list by the handle its contact acked, 12 bytes in all. One that
// mixes them, or a full form with no address, is refused both ways.
//
// Both push verbs carry the AllocationBody layout: client.allocation's
// values are MB, client.allocation.cohort's the cohort's unit shares.
// Roster is rosterHash of the round's replicas. The full form lists them,
// ascending and hashing to Roster; the short form lists none (count 0) and
// names the roster by Roster alone, which its receiver resolves against the
// roster it was last sent in full (decodePush). Roster 0 names the empty
// roster, which needs no listing. Columns mark the replicas that carry a
// value and Values holds one per marked column, each finite and positive; a
// value of 0 is no column. The pull reply is always the full form.
//
// A body has exactly one byte representation. A zero-length list or mask
// decodes as nil, which is what JSON decodes an absent one to. A decoded
// list's strings share one allocation.
//
// Decoders take hostile input: a claimed count is checked against the bytes
// left before anything is allocated for it (a string costs at least 2 bytes,
// a pair 10, a ReplicaInfo 50, a value 8), a RoundSpec mask must fit the
// spec's own clients × replicas, a push's columns its roster, paired lists
// must agree in length, and a request, a round spec and a push refuse any
// byte past their last field.

// minReplicaInfoBytes is the size of a ReplicaInfo with an empty address.
const minReplicaInfoBytes = 2 + 6*8

// writer accumulates a body; the first string the codec cannot carry sticks
// as err and fails the marshal.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u32(v int)     { w.b = transport.AppendUint32(w.b, uint32(v)) }
func (w *writer) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) f64(v float64) { w.b = transport.AppendFloat64(w.b, v) }

func (w *writer) floats(v []float64) { w.b = transport.AppendFloats(w.b, v) }

// bitmap writes the header of a bitmap of cells bits and returns its
// bytes, all clear, for the caller to set bits in.
func (w *writer) bitmap(cells int) []byte {
	width := (cells + 7) / 8
	w.u32(width)
	w.b = append(w.b, make([]byte, width)...)
	return w.b[len(w.b)-width:]
}

// mask writes m, which must have rows × cols cells, as a bitmap.
func (w *writer) mask(m [][]bool, rows, cols int) {
	bm, k := w.bitmap(rows*cols), 0
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

func (r *reader) u64() uint64 {
	if r.err == nil && len(r.b) < 8 {
		r.fail("binary body truncated (want u64, %d bytes left)", len(r.b))
	}
	if r.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
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

// intern consumes a string, returning held itself when the bytes spell
// it, so a name every push repeats costs no allocation.
func (r *reader) intern(held string) string {
	if r.err != nil {
		return ""
	}
	if len(r.b) >= 2 {
		if n := int(binary.LittleEndian.Uint16(r.b)); n <= len(r.b)-2 && string(r.b[2:2+n]) == held {
			r.b = r.b[2+n:]
			return held
		}
	}
	return r.str()
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

// bitmap consumes a bitmap of cells bits written by writer.bitmap and
// returns its bytes (nil when it has no cells); what names it in a refusal.
// The width must be exactly ⌈cells/8⌉ and no bit may be set past the last
// cell, so a bitmap has one encoding.
func (r *reader) bitmap(cells int, what string) []byte {
	width := (cells + 7) / 8
	if got := r.u32(); r.err == nil && (got != width || got > len(r.b)) {
		r.fail("%s of %d bytes (%d left) for %d cells, which take %d", what, got, len(r.b), cells, width)
	}
	if r.err != nil || cells == 0 {
		return nil
	}
	bm := r.b[:width]
	if r.b = r.b[width:]; bm[width-1]>>((cells-1)%8+1) != 0 {
		r.fail("%s sets bits past its %d cells", what, cells)
		return nil
	}
	return bm
}

// mask consumes a rows × cols bitmap written by writer.mask and returns the
// mask (nil when it has no cells) with its count of set bits.
func (r *reader) mask(rows, cols int) ([][]bool, int) {
	bm := r.bitmap(rows*cols, "feasibility bitmap")
	if bm == nil {
		return nil, 0
	}
	m, all, nnz := make([][]bool, rows), make([]bool, rows*cols), 0
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
	if b.Handle != 0 {
		if b.ClientAddr != "" || len(b.LatencySec) > 0 {
			return nil, bothForms(b.Handle, b.ClientAddr, len(b.LatencySec))
		}
		w := writer{b: make([]byte, 0, 12)}
		w.u32(int(b.Handle))
		w.f64(b.DemandMB)
		return w.done()
	}
	w := writer{b: make([]byte, 0, 20+len(b.ClientAddr)+32*len(b.LatencySec))}
	if b.ClientAddr == "" {
		w.err = errNoClient
	}
	w.u32(0)
	w.str(b.ClientAddr)
	w.f64(b.DemandMB)
	w.pairs(len(b.LatencySec), func(i int) (string, float64) { return b.LatencySec[i].Replica, b.LatencySec[i].Sec })
	return w.done()
}

func (b *RequestBody) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	*b = RequestBody{Handle: uint32(r.u32())}
	if b.Handle != 0 {
		b.DemandMB = r.f64()
	} else {
		if b.ClientAddr = r.str(); r.err == nil && b.ClientAddr == "" {
			r.err = errNoClient
		}
		b.DemandMB = r.f64()
		b.LatencySec = readPairs(&r, func(addr string, sec float64) Latency { return Latency{addr, sec} })
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("request has %d trailing bytes", len(r.b))
	}
	return r.err
}

// errNoClient refuses a full-form request with no client address: the
// handle form is the one that leaves it out.
var errNoClient = errors.New("core: full-form request names no client")

// bothForms refuses a request that names its client twice: by handle and
// by address or latency list.
func bothForms(handle uint32, client string, n int) error {
	return fmt.Errorf("core: request carries handle %d with client %q and %d latencies", handle, client, n)
}

func (b RequestAck) MarshalBinary() ([]byte, error) {
	w := writer{b: make([]byte, 0, 16)}
	w.u32(b.Round)
	w.f64(b.QueuedMB)
	w.u32(int(b.Handle))
	return w.done()
}

func (b *RequestAck) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	b.Round = r.u32()
	b.QueuedMB = r.f64()
	b.Handle = uint32(r.u32())
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

// rosterHash names a roster on the push path: FNV-1a over each address
// and its u16 length, in column order, so that every initiator names a
// roster the same way and none keeps a counter. The empty roster hashes to
// 0 and no other roster does.
func rosterHash(roster []string) uint64 {
	if len(roster) == 0 {
		return 0
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, addr := range roster {
		h = (h ^ uint64(len(addr)&0xff)) * prime
		h = (h ^ uint64(len(addr)>>8)) * prime
		for i := 0; i < len(addr); i++ {
			h = (h ^ uint64(addr[i])) * prime
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// rosterOrder refuses a roster whose addresses do not strictly ascend,
// the column order every round writes its roster in.
func rosterOrder(roster []string) error {
	for j := 1; j < len(roster); j++ {
		if roster[j] <= roster[j-1] {
			return fmt.Errorf("core: allocation roster %q at %d does not ascend past %q", roster[j], j, roster[j-1])
		}
	}
	return nil
}

// pushHeader is what the pushes of one round share: all of the
// AllocationBody layout but the form and the values.
type pushHeader struct {
	round      int
	algorithm  string
	iterations int
	roster     []string
	hash       uint64 // rosterHash(roster)
}

// marshal writes one push over the header's roster, in full or in the
// short form. vals is dense over the roster: a value ≤ 0 travels as no
// column, and one that is NaN or infinite fails the marshal.
func (h *pushHeader) marshal(vals []float64, full bool) ([]byte, error) {
	if len(vals) != len(h.roster) {
		return nil, fmt.Errorf("core: allocation round %d has %d values for %d replicas", h.round, len(vals), len(h.roster))
	}
	size := 36 + len(h.algorithm) + 12*len(vals)
	if full {
		size += 16 * len(h.roster)
	}
	w := writer{b: make([]byte, 0, size)}
	w.u32(h.round)
	w.str(h.algorithm)
	w.u32(h.iterations)
	w.u64(h.hash)
	if full {
		w.strs(h.roster)
	} else {
		w.u32(0)
	}
	bm, set := w.bitmap(len(vals)), 0
	for j, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: allocation round %d carries %g MB for %q", h.round, v, h.roster[j])
		}
		if v > 0 {
			bm[j>>3] |= 1 << (j & 7)
			set++
		}
	}
	w.u32(set)
	for _, v := range vals {
		if v > 0 {
			w.f64(v)
		}
	}
	return w.done()
}

// heldRoster is what a push receiver keeps between pushes: the roster the
// last full form listed, with its hash, and the last algorithm name.
type heldRoster struct {
	replicas  []string
	hash      uint64
	algorithm string
}

// decodePush decodes a body in the AllocationBody layout against the
// roster its receiver holds, and updates held to what the body carried.
// A short form naming a roster other than held's is a miss: miss is set,
// the body is not decoded past its roster, and held is left alone. A full
// form's roster must ascend strictly and hash to the Roster it names. On a
// known roster the body's Replicas is held's own slice, and decoding
// allocates PerReplicaMB alone.
func decodePush(data []byte, held *heldRoster) (b AllocationBody, miss bool, err error) {
	r := reader{b: data}
	b.Round = r.u32()
	b.Algorithm = r.intern(held.algorithm)
	b.Iterations = r.u32()
	hash := r.u64()
	full := r.err == nil && !(len(r.b) >= 4 && binary.LittleEndian.Uint32(r.b) == 0)
	if full {
		if b.Replicas = r.strs(); r.err == nil {
			r.err = rosterOrder(b.Replicas)
		}
		if r.err == nil && rosterHash(b.Replicas) != hash {
			r.fail("allocation roster hash %016x does not name its %d replicas", hash, len(b.Replicas))
		}
	} else if r.err == nil {
		r.b = r.b[4:]
		switch hash {
		case 0:
		case held.hash:
			b.Replicas = held.replicas
		default:
			return AllocationBody{}, true, nil
		}
	}
	n := len(b.Replicas)
	bm := r.bitmap(n, "column bitmap")
	set := 0
	for _, x := range bm {
		set += bits.OnesCount8(x)
	}
	if got := r.u32(); r.err == nil && (got != set || uint64(got)*8 > uint64(len(r.b))) {
		r.fail("allocation has %d values (%d bytes left) for %d columns", got, len(r.b), set)
	}
	if r.err == nil && n > 0 {
		b.PerReplicaMB = make([]float64, n)
		for j := 0; j < n && r.err == nil; j++ {
			if bm[j>>3]&(1<<(j&7)) == 0 {
				continue
			}
			if v := r.f64(); v > 0 && !math.IsInf(v, 1) {
				b.PerReplicaMB[j] = v
			} else {
				r.fail("allocation carries %g for %q, which is not finite and positive", v, b.Replicas[j])
			}
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("allocation has %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return AllocationBody{}, false, r.err
	}
	if full {
		held.replicas, held.hash = b.Replicas, hash
	}
	held.algorithm = b.Algorithm
	return b, false, nil
}

// MarshalBinary writes the body's full form: a pull reply, or a push to a
// receiver that may not hold the roster.
func (b AllocationBody) MarshalBinary() ([]byte, error) {
	if err := rosterOrder(b.Replicas); err != nil {
		return nil, err
	}
	h := pushHeader{round: b.Round, algorithm: b.Algorithm, iterations: b.Iterations, roster: b.Replicas, hash: rosterHash(b.Replicas)}
	return h.marshal(b.PerReplicaMB, true)
}

// UnmarshalBinary decodes a full form; a short form names a roster no
// fresh decoder holds and is refused.
func (b *AllocationBody) UnmarshalBinary(data []byte) error {
	body, miss, err := decodePush(data, &heldRoster{})
	if err == nil && miss {
		err = fmt.Errorf("core: allocation names a roster it does not list")
	}
	*b = body
	return err
}
