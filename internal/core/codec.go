package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"edr/internal/transport"
)

// Binary codecs for the runtime-owned bodies: what a client submits and is
// told (client.request and its ack, client.allocation,
// client.allocation.cohort, the pull and its reply), what the initiator
// gathers from and installs on the replicas (replica.info's answer,
// round.start, replica.assign) and what a download asks for. The download's
// reply is the payload's bytes, with no header.
//
// Layouts, all little-endian, written and read with transport.Writer and
// transport.Reader (string = u16 length + bytes, strings = u32 count +
// strings, floats = u32 count + f64s, pairs = u32 count + (string, f64)
// pairs whose keys strictly ascend, bitmap = u32 byte count + ⌈k/8⌉ bytes
// over k cells whose bit i, bit i%8 of byte i/8, is cell i, no bit set at
// or past k):
//
//	RequestBody     u32 Handle | f64 DemandMB                     (Handle ≠ 0)
//	                u32 0 | string ClientAddr | f64 DemandMB | pairs LatencySec
//	RequestAck      u32 Round | f64 QueuedMB | u32 Handle
//	WithdrawBody    u32 Handle                                    (Handle ≠ 0)
//	ReplicaInfo     string Addr | f64 Price Alpha Beta Gamma Bandwidth BaseMB
//	RoundSpec       u32 Round | u32 n, n × ReplicaInfo | strings ClientAddrs |
//	                floats Demands | bitmap Feasible (|C|·|N| cells, cell
//	                k = (k/|N|, k%|N|))
//	AssignBody      u32 Round | u32 BaseRound | pairs Updates
//	AllocationBody  u32 Round | string Algorithm | u32 Iterations |
//	                u64 Roster | strings Replicas | bitmap Columns (one
//	                cell per roster entry) | floats Values
//	PullBody        string ClientAddr
//	DownloadBody    u32 Round | f64 SizeMB
//
// RoundSpec and AssignBody lead with their round id per the wire convention
// (transport.BinaryRound). A pair list is written in ascending key order and
// a list out of order, or with a key twice, is refused both ways: the
// request's latencies are a Go slice kept in that order, and an install's
// updates stay in their wire bytes, in that order, from the initiator's
// result rows to the replica's plan.
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
// decodes as nil. A decoded list's strings share one allocation.
//
// Decoders take hostile input: a claimed count is checked against the bytes
// left before anything is allocated for it (a string costs at least 2 bytes,
// a pair 10, a ReplicaInfo 50, a value 8), a RoundSpec mask must fit the
// spec's own clients × replicas, a push's columns its roster, paired lists
// must agree in length, and no body may carry a byte past its last field.

// minReplicaInfoBytes is the size of a ReplicaInfo with an empty address.
const minReplicaInfoBytes = 2 + 6*8

// writeInfo writes one replica's parameters: replica.info's answer, and
// each entry of a round spec's roster.
func writeInfo(w *transport.Writer, info ReplicaInfo) {
	w.Str(info.Addr)
	w.F64(info.Price)
	w.F64(info.Alpha)
	w.F64(info.Beta)
	w.F64(info.Gamma)
	w.F64(info.Bandwidth)
	w.F64(info.BaseMB)
}

// readInfo consumes what writeInfo writes.
func readInfo(r *transport.Reader) ReplicaInfo {
	return ReplicaInfo{
		Addr:      r.Str(),
		Price:     r.F64(),
		Alpha:     r.F64(),
		Beta:      r.F64(),
		Gamma:     r.F64(),
		Bandwidth: r.F64(),
		BaseMB:    r.F64(),
	}
}

func (info ReplicaInfo) MarshalBinary() ([]byte, error) {
	return transport.Encode(minReplicaInfoBytes+len(info.Addr), func(w *transport.Writer) { writeInfo(w, info) })
}

func (info *ReplicaInfo) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *info = readInfo(r) })
}

func (b PullBody) MarshalBinary() ([]byte, error) {
	return transport.Encode(2+len(b.ClientAddr), func(w *transport.Writer) { w.Str(b.ClientAddr) })
}

func (b *PullBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { b.ClientAddr = r.Str() })
}

func (b DownloadBody) MarshalBinary() ([]byte, error) {
	return transport.Encode(12, func(w *transport.Writer) {
		w.U32(b.Round)
		w.F64(b.SizeMB)
	})
}

func (b *DownloadBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *b = DownloadBody{Round: r.U32(), SizeMB: r.F64()} })
}

// writeMask writes m, which must have rows × cols cells, as a bitmap.
func writeMask(w *transport.Writer, m [][]bool, rows, cols int) {
	bm, k := w.Bitmap(rows*cols), 0
	for _, row := range m {
		for _, ok := range row {
			if ok && k < rows*cols {
				bm[k>>3] |= 1 << (k & 7)
			}
			k++
		}
	}
	if k != rows*cols {
		w.Fail(fmt.Errorf("core: feasibility mask has %d cells for %d clients × %d replicas", k, rows, cols))
	}
}

// readMask consumes a rows × cols bitmap written by writeMask and returns
// the mask (nil when it has no cells).
func readMask(r *transport.Reader, rows, cols int) [][]bool {
	bm := r.Bitmap(rows*cols, "feasibility bitmap")
	if bm == nil {
		return nil
	}
	m, all := make([][]bool, rows), make([]bool, rows*cols)
	for k := range all {
		all[k] = bm[k>>3]&(1<<(k&7)) != 0
	}
	for c := range m {
		m[c], all = all[:cols:cols], all[cols:]
	}
	return m
}

func (b RequestBody) MarshalBinary() ([]byte, error) {
	if b.Handle != 0 {
		if b.ClientAddr != "" || len(b.LatencySec) > 0 {
			return nil, bothForms(b.Handle, b.ClientAddr, len(b.LatencySec))
		}
		w := transport.NewWriter(make([]byte, 0, 12))
		w.U32(int(b.Handle))
		w.F64(b.DemandMB)
		return w.Done()
	}
	w := transport.NewWriter(make([]byte, 0, 20+len(b.ClientAddr)+32*len(b.LatencySec)))
	if b.ClientAddr == "" {
		w.Fail(errNoClient)
	}
	w.U32(0)
	w.Str(b.ClientAddr)
	w.F64(b.DemandMB)
	w.Pairs(len(b.LatencySec), func(i int) (string, float64) { return b.LatencySec[i].Replica, b.LatencySec[i].Sec })
	return w.Done()
}

func (b *RequestBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	*b = RequestBody{Handle: uint32(r.U32())}
	if b.Handle != 0 {
		b.DemandMB = r.F64()
	} else {
		if b.ClientAddr = r.Str(); r.Err() == nil && b.ClientAddr == "" {
			r.Fail(errNoClient)
		}
		b.DemandMB = r.F64()
		b.LatencySec = transport.ReadPairs(&r, func(addr string, sec float64) Latency { return Latency{addr, sec} })
	}
	return r.Done()
}

// errNoClient refuses a full-form request with no client address: the
// handle form is the one that leaves it out.
var errNoClient = errors.New("core: full-form request names no client")

// bothForms refuses a request that names its client twice: by handle and
// by address or latency list.
func bothForms(handle uint32, client string, n int) error {
	return fmt.Errorf("core: request carries handle %d with client %q and %d latencies", handle, client, n)
}

func (b WithdrawBody) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 4))
	if b.Handle == 0 {
		w.Fail(errNoHandle)
	}
	w.U32(int(b.Handle))
	return w.Done()
}

func (b *WithdrawBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	if b.Handle = uint32(r.U32()); r.Err() == nil && b.Handle == 0 {
		r.Fail(errNoHandle)
	}
	return r.Done()
}

// errNoHandle refuses a withdrawal naming handle 0, which no contact
// issues.
var errNoHandle = errors.New("core: withdrawal names no handle")

func (b RequestAck) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 16))
	w.U32(b.Round)
	w.F64(b.QueuedMB)
	w.U32(int(b.Handle))
	return w.Done()
}

func (b *RequestAck) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	b.Round = r.U32()
	b.QueuedMB = r.F64()
	b.Handle = uint32(r.U32())
	return r.Done()
}

func (s RoundSpec) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 64+64*len(s.Replicas)+32*len(s.ClientAddrs)+len(s.Demands)*len(s.Replicas)/8))
	w.U32(s.Round)
	w.U32(len(s.Replicas))
	for _, info := range s.Replicas {
		writeInfo(&w, info)
	}
	w.Strs(s.ClientAddrs)
	w.Floats(s.Demands)
	writeMask(&w, s.Feasible, len(s.Demands), len(s.Replicas))
	return w.Done()
}

func (s *RoundSpec) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	s.Round = r.U32()
	s.Replicas = transport.ReadList(&r, minReplicaInfoBytes, readInfo)
	s.ClientAddrs = r.Strs()
	s.Demands = r.Floats()
	if r.Err() == nil && len(s.Demands) != len(s.ClientAddrs) {
		r.Fail(fmt.Errorf("core: binary round spec has %d demands for %d clients", len(s.Demands), len(s.ClientAddrs)))
	}
	s.Feasible = readMask(&r, len(s.Demands), len(s.Replicas))
	return r.Done()
}

func (b AssignBody) MarshalBinary() ([]byte, error) {
	return checkAssign(transport.Encode(12+len(b.Updates), func(w *transport.Writer) {
		w.U32(b.Round)
		w.U32(b.BaseRound)
		w.U32(b.Updates.Len()) // -1, a count the decoder refuses, when not whole entries
		w.Raw(b.Updates)
	}))
}

func (b *AssignBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	b.Round = r.U32()
	b.BaseRound = r.U32()
	_, b.Updates = r.PairBytes()
	if err := r.Done(); err != nil {
		return err
	}
	// Refuse an update no install could apply: a non-finite MB, or against
	// the empty plan (base 0), which has nothing to remove, one that is not
	// positive.
	for off := 0; off < len(b.Updates); {
		addr, mb, next := b.Updates.At(off)
		if math.IsNaN(mb) || math.IsInf(mb, 0) || (b.BaseRound == 0 && !(mb > 0)) {
			return fmt.Errorf("core: assign round %d (base %d) carries %g MB for %q", b.Round, b.BaseRound, mb, addr)
		}
		off = next
	}
	return nil
}

// checkAssign passes a replica.assign body just written only if its decoder
// takes it, so a writer refuses what the decoder refuses: keys that do not
// strictly ascend, and an update no install applies.
func checkAssign(body []byte, err error) ([]byte, error) {
	if err == nil {
		var b AssignBody
		err = b.UnmarshalBinary(body)
	}
	if err != nil {
		return nil, err
	}
	return body, nil
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
	w := transport.NewWriter(make([]byte, 0, size))
	w.U32(h.round)
	w.Str(h.algorithm)
	w.U32(h.iterations)
	w.U64(h.hash)
	if full {
		w.Strs(h.roster)
	} else {
		w.U32(0)
	}
	bm, set := w.Bitmap(len(vals)), 0
	for j, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: allocation round %d carries %g MB for %q", h.round, v, h.roster[j])
		}
		if v > 0 {
			bm[j>>3] |= 1 << (j & 7)
			set++
		}
	}
	w.U32(set)
	for _, v := range vals {
		if v > 0 {
			w.F64(v)
		}
	}
	return w.Done()
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
	r := transport.NewReader(data)
	b.Round = r.U32()
	b.Algorithm = r.Intern(held.algorithm)
	b.Iterations = r.U32()
	hash := r.U64()
	// A roster count of 0 is the short form, and the empty roster's full
	// form, which are the same bytes; any other count is read again as the
	// head of the listed roster.
	listed := r
	full := r.U32() != 0
	if full {
		r = listed
		if b.Replicas = r.Strs(); r.Err() == nil {
			r.Fail(rosterOrder(b.Replicas))
		}
		if r.Err() == nil && rosterHash(b.Replicas) != hash {
			r.Fail(fmt.Errorf("core: allocation roster hash %016x does not name its %d replicas", hash, len(b.Replicas)))
		}
	} else if r.Err() == nil {
		switch hash {
		case 0:
		case held.hash:
			b.Replicas = held.replicas
		default:
			return AllocationBody{}, true, nil
		}
	}
	n := len(b.Replicas)
	bm := r.Bitmap(n, "column bitmap")
	set := 0
	for _, x := range bm {
		set += bits.OnesCount8(x)
	}
	if got := r.U32(); r.Err() == nil && (got != set || uint64(got)*8 > uint64(r.Len())) {
		r.Fail(fmt.Errorf("core: allocation has %d values (%d bytes left) for %d columns", got, r.Len(), set))
	}
	if r.Err() == nil && n > 0 {
		b.PerReplicaMB = make([]float64, n)
		for j := 0; j < n && r.Err() == nil; j++ {
			if bm[j>>3]&(1<<(j&7)) == 0 {
				continue
			}
			if v := r.F64(); v > 0 && !math.IsInf(v, 1) {
				b.PerReplicaMB[j] = v
			} else {
				r.Fail(fmt.Errorf("core: allocation carries %g for %q, which is not finite and positive", v, b.Replicas[j]))
			}
		}
	}
	if err := r.Done(); err != nil {
		return AllocationBody{}, false, err
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
