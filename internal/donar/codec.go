package donar

import (
	"fmt"
	"sort"

	"edr/internal/transport"
)

// Binary codecs for the DONAR runtime's bodies, little-endian, written and
// read with transport.Writer and transport.Reader (string = u16 length +
// bytes, strings = u32 count + strings, floats = u32 count + f64s, shares =
// u32 count + (string, f64) pairs in strictly ascending key order, a map
// keyed by replica address; list = u32 count + elements):
//
//	requestBody      string ClientAddr | f64 DemandMB | shares LatencySec
//	requests         list of requestBody
//	localSolveBody   u32 Epoch | list of (string Addr | f64 BandwidthMBps) |
//	                 floats OtherLoads | requests
//	localSolveReply  list of shares Assignments | floats Loads
//	notifyBody       u32 Epoch | strings ClientAddrs | list of shares
//	                 Allocations, one per client
//	AllocationBody   u32 Epoch | shares PerReplicaMB
//
// An empty map or list decodes as nil, and no decoder takes a byte past the
// body's last field, so a body has one encoding.

// writeShares writes m as a pair list in ascending key order.
func writeShares(w *transport.Writer, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Pairs(len(keys), func(i int) (string, float64) { return keys[i], m[keys[i]] })
}

// share is one entry of a map on the wire.
type share struct {
	key string
	v   float64
}

// readShares consumes what writeShares writes.
func readShares(r *transport.Reader) map[string]float64 {
	pairs := transport.ReadPairs(r, func(key string, v float64) share { return share{key, v} })
	if pairs == nil {
		return nil
	}
	m := make(map[string]float64, len(pairs))
	for _, p := range pairs {
		m[p.key] = p.v
	}
	return m
}

func writeSharesList(w *transport.Writer, v []map[string]float64) {
	w.U32(len(v))
	for _, m := range v {
		writeShares(w, m)
	}
}

// minRequestBytes is the size of a requestBody with an empty address and
// no latencies.
const minRequestBytes = 2 + 8 + 4

func (b requestBody) write(w *transport.Writer) {
	w.Str(b.ClientAddr)
	w.F64(b.DemandMB)
	writeShares(w, b.LatencySec)
}

func readRequest(r *transport.Reader) requestBody {
	return requestBody{ClientAddr: r.Str(), DemandMB: r.F64(), LatencySec: readShares(r)}
}

func (b requestBody) MarshalBinary() ([]byte, error) { return transport.Encode(0, b.write) }

func (b *requestBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *b = readRequest(r) })
}

func (v requests) write(w *transport.Writer) {
	w.U32(len(v))
	for _, b := range v {
		b.write(w)
	}
}

func readRequests(r *transport.Reader) requests {
	return transport.ReadList(r, minRequestBytes, readRequest)
}

func (v requests) MarshalBinary() ([]byte, error) { return transport.Encode(0, v.write) }

func (v *requests) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *v = readRequests(r) })
}

func (b localSolveBody) MarshalBinary() ([]byte, error) {
	return transport.Encode(0, func(w *transport.Writer) {
		w.U32(b.Epoch)
		w.U32(len(b.Replicas))
		for _, rep := range b.Replicas {
			w.Str(rep.Addr)
			w.F64(rep.BandwidthMBps)
		}
		w.Floats(b.OtherLoads)
		b.Requests.write(w)
	})
}

func readReplica(r *transport.Reader) ReplicaSpec {
	return ReplicaSpec{Addr: r.Str(), BandwidthMBps: r.F64()}
}

func (b *localSolveBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) {
		*b = localSolveBody{Epoch: r.U32(), Replicas: transport.ReadList(r, 2+8, readReplica), OtherLoads: r.Floats(), Requests: readRequests(r)}
	})
}

func (b localSolveReply) MarshalBinary() ([]byte, error) {
	return transport.Encode(0, func(w *transport.Writer) {
		writeSharesList(w, b.Assignments)
		w.Floats(b.Loads)
	})
}

func (b *localSolveReply) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) {
		*b = localSolveReply{Assignments: transport.ReadList(r, 4, readShares), Loads: r.Floats()}
	})
}

func (b notifyBody) MarshalBinary() ([]byte, error) {
	return transport.Encode(0, func(w *transport.Writer) {
		w.U32(b.Epoch)
		w.Strs(b.ClientAddrs)
		writeSharesList(w, b.Allocations)
	})
}

func (b *notifyBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) {
		*b = notifyBody{Epoch: r.U32(), ClientAddrs: r.Strs(), Allocations: transport.ReadList(r, 4, readShares)}
		if r.Err() == nil && len(b.Allocations) != len(b.ClientAddrs) {
			r.Fail(fmt.Errorf("donar: %d allocations for %d clients", len(b.Allocations), len(b.ClientAddrs)))
		}
	})
}

func (b AllocationBody) MarshalBinary() ([]byte, error) {
	return transport.Encode(0, func(w *transport.Writer) {
		w.U32(b.Epoch)
		writeShares(w, b.PerReplicaMB)
	})
}

func (b *AllocationBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *b = AllocationBody{Epoch: r.U32(), PerReplicaMB: readShares(r)} })
}
