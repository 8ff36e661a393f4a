package lddm

import (
	"fmt"

	"edr/internal/transport"
)

// Compact binary codecs for the LDDM verb. Out goes μ over the replica's
// support of m clients; back comes the water-filling's decision over the
// same support, which costs ⌈m/8⌉ bytes plus 12 per partial share instead
// of m floats:
//
//	request: [u32 round] [u32 m] [m × f64 μ]
//	reply:   [u32 m] [⌈m/8⌉ bytes bitmap] [u32 count] [count × (u32 pos, f64 value)]
//
// Request bodies lead with the u32 LE round id per the wire convention.
// Both decoders reject trailing bytes and any reply SolveReply.valid
// refuses, so a decoded body re-encodes to the bytes it came from.

func (b SolveBody) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 8+8*len(b.Mu)))
	w.U32(b.Round)
	w.Floats(b.Mu)
	return w.Done()
}

func (b *SolveBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	round, mu := r.U32(), r.Floats()
	if err := r.Done(); err != nil {
		return err
	}
	b.Round, b.Mu = round, mu
	return nil
}

func (b SolveReply) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 8+len(b.Served)+12*len(b.Pos)))
	w.U32(b.M)
	w.Raw(b.Served)
	w.U32(len(b.Pos))
	for e, p := range b.Pos {
		w.U32(p)
		w.F64(b.Val[e])
	}
	return w.Done()
}

func (b *SolveReply) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	m := r.U32()
	reply := SolveReply{M: m, Served: append([]byte{}, r.Raw((m+7)/8)...)}
	count := r.U32()
	if r.Err() == nil && count*12 != r.Len() {
		r.Fail(fmt.Errorf("lddm: %d partial shares in %d bytes", count, r.Len()))
	}
	if r.Err() == nil && count > 0 {
		reply.Pos, reply.Val = make([]int, count), make([]float64, count)
		for e := range reply.Pos {
			reply.Pos[e], reply.Val[e] = r.U32(), r.F64()
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	if err := reply.valid(); err != nil {
		return fmt.Errorf("lddm: %w", err)
	}
	*b = reply
	return nil
}
