package lddm

import (
	"fmt"
	"slices"

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

// MarshalBinary encodes the request. A body the initiator built with a
// request buffer (see roundAlg) encodes into that buffer, grown once and
// reused wave after wave: the returned bytes are then valid until the
// next encoding of the same body, which the fabrics allow because Send is
// done with a request's bytes when it returns (transport.Node).
func (b SolveBody) MarshalBinary() ([]byte, error) {
	var buf []byte
	if b.buf != nil {
		buf = (*b.buf)[:0]
	}
	w := transport.NewWriter(slices.Grow(buf, 8+8*len(b.Mu)))
	w.U32(b.Round)
	w.Floats(b.Mu)
	data, err := w.Done()
	if b.buf != nil && err == nil {
		*b.buf = data
	}
	return data, err
}

// UnmarshalBinary decodes a request into b, reusing b.Mu's storage for the
// multipliers when it has the room: the replica decodes every wave into
// the one buffer its round state holds. A refused body leaves b as it was,
// though the storage under b.Mu may have been written.
func (b *SolveBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	round, mu := r.U32(), r.AppendFloats(b.Mu[:0])
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

// UnmarshalBinary decodes a reply into b, reusing the storage under its
// slices as SolveBody's decoder does: the initiator decodes each replica's
// replies into one it keeps. A refused body leaves b's fields as they were.
func (b *SolveReply) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	m := r.U32()
	reply := SolveReply{M: m, Served: append(b.Served[:0], r.Raw((m+7)/8)...), Pos: b.Pos[:0], Val: b.Val[:0]}
	count := r.U32()
	if r.Err() == nil && count*12 != r.Len() {
		r.Fail(fmt.Errorf("lddm: %d partial shares in %d bytes", count, r.Len()))
	}
	for e := 0; r.Err() == nil && e < count; e++ {
		reply.Pos, reply.Val = append(reply.Pos, r.U32()), append(reply.Val, r.F64())
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
