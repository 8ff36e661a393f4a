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
	out := transport.AppendUint32(make([]byte, 0, 8+8*len(b.Mu)), uint32(b.Round))
	return transport.AppendFloats(out, b.Mu), nil
}

func (b *SolveBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	mu, data, err := transport.ReadFloats(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("lddm: %d trailing bytes after the multipliers", len(data))
	}
	b.Round, b.Mu = int(round), mu
	return nil
}

func (b SolveReply) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(make([]byte, 0, 8+len(b.Served)+12*len(b.Pos)), uint32(b.M))
	out = append(out, b.Served...)
	out = transport.AppendUint32(out, uint32(len(b.Pos)))
	for e, p := range b.Pos {
		out = transport.AppendUint32(out, uint32(p))
		out = transport.AppendFloat64(out, b.Val[e])
	}
	return out, nil
}

func (b *SolveReply) UnmarshalBinary(data []byte) error {
	m, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	width := (uint64(m) + 7) / 8
	if width > uint64(len(data)) {
		return fmt.Errorf("lddm: bitmap over %d clients needs %d bytes, %d left", m, width, len(data))
	}
	r := SolveReply{M: int(m), Served: append([]byte{}, data[:width]...)}
	count, data, err := transport.ReadUint32(data[width:])
	if err != nil {
		return err
	}
	if uint64(count)*12 != uint64(len(data)) {
		return fmt.Errorf("lddm: %d partial shares in %d bytes", count, len(data))
	}
	if count > 0 {
		r.Pos, r.Val = make([]int, count), make([]float64, count)
		for e := range r.Pos {
			var p uint32
			p, data, _ = transport.ReadUint32(data)
			r.Pos[e] = int(p)
			r.Val[e], data, _ = transport.ReadFloat64(data)
		}
	}
	if err := r.valid(); err != nil {
		return fmt.Errorf("lddm: %w", err)
	}
	*b = r
	return nil
}
