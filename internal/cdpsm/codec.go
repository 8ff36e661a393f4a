package cdpsm

import (
	"fmt"

	"edr/internal/transport"
)

// Compact binary codecs (transport binary body v1) for the CDPSM step.
// Both bodies carry a vector of nnz floats packed over the round's support,
// the round's dominant traffic:
//
//	step:     [u32 round] [f64 step] [u32 nnz] [nnz × f64 mean]
//	step ack: [u32 nnz] [nnz × f64 estimate]
//
// Per the wire convention, the request body leads with its u32 LE round
// id. Both decoders refuse trailing bytes, so a decoded body re-encodes to
// the bytes it came from.

func (b StepBody) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(make([]byte, 0, 16+8*len(b.Mean)), uint32(b.Round))
	out = transport.AppendFloat64(out, b.Step)
	return transport.AppendFloats(out, b.Mean), nil
}

func (b *StepBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	step, data, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	mean, data, err := transport.ReadFloats(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("cdpsm: %d trailing bytes after the mean", len(data))
	}
	b.Round, b.Step, b.Mean = int(round), step, mean
	return nil
}

func (b StepReply) MarshalBinary() ([]byte, error) {
	return transport.AppendFloats(make([]byte, 0, 4+8*len(b.Estimate)), b.Estimate), nil
}

func (b *StepReply) UnmarshalBinary(data []byte) error {
	est, data, err := transport.ReadFloats(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("cdpsm: %d trailing bytes after the estimate", len(data))
	}
	b.Estimate = est
	return nil
}
