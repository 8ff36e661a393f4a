package cdpsm

import (
	"fmt"

	"edr/internal/transport"
)

// Compact binary codecs (transport binary body v1) for the CDPSM verbs.
// The estimate exchange is the round's dominant traffic — every step pulls
// each peer's committed estimate, nnz floats packed over the support — and
// all five bodies are binary, the small requests too:
//
//	step:         [u32 round] [f64 step]
//	step ack:     [f64 moved]
//	estimate:     [u32 round]
//	estimate ack: [u32 nnz] [nnz × f64 estimate]
//	commit:       [u32 round]
//
// Per the wire convention, every request body leads with its u32 LE round
// id. Both estimate decoders refuse trailing bytes, so a decoded estimate
// body re-encodes to the bytes it came from.

func (b StepBody) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(nil, uint32(b.Round))
	return transport.AppendFloat64(out, b.Step), nil
}

func (b *StepBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	step, _, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	b.Round, b.Step = int(round), step
	return nil
}

func (b StepReply) MarshalBinary() ([]byte, error) {
	return transport.AppendFloat64(nil, b.Moved), nil
}

func (b *StepReply) UnmarshalBinary(data []byte) error {
	moved, _, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	b.Moved = moved
	return nil
}

func (b EstimateBody) MarshalBinary() ([]byte, error) {
	return transport.AppendUint32(nil, uint32(b.Round)), nil
}

func (b *EstimateBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("cdpsm: %d trailing bytes after the round", len(data))
	}
	b.Round = int(round)
	return nil
}

func (b EstimateReply) MarshalBinary() ([]byte, error) {
	return transport.AppendFloats(make([]byte, 0, 4+8*len(b.Estimate)), b.Estimate), nil
}

func (b *EstimateReply) UnmarshalBinary(data []byte) error {
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

func (b CommitBody) MarshalBinary() ([]byte, error) {
	return transport.AppendUint32(nil, uint32(b.Round)), nil
}

func (b *CommitBody) UnmarshalBinary(data []byte) error {
	round, _, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	b.Round = int(round)
	return nil
}
