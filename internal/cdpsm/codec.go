package cdpsm

import "edr/internal/transport"

// Compact binary codecs (transport binary body v1) for the CDPSM verbs.
// The estimate exchange is the round's dominant traffic — every step pulls
// a full |C|×|N| matrix from each peer — and all five bodies are binary,
// the small requests too. Per the wire convention, every request body
// leads with its u32 LE round id.

func (b StepBody) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(nil, uint32(b.Round))
	out = transport.AppendUint32(out, uint32(b.Iter))
	return transport.AppendFloat64(out, b.Step), nil
}

func (b *StepBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	iter, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	step, _, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	b.Round, b.Iter, b.Step = int(round), int(iter), step
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
	out := transport.AppendUint32(nil, uint32(b.Round))
	return transport.AppendUint32(out, uint32(int32(b.Base))), nil
}

func (b *EstimateBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	base, _, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	b.Round, b.Base = int(round), int(int32(base))
	return nil
}

// EstimateReply rides the kinded matrix frames of transport v2: the
// chooser picks the cheapest of full, sparse (masked instances) and delta
// (consecutive-iteration pulls) layouts; Base supplies the delta
// reference on both sides and is itself never shipped.
func (b EstimateReply) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(nil, uint32(int32(b.Iter)))
	return transport.AppendMatrixKinded(out, b.Estimate, b.Base), nil
}

func (b *EstimateReply) UnmarshalBinary(data []byte) error {
	iter, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	m, _, err := transport.ReadMatrixKinded(data, b.Base)
	if err != nil {
		return err
	}
	b.Iter = int(int32(iter))
	b.Estimate = m
	return nil
}

func (b CommitBody) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(nil, uint32(b.Round))
	return transport.AppendUint32(out, uint32(b.Iter)), nil
}

func (b *CommitBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	iter, _, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	b.Round, b.Iter = int(round), int(iter)
	return nil
}
