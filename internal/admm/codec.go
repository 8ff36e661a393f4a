package admm

import (
	"fmt"

	"edr/internal/transport"
)

// Compact binary codecs for the ADMM verb: the proximal target out, the
// updated column back.
//
//	request: [u32 round] [u32 iter] [f64 rho] [kinded frame target]
//	reply:   [u32 c] [c × f64 column]
//
// The request leads with its u32 LE round id per the wire convention; its
// target rides a kinded frame, full or sparse, whichever is smaller. Both
// decoders refuse trailing bytes and ReadFloatsKinded refuses any frame
// but the one AppendFloatsKinded writes, so a decoded body re-encodes to
// the bytes it came from.

func (b ProxBody) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(nil, uint32(b.Round))
	out = transport.AppendUint32(out, uint32(b.Iter))
	out = transport.AppendFloat64(out, b.Rho)
	return transport.AppendFloatsKinded(out, b.Target), nil
}

func (b *ProxBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	iter, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	rho, data, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	target, data, err := transport.ReadFloatsKinded(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("admm: %d trailing bytes after the target", len(data))
	}
	b.Round, b.Iter, b.Rho, b.Target = int(round), int(iter), rho, target
	return nil
}

func (b ProxReply) MarshalBinary() ([]byte, error) {
	return transport.AppendFloats(nil, b.Column), nil
}

func (b *ProxReply) UnmarshalBinary(data []byte) error {
	col, data, err := transport.ReadFloats(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("admm: %d trailing bytes after the column", len(data))
	}
	b.Column = col
	return nil
}
