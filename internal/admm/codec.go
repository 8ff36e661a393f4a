package admm

import (
	"fmt"

	"edr/internal/transport"
)

// Compact binary codecs for the ADMM verb: the proximal targets over the
// replica's support of m clients out, the one shift that decides its
// column back.
//
//	request: [u32 round] [f64 rho] [u32 m] [m × f64 target]
//	reply:   [f64 shift]
//
// The request leads with its u32 LE round id per the wire convention. Both
// decoders refuse trailing bytes, so a decoded body re-encodes to the bytes
// it came from.

func (b ProxBody) MarshalBinary() ([]byte, error) {
	out := transport.AppendUint32(make([]byte, 0, 16+8*len(b.Target)), uint32(b.Round))
	out = transport.AppendFloat64(out, b.Rho)
	return transport.AppendFloats(out, b.Target), nil
}

func (b *ProxBody) UnmarshalBinary(data []byte) error {
	round, data, err := transport.ReadUint32(data)
	if err != nil {
		return err
	}
	rho, data, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	target, data, err := transport.ReadFloats(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("admm: %d trailing bytes after the targets", len(data))
	}
	b.Round, b.Rho, b.Target = int(round), rho, target
	return nil
}

func (b ProxReply) MarshalBinary() ([]byte, error) {
	return transport.AppendFloat64(make([]byte, 0, 8), b.Shift), nil
}

func (b *ProxReply) UnmarshalBinary(data []byte) error {
	shift, data, err := transport.ReadFloat64(data)
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("admm: %d trailing bytes after the shift", len(data))
	}
	b.Shift = shift
	return nil
}
