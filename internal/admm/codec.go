package admm

import "edr/internal/transport"

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
	w := transport.NewWriter(make([]byte, 0, 16+8*len(b.Target)))
	w.U32(b.Round)
	w.F64(b.Rho)
	w.Floats(b.Target)
	return w.Done()
}

func (b *ProxBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	round, rho, target := r.U32(), r.F64(), r.Floats()
	if err := r.Done(); err != nil {
		return err
	}
	b.Round, b.Rho, b.Target = round, rho, target
	return nil
}

func (b ProxReply) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 8))
	w.F64(b.Shift)
	return w.Done()
}

func (b *ProxReply) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	shift := r.F64()
	if err := r.Done(); err != nil {
		return err
	}
	b.Shift = shift
	return nil
}
