package membership

import (
	"fmt"

	"edr/internal/transport"
)

// Binary codecs for the membership verbs, little-endian, written and read
// with transport.Writer and transport.Reader (string = u16 length + bytes,
// strings = u32 count + strings):
//
//	Epoch        u32 Seq | strings Members | strings Drained
//	EpochAck     u32 Seq | u32 Accepted (0 or 1)
//	ProposeBody  string Op | string Addr
//
// No decoder takes a byte past the body's last field, and an ack's flag is
// 0 or 1, so a body has one encoding. A zero-length list decodes as nil.

func (e Epoch) MarshalBinary() ([]byte, error) {
	return transport.Encode(0, func(w *transport.Writer) {
		w.U32(e.Seq)
		w.Strs(e.Members)
		w.Strs(e.Drained)
	})
}

func (e *Epoch) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *e = Epoch{Seq: r.U32(), Members: r.Strs(), Drained: r.Strs()} })
}

func (a EpochAck) MarshalBinary() ([]byte, error) {
	accepted := 0
	if a.Accepted {
		accepted = 1
	}
	return transport.Encode(8, func(w *transport.Writer) {
		w.U32(a.Seq)
		w.U32(accepted)
	})
}

func (a *EpochAck) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) {
		seq, accepted := r.U32(), r.U32()
		if r.Err() == nil && accepted > 1 {
			r.Fail(fmt.Errorf("membership: epoch ack flag %d is neither 0 nor 1", accepted))
		}
		*a = EpochAck{Seq: seq, Accepted: accepted == 1}
	})
}

func (b ProposeBody) MarshalBinary() ([]byte, error) {
	return transport.Encode(4+len(b.Op)+len(b.Addr), func(w *transport.Writer) {
		w.Str(string(b.Op))
		w.Str(b.Addr)
	})
}

func (b *ProposeBody) UnmarshalBinary(data []byte) error {
	return transport.Decode(data, func(r *transport.Reader) { *b = ProposeBody{Op: Op(r.Str()), Addr: r.Str()} })
}
