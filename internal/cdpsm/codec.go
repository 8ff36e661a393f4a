package cdpsm

import "edr/internal/transport"

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
	w := transport.NewWriter(make([]byte, 0, 16+8*len(b.Mean)))
	w.U32(b.Round)
	w.F64(b.Step)
	w.Floats(b.Mean)
	return w.Done()
}

func (b *StepBody) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	round, step, mean := r.U32(), r.F64(), r.Floats()
	if err := r.Done(); err != nil {
		return err
	}
	b.Round, b.Step, b.Mean = round, step, mean
	return nil
}

func (b StepReply) MarshalBinary() ([]byte, error) {
	w := transport.NewWriter(make([]byte, 0, 4+8*len(b.Estimate)))
	w.Floats(b.Estimate)
	return w.Done()
}

func (b *StepReply) UnmarshalBinary(data []byte) error {
	r := transport.NewReader(data)
	est := r.Floats()
	if err := r.Done(); err != nil {
		return err
	}
	b.Estimate = est
	return nil
}
