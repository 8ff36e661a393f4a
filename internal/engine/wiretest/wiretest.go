// Package wiretest carries an engine.Loopback's bodies through the real
// wire codecs, as the fleet does, so a test can hold the loopback's
// hand-over to the codecs' answer.
package wiretest

import (
	"encoding"
	"math"
	"slices"
	"testing"

	"edr/internal/engine"
	"edr/internal/solver"
	"edr/internal/transport"
)

// Codec marshals each body into a transport.Message and decodes from it.
func Codec(verb string, body encoding.BinaryMarshaler) (engine.Reply, error) {
	m, err := transport.NewMessage(verb, "loopback", body)
	return message{m}, err
}

type message struct{ m transport.Message }

func (w message) Decode(into encoding.BinaryUnmarshaler) error { return w.m.DecodeBody(into) }

// SameOverCodec fails t unless solve gives the same assignment,
// iterations, stop verdict and history, bit for bit, with bodies handed
// over (a nil carrier) and through Codec: the codecs lose nothing, and no
// receiver computes on memory the hand-over shares with its sender but
// the wire would have copied.
func SameOverCodec(t testing.TB, solve func(engine.Carrier) (*solver.Result, error)) {
	t.Helper()
	want, err := solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := solve(Codec)
	if err != nil {
		t.Fatalf("codec: %v", err)
	}
	same := got.Iterations == want.Iterations && got.Converged == want.Converged && sameBits(got.History, want.History)
	if !same || !slices.EqualFunc(got.Assignment, want.Assignment, sameBits) {
		t.Fatalf("codec: %d iterations (converged %v), hand-over %d (%v); or history or assignment differ",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
