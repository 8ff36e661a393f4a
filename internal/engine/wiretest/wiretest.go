// Package wiretest carries an engine.Loopback's requests through the real
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

// Codec marshals a body as transport.NewMessage does; the Reply decodes
// from those bytes.
func Codec(verb string, body encoding.BinaryMarshaler) (engine.Reply, error) {
	m, err := transport.NewMessage(verb, "loopback", body)
	return engine.Reply{Verb: m.Type, Body: m.Body}, err
}

// SameOverCodec fails t unless solve gives the same assignment,
// iterations, stop verdict and history, bit for bit, with requests handed
// over (a nil carrier) and through Codec: the codecs lose nothing, and no
// replica computes on memory the hand-over shares with its initiator but
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
