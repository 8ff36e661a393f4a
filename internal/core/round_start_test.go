package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"edr/internal/transport"
)

// startNet wraps the in-process fabric and keeps every round.start body a
// replica receives, by round.
type startNet struct {
	*transport.InProcNetwork
	mu     sync.Mutex
	bodies map[int][][]byte
}

func (n *startNet) Listen(name string, h transport.Handler) (transport.Node, error) {
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		if req.Type == MsgRoundStart {
			round, err := transport.BinaryRound(req)
			if err != nil {
				return transport.Message{}, err
			}
			n.mu.Lock()
			n.bodies[round] = append(n.bodies[round], req.Body)
			n.mu.Unlock()
		}
		return h(ctx, req)
	})
}

// A round.start carries the feasibility mask the optimizer reads, not the
// latencies behind it: on a 100-client × 10-replica fleet where a third of
// the links are over the bound and some are not measured at all, every
// replica rebuilds the initiator's support exactly. The warm seed stays
// on the initiator, which holds every algorithm's iterate: a start body is
// the roster, the demands and a 125-byte bitmap, and nothing follows it.
func TestRoundStartShipsMaskNotLatency(t *testing.T) {
	prices := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, alg := range []Algorithm{LDDM, ADMM, CDPSM} {
		t.Run(alg.String(), func(t *testing.T) {
			net := &startNet{InProcNetwork: transport.NewInProcNetwork(), bodies: map[int][][]byte{}}
			f := newFleetOn(t, net, net.InProcNetwork, prices, 100, alg, func(_ int, cfg *ReplicaConfig) { cfg.MaxIters = 20 })
			initiator := f.replicas[0]
			ctx := context.Background()
			submit := func() {
				t.Helper()
				for i, cl := range f.clients {
					lat := make(map[string]float64, len(f.replicas))
					for j, r := range f.replicas {
						switch (i + j) % 7 {
						case 0:
							// not measured: not a candidate
						case 1, 4:
							lat[r.Addr()] = 0.005 // over the 1.8 ms bound
						default:
							lat[r.Addr()] = 0.0005
						}
					}
					if err := cl.Submit(ctx, initiator.Addr(), float64(1+i%5), lat); err != nil {
						t.Fatal(err)
					}
				}
			}

			for round := 1; round <= 2; round++ {
				submit()
				report, err := initiator.RunRound(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if report.Round != round || report.WarmStarted != (round == 2) {
					t.Fatalf("round %d reported as round %d, warm-started %v", round, report.Round, report.WarmStarted)
				}
				prob := initiator.committed().prob
				sp := prob.Sparsity()
				if sp.NNZ() == 0 || sp.NNZ() == sp.C*sp.N {
					t.Fatalf("round %d: %d of %d pairs feasible, want a masked instance", round, sp.NNZ(), sp.C*sp.N)
				}
				bodies := net.bodies[round]
				if len(bodies) != len(f.replicas) {
					t.Fatalf("round %d: %d round.start bodies for %d replicas", round, len(bodies), len(f.replicas))
				}
				for _, body := range bodies {
					var spec RoundSpec
					if err := spec.UnmarshalBinary(body); err != nil {
						t.Fatal(err)
					}
					if len(body) > 2500 {
						t.Errorf("round %d: %s start body is %d bytes, want ≤ 2.5 KB", round, alg, len(body))
					}
				}
				for _, r := range f.replicas {
					st, err := r.lookupRound(round)
					if err != nil {
						t.Fatal(err)
					}
					if got := st.eng.Prob; got.Latency != nil || !reflect.DeepEqual(got.Sparsity(), sp) {
						t.Fatalf("round %d: %s rebuilt a different support (or holds latencies)", round, r.Addr())
					}
				}
			}
		})
	}
}
