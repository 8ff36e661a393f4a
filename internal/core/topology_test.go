package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"edr/internal/opt"
	"edr/internal/transport"
)

// tapNet wraps the in-process fabric and records every message a node
// receives: who sent it, to whom, its verb and its body.
type tapNet struct {
	*transport.InProcNetwork
	mu   sync.Mutex
	sent []tapped
}

type tapped struct {
	from, to, verb string
	body           []byte
}

func (n *tapNet) Listen(name string, h transport.Handler) (transport.Node, error) {
	return n.InProcNetwork.Listen(name, func(ctx context.Context, req transport.Message) (transport.Message, error) {
		n.mu.Lock()
		n.sent = append(n.sent, tapped{from: req.From, to: name, verb: req.Type, body: req.Body})
		n.mu.Unlock()
		return h(ctx, req)
	})
}

// take returns the messages recorded since the last take.
func (n *tapNet) take() []tapped {
	n.mu.Lock()
	defer n.mu.Unlock()
	sent := n.sent
	n.sent = nil
	return sent
}

// A CDPSM round runs through its initiator: per iteration one step RPC to
// each replica and nothing else — no replica sends to another, no
// estimate pull or commit crosses the wire, and the round start carries no
// seed. The warm start still reaches the agents: on a warm round each
// replica's first consensus is the mean of |N| copies of the packed seed.
func TestCDPSMRoundTopology(t *testing.T) {
	const iters = 4
	net := &tapNet{InProcNetwork: transport.NewInProcNetwork()}
	f := newFleetOn(t, net, net.InProcNetwork, []float64{1, 4, 9}, 4, CDPSM, func(_ int, cfg *ReplicaConfig) {
		cfg.MaxIters = iters
		cfg.Tol = math.SmallestNonzeroFloat64 // no movement stop
	})
	initiator := f.replicas[0]
	replicas := map[string]bool{}
	for _, r := range f.replicas {
		replicas[r.Addr()] = true
	}
	ctx := context.Background()
	var seeded *lastGoodRound
	for round := 1; round <= 2; round++ {
		for i, cl := range f.clients {
			if err := cl.Submit(ctx, initiator.Addr(), float64(10+5*i), f.uniformLatencies()); err != nil {
				t.Fatal(err)
			}
		}
		net.take()
		report, err := initiator.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sent := net.take()
		if report.Iterations != iters || report.WarmStarted != (round == 2) {
			t.Fatalf("round %d ran %d iterations (warm %v), want %d", round, report.Iterations, report.WarmStarted, iters)
		}

		steps := 0
		firstMean := map[string][]float64{}
		for _, m := range sent {
			if replicas[m.from] && m.from != initiator.Addr() && replicas[m.to] {
				t.Errorf("round %d: replica %s sent %s to replica %s", round, m.from, m.verb, m.to)
			}
			if strings.Contains(m.verb, "estimate") || strings.Contains(m.verb, "commit") {
				t.Errorf("round %d: %s sent %s to %s", round, m.from, m.verb, m.to)
			}
			switch m.verb {
			case MsgRoundStart:
				var spec RoundSpec
				if err := spec.UnmarshalBinary(m.body); err != nil {
					t.Errorf("round %d: start body for %s: %v", round, m.to, err)
				}
			case MsgCDPSMStep:
				steps++
				var body CDPSMStepBody
				if err := body.UnmarshalBinary(m.body); err != nil {
					t.Fatal(err)
				}
				if firstMean[m.to] == nil {
					firstMean[m.to] = body.Mean
				}
			}
		}
		if want := len(f.replicas) * iters; steps != want {
			t.Fatalf("round %d: %d %s sends for %d replicas × %d iterations, want %d", round, steps, MsgCDPSMStep, len(f.replicas), iters, want)
		}

		if round == 2 {
			// The seed is the committed split renormalized over the same
			// roster and demands, gathered onto the support; each agent's
			// first consensus averages |N| copies of it.
			prob := initiator.committed().prob
			caps := make([]float64, len(seeded.infos))
			for j, info := range seeded.infos {
				caps[j] = info.Bandwidth
			}
			seed := prob.Sparsity().Gather(nil, opt.Renormalize(seeded.assignment, prob.Demands, caps, prob.Allowed()))
			want := make([]float64, len(seed))
			w := 1 / float64(len(f.replicas))
			for range f.replicas {
				for k, x := range seed {
					want[k] += w * x
				}
			}
			for addr := range replicas {
				if !slices.Equal(firstMean[addr], want) {
					t.Errorf("%s's first consensus\n got %v\nwant %v", addr, firstMean[addr], want)
				}
			}
		}
		seeded = initiator.committed()
	}
}
