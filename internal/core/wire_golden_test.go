package core

import (
	"encoding/hex"
	"fmt"
	"testing"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/lddm"
	"edr/internal/membership"
	"edr/internal/transport"
)

// goldenCase is one binary body pinned to its bytes: encode writes it, and
// decode reads bytes back and writes what it read.
type goldenCase struct {
	name   string
	hex    string
	encode func() ([]byte, error)
	decode func([]byte) ([]byte, error)
}

func goldenBody(name, hex string, v binaryBody) goldenCase {
	return goldenCase{name, hex, v.MarshalBinary, func(b []byte) ([]byte, error) {
		into := fresh(v)
		if err := into.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return into.MarshalBinary()
	}}
}

// goldenPush pins a short-form push over h's roster, decoded by a receiver
// that holds that roster.
func goldenPush(name, hex string, h pushHeader, vals []float64) goldenCase {
	return goldenCase{name, hex, func() ([]byte, error) { return h.marshal(vals, false) }, func(b []byte) ([]byte, error) {
		body, miss, err := decodePush(b, &heldRoster{replicas: h.roster, hash: h.hash})
		if err != nil || miss {
			return nil, fmt.Errorf("decode: miss %v, %v", miss, err)
		}
		back := pushHeader{round: body.Round, algorithm: body.Algorithm, iterations: body.Iterations, roster: body.Replicas, hash: h.hash}
		return back.marshal(body.PerReplicaMB, false)
	}}
}

// goldenFrame pins a kinded matrix frame diffed against base.
func goldenFrame(name, hex string, m, base [][]float64) goldenCase {
	return goldenCase{name, hex, func() ([]byte, error) { return transport.AppendMatrixKinded(nil, m, base), nil }, func(b []byte) ([]byte, error) {
		got, rest, err := transport.ReadMatrixKinded(b, base)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("decode: %d bytes left, %v", len(rest), err)
		}
		return transport.AppendMatrixKinded(nil, got, base), nil
	}}
}

// Every binary layout, pinned byte for byte: one instance of each body a
// round, a download or a membership change sends, and one kinded frame of
// each kind (the DONAR bodies are pinned in their own package). Each encodes to its hex
// and decodes to a body that encodes to the same hex again.
func TestWireGoldenBytes(t *testing.T) {
	roster := []string{"r1", "r2", "r3"}
	push := pushHeader{round: 7, algorithm: "LDDM", iterations: 9, roster: roster, hash: rosterHash(roster)}
	cohort := pushHeader{round: 8, algorithm: "ADMM", iterations: 3, roster: roster, hash: rosterHash(roster)}
	spec := &RoundSpec{
		Round: 5,
		Replicas: []ReplicaInfo{
			{Addr: "r1", Price: 1, Alpha: 1, Beta: 0.5, Gamma: 3, Bandwidth: 100},
			{Addr: "r2", Price: 8, Alpha: 2, Beta: 0.25, Gamma: 2, Bandwidth: 50, BaseMB: 12.5},
		},
		ClientAddrs: []string{"c1", "c2", "c3"},
		Demands:     []float64{10, 0.5, 30},
		Feasible:    [][]bool{{true, true}, {true, false}, {false, true}},
	}
	for _, tc := range []goldenCase{
		goldenBody("request, full form", "000000000200633100000000002039400200000002007231000000000000e03f02007232000000000000d03f", &RequestBody{ClientAddr: "c1", DemandMB: 25.125, LatencySec: []Latency{{"r1", 0.5}, {"r2", 0.25}}}),
		goldenBody("request, handle form", "040302010000000000000c40", &RequestBody{Handle: 0x01020304, DemandMB: 3.5}),
		goldenBody("request ack", "29000000000000000020394007000000", &RequestAck{Round: 41, QueuedMB: 25.125, Handle: 7}),
		goldenBody("withdraw", "04030201", &WithdrawBody{Handle: 0x01020304}),
		goldenBody("round spec with a mask", "050000000200000002007231000000000000f03f000000000000f03f000000000000e03f0000000000000840000000000000594000000000000000000200723200000000000020400000000000000040000000000000d03f00000000000000400000000000004940000000000000294003000000020063310200633202006333030000000000000000002440000000000000e03f0000000000003e400100000027", spec),
		goldenBody("assign, full install", "070000000000000002000000020063310000000000001040020063330000000000000440", assignOf(7, 0, []clientMB{{"c1", 4}, {"c3", 2.5}})),
		goldenBody("assign, delta", "090000000700000002000000020063310000000000001140020063330000000000000000", assignOf(9, 7, []clientMB{{"c1", 4.25}, {"c3", 0}})),
		goldenBody("allocation, full form", "0700000004004c44444d0900000025404f0f42c85ae1030000000200723102007232020072330100000005020000000000000000001c400000000000000840", &AllocationBody{Round: 7, Algorithm: "LDDM", Iterations: 9, Replicas: roster, PerReplicaMB: []float64{7, 0, 3}}),
		goldenPush("allocation, short form", "0700000004004c44444d0900000025404f0f42c85ae1000000000100000002010000000000000000000440", push, []float64{0, 2.5, 0}),
		goldenPush("cohort push, short form", "08000000040041444d4d0300000025404f0f42c85ae100000000010000000502000000000000000000d03f000000000000e83f", cohort, []float64{0.25, 0, 0.75}),
		goldenBody("replica info", "0200723200000000000020400000000000000040000000000000d03f000000000000004000000000000049400000000000002940", &spec.Replicas[1]),
		goldenBody("pull", "02006331", &PullBody{ClientAddr: "c1"}),
		goldenBody("download", "070000000000000000000440", &DownloadBody{Round: 7, SizeMB: 2.5}),
		goldenBody("membership epoch", "04000000030000000200723102007232020072330100000002007232", &membership.Epoch{Seq: 4, Members: []string{"r1", "r2", "r3"}, Drained: []string{"r2"}}),
		goldenBody("membership epoch ack", "0400000001000000", &membership.EpochAck{Seq: 4, Accepted: true}),
		goldenBody("membership proposal", "0500647261696e02007232", &membership.ProposeBody{Op: membership.OpDrain, Addr: "r2"}),
		goldenBody("lddm solve", "0300000002000000000000000000e03f000000000000f0bf", &lddm.SolveBody{Round: 3, Mu: []float64{0.5, -1}}),
		goldenBody("lddm reply", "0a00000005020200000001000000000000000000e03f080000000000000000000040", &lddm.SolveReply{M: 10, Served: []byte{0b101, 0b10}, Pos: []int{1, 8}, Val: []float64{0.5, 2}}),
		goldenBody("admm prox", "04000000000000000000004002000000000000000000f03f000000000000e03f", &admm.ProxBody{Round: 4, Rho: 2, Target: []float64{1, 0.5}}),
		goldenBody("admm reply", "000000000000e8bf", &admm.ProxReply{Shift: -0.75}),
		goldenBody("cdpsm step", "06000000000000000000c03f02000000000000000000f83f0000000000000040", &cdpsm.StepBody{Round: 6, Step: 0.125, Mean: []float64{1.5, 2}}),
		goldenBody("cdpsm reply", "020000000000000000001040000000000000e03f", &cdpsm.StepReply{Estimate: []float64{4, 0.5}}),
		goldenFrame("kinded frame, full", "000200000002000000000000000000f03f000000000000004000000000000008400000000000001040", [][]float64{{1, 2}, {3, 4}}, nil),
		goldenFrame("kinded frame, sparse", "0103000000030000000100000004000000000000000000f83f", [][]float64{{0, 0, 0}, {0, 1.5, 0}, {0, 0, 0}}, nil),
		goldenFrame("kinded frame, delta", "0203000000030000000100000008000000000000000000e03f", [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 0.5}}, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}),
	} {
		got, err := tc.encode()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if h := hex.EncodeToString(got); h != tc.hex {
			t.Errorf("%s: encodes to\n%s\nwant\n%s", tc.name, h, tc.hex)
			continue
		}
		again, err := tc.decode(got)
		if err != nil || string(again) != string(got) {
			t.Errorf("%s: decodes and re-encodes to %x, %v", tc.name, again, err)
		}
	}
}
