// Package netsim models the network substrate between clients and
// replicas: pairwise latencies, per-replica bandwidth caps, and transfer
// times. It replaces the paper's physical SystemG Ethernet (≈100 MB/s
// links, worst-case full-frame latency T = 1.8 ms) with a deterministic
// matrix the optimizer and the experiment harness both read.
package netsim

import (
	"fmt"
	"time"

	"edr/internal/sim"
)

// Paper defaults (§IV-A.2).
const (
	// DefaultBandwidthMBps is the SystemG Ethernet cap, ~100 MB/s.
	DefaultBandwidthMBps = 100.0
	// DefaultMaxLatency is T, the user-defined maximum tolerable network
	// latency: 1.8 ms, the worst case for one full-size 1518-byte frame
	// under heavy load on SystemG.
	DefaultMaxLatency = 1800 * time.Microsecond
)

// Topology is a static client×replica network view.
type Topology struct {
	// ClientNames and ReplicaNames give the endpoints stable identities.
	ClientNames  []string
	ReplicaNames []string
	// LatencySec[c][n] is one-way latency in seconds from client c to
	// replica n.
	LatencySec [][]float64
	// BandwidthMBps[n] is the bandwidth capacity of replica n.
	BandwidthMBps []float64
}

// Validate checks shape and value consistency.
func (t *Topology) Validate() error {
	c, n := len(t.ClientNames), len(t.ReplicaNames)
	if c == 0 || n == 0 {
		return fmt.Errorf("netsim: topology needs clients and replicas (have %d, %d)", c, n)
	}
	if len(t.LatencySec) != c {
		return fmt.Errorf("netsim: latency has %d rows for %d clients", len(t.LatencySec), c)
	}
	for i, row := range t.LatencySec {
		if len(row) != n {
			return fmt.Errorf("netsim: latency row %d has %d cols for %d replicas", i, len(row), n)
		}
		for j, l := range row {
			if l < 0 {
				return fmt.Errorf("netsim: negative latency [%d][%d] = %g", i, j, l)
			}
		}
	}
	if len(t.BandwidthMBps) != n {
		return fmt.Errorf("netsim: %d bandwidth entries for %d replicas", len(t.BandwidthMBps), n)
	}
	for j, b := range t.BandwidthMBps {
		if b <= 0 {
			return fmt.Errorf("netsim: non-positive bandwidth[%d] = %g", j, b)
		}
	}
	return nil
}

// Latency returns the one-way latency from client c to replica n.
func (t *Topology) Latency(c, n int) time.Duration {
	return time.Duration(t.LatencySec[c][n] * float64(time.Second))
}

// TransferTime models moving sizeMB from replica n to client c: one
// propagation delay plus serialization at the replica's bandwidth. The
// share argument (0 < share ≤ 1) models the fraction of the replica's
// bandwidth this transfer receives when the replica serves several clients
// concurrently.
func (t *Topology) TransferTime(c, n int, sizeMB, share float64) (time.Duration, error) {
	if sizeMB < 0 {
		return 0, fmt.Errorf("netsim: negative transfer size %g", sizeMB)
	}
	if share <= 0 || share > 1 {
		return 0, fmt.Errorf("netsim: bandwidth share %g outside (0, 1]", share)
	}
	bw := t.BandwidthMBps[n] * share
	seconds := t.LatencySec[c][n] + sizeMB/bw
	return time.Duration(seconds * float64(time.Second)), nil
}

// ClusterTopology builds the paper's deployment: clients and replicas in
// one cluster with uniform sub-millisecond latencies and uniform 100 MB/s
// replica bandwidth. Per-pair latency is drawn uniformly from
// [0.2·T, 0.8·T] so all links are feasible but distinguishable.
func ClusterTopology(r *sim.Rand, clients, replicas int) *Topology {
	t := &Topology{
		ClientNames:   names("client", clients),
		ReplicaNames:  names("replica", replicas),
		LatencySec:    make([][]float64, clients),
		BandwidthMBps: make([]float64, replicas),
	}
	maxT := DefaultMaxLatency.Seconds()
	for c := range t.LatencySec {
		t.LatencySec[c] = make([]float64, replicas)
		for n := range t.LatencySec[c] {
			t.LatencySec[c][n] = r.Range(0.2*maxT, 0.8*maxT)
		}
	}
	for n := range t.BandwidthMBps {
		t.BandwidthMBps[n] = DefaultBandwidthMBps
	}
	return t
}

// GeoTopology builds a wide-area variant for the examples: replicas sit in
// distinct regions, and each client is near one region (low latency) and
// far from the rest (some beyond the latency bound, exercising the
// feasibility mask). fracFar controls how many of a client's non-home
// links exceed the bound.
func GeoTopology(r *sim.Rand, clients, replicas int, fracFar float64) *Topology {
	t := ClusterTopology(r, clients, replicas)
	maxT := DefaultMaxLatency.Seconds()
	for c := 0; c < clients; c++ {
		home := r.Intn(replicas)
		for n := 0; n < replicas; n++ {
			switch {
			case n == home:
				t.LatencySec[c][n] = r.Range(0.05*maxT, 0.3*maxT)
			case r.Float64() < fracFar && replicasWithin(t, c) > 2:
				t.LatencySec[c][n] = r.Range(2*maxT, 10*maxT) // infeasible
			default:
				t.LatencySec[c][n] = r.Range(0.4*maxT, 0.95*maxT)
			}
		}
	}
	return t
}

// RegionalTopology builds the client-scale wide-area variant: clients live
// in one of `regions` geographic regions, and every client in a region
// shares its region's latency vector up to a small per-client jitter
// (±2% of T, never enough to cross the feasibility bound). Region vectors
// follow the GeoTopology shape — one close home replica, most links
// moderate, a fracFar fraction beyond the latency bound. This is the
// structure that makes cohort aggregation effective: millions of clients
// share a few hundred feasibility masks, hence cohorts, exactly the
// geographic demand aggregation of energy-aware CDN load balancing.
func RegionalTopology(r *sim.Rand, clients, replicas, regions int, fracFar float64) *Topology {
	if regions <= 0 {
		regions = 1
	}
	t := &Topology{
		ClientNames:   names("client", clients),
		ReplicaNames:  names("replica", replicas),
		LatencySec:    make([][]float64, clients),
		BandwidthMBps: make([]float64, replicas),
	}
	for n := range t.BandwidthMBps {
		t.BandwidthMBps[n] = DefaultBandwidthMBps
	}
	maxT := DefaultMaxLatency.Seconds()
	// Draw one latency vector per region, keeping at least two feasible
	// links so no region is pinned to a single replica.
	regionLat := make([][]float64, regions)
	for g := range regionLat {
		row := make([]float64, replicas)
		home := r.Intn(replicas)
		for n := range row {
			switch {
			case n == home:
				row[n] = r.Range(0.05*maxT, 0.3*maxT)
			case r.Float64() < fracFar && feasibleIn(row[:n], maxT) > 1:
				row[n] = r.Range(2*maxT, 10*maxT) // infeasible
			default:
				row[n] = r.Range(0.4*maxT, 0.93*maxT)
			}
		}
		regionLat[g] = row
	}
	// Clients cycle through regions (deterministic striping keeps region
	// populations balanced at any scale) and jitter their region's vector.
	// Feasible links stay feasible (0.93·T + 0.02·T < T) and infeasible
	// ones stay infeasible (≥ 2·T − 0.02·T > T).
	for c := range t.LatencySec {
		base := regionLat[c%regions]
		row := make([]float64, replicas)
		for n, l := range base {
			row[n] = l + r.Range(-0.02*maxT, 0.02*maxT)
			if row[n] < 0 {
				row[n] = 0
			}
		}
		t.LatencySec[c] = row
	}
	return t
}

// feasibleIn counts entries of a partially-built latency row within the
// bound (zero-valued tail entries are not yet drawn, so only the prefix is
// passed in).
func feasibleIn(prefix []float64, maxT float64) int {
	count := 0
	for _, l := range prefix {
		if l > 0 && l <= maxT {
			count++
		}
	}
	return count
}

// replicasWithin counts replicas currently within the latency bound for
// client c — used to keep every client with at least two feasible choices.
func replicasWithin(t *Topology, c int) int {
	count := 0
	for _, l := range t.LatencySec[c] {
		if l <= DefaultMaxLatency.Seconds() {
			count++
		}
	}
	return count
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return out
}
