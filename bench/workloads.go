package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	"edr/internal/core"
)

// maxLatencySec is T, the paper's 1.8 ms latency bound (edrd's default).
const maxLatencySec = 0.0018

// warmupWindows are excluded from every median: window 1 is the cold
// round, windows 2-3 let warm starts, pools and caches fill.
const warmupWindows = 3

// shape names the instance family a workload draws its fleet from.
type shape int

const (
	shapePaper  shape = iota // paper §IV scale: distinct latencies, ~70 % reachability
	shapeRig                 // the paper's 8-replica rig, every link feasible
	shapeRegion              // client-scale fleet: regions reach a rotating half
)

// workload is one benchmark scenario. Sizes are fields rather than
// constants so the harness tests can run the same shapes reduced.
type workload struct {
	name string
	why  string

	shape    shape
	alg      core.Algorithm
	tcp      bool
	clients  int
	replicas int
	regions  int // shapeRegion only

	demandLo, demandHi float64
	// drift, when positive, is the fraction of clients whose demand moves
	// ±20 % each window; zero redraws every client's demand every window.
	drift float64

	cohortMin   int
	incremental bool

	// maxWindows ends a run early once this many windows were measured.
	// Replicas keep every round's participant state, so a run's memory and
	// GC cost grow with its rounds; the cap keeps the fastest workload
	// (paper100-cdpsm, 3 MB a round) near 1 GB and its later windows
	// comparable with its earlier ones.
	maxWindows int
}

// workloads lists the benchmark's scenarios in BENCHMARK.json order.
// rigInProc is the side run that anchors rig12-lddm-tcp's fabric share;
// it is not a workload of its own.
var (
	workloads = []workload{
		{
			name: "paper100-lddm", shape: shapePaper, alg: core.LDDM,
			clients: 100, replicas: 10, demandLo: 1, demandHi: 6,
			maxWindows: 100,
			why:        "default algorithm at the paper's scale: ~22k tiny in-proc RPCs a round, so the engine's fan-out loop and the LDDM handlers do the work and no socket is involved",
		},
		{
			name: "paper100-admm", shape: shapePaper, alg: core.ADMM,
			clients: 100, replicas: 10, demandLo: 1, demandHi: 6,
			maxWindows: 300,
			why:        "same instance under ADMM: few iterations of a heavy proximal kernel, 20x fewer RPCs; bypasses what paper100-lddm stresses",
		},
		{
			name: "paper100-cdpsm", shape: shapePaper, alg: core.CDPSM,
			clients: 100, replicas: 10, demandLo: 1, demandHi: 6,
			maxWindows: 400,
			why:        "the paper's Algorithm 1, the only engine shipping |C|x|N| matrix frames: exercises the kinded/delta codec, and cost_ratio is far from 1",
		},
		{
			name: "rig12-lddm-tcp", shape: shapeRig, alg: core.LDDM, tcp: true,
			clients: 12, replicas: 8, demandLo: 5, demandHi: 40,
			maxWindows: 100,
			why:        "the paper's rig over loopback TCP: every RPC dials a socket, so the transport is nearly all of the round here and a transport change moves this row first",
		},
		{
			name: "fleet10k-drift1", shape: shapeRegion, alg: core.LDDM,
			clients: 10000, replicas: 10, regions: 50, demandLo: 0.005, demandHi: 0.05,
			drift: 0.01, cohortMin: 2, incremental: true,
			maxWindows: 60,
			why:        "steady state at client scale: ingest, round diff, cohort registry reuse, dirty-subset solve, delta assign, suppressed notifies",
		},
		{
			name: "fleet10k-redraw", shape: shapeRegion, alg: core.LDDM,
			clients: 10000, replicas: 10, regions: 50, demandLo: 0.005, demandHi: 0.05,
			cohortMin: 2, incremental: true,
			maxWindows: 40,
			why:        "same fleet, every demand redrawn: the diff finds a dirty majority, so a full cohorted solve, full assign columns and 10k pushes",
		},
	}
	rigInProc = workload{
		name: "rig12-lddm-inproc", shape: shapeRig, alg: core.LDDM,
		clients: 12, replicas: 8, demandLo: 5, demandHi: 40,
		maxWindows: 100,
		why:        "side run: the rig without sockets",
	}
)

// withSideRun is the six workloads followed by the side run.
func withSideRun() []workload {
	return append(workloads[:len(workloads):len(workloads)], rigInProc)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range withSideRun() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rigPrices are the paper rig's electricity prices (§IV-A.2).
var rigPrices = []float64{1, 8, 1, 6, 1, 5, 2, 3}

// instance is the seeded static part of a workload's input: the replica
// prices and every client's latency view. Demands are per window.
type instance struct {
	prices []float64
	// lat[c][n] is client c's one-way latency to replica n in seconds;
	// above maxLatencySec the replica may not serve the client.
	lat [][]float64
}

// PCG stream ids, so the instance, each window's demands and the check
// samples are independent functions of the seed.
const (
	streamInstance = 1
	streamSample   = 2
	streamDemand   = 1 << 32 // + window index
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// newInstance draws the static instance of w from seed.
func newInstance(w workload, seed uint64) *instance {
	r := newRand(seed, streamInstance)
	in := &instance{prices: make([]float64, w.replicas), lat: make([][]float64, w.clients)}
	for c := range in.lat {
		in.lat[c] = make([]float64, w.replicas)
	}
	switch w.shape {
	case shapePaper:
		// The paper's prices are uniform integers 1..20. Here they are a
		// seeded permutation of that range's even-spaced values and every
		// client reaches the same number of replicas, so two seeds differ in
		// who is cheap and who reaches whom, not in how hard the instance is:
		// iteration counts and cost ratios would otherwise swing with the seed
		// by more than any change a later PR makes.
		for j, k := range r.Perm(w.replicas) {
			in.prices[j] = 1 + math.Round(19*float64(k)/float64(max(1, w.replicas-1)))
		}
		reach := max(2, int(math.Round(0.7*float64(w.replicas))))
		for c := range in.lat {
			for k, j := range r.Perm(w.replicas) {
				if k < reach {
					in.lat[c][j] = uniform(r, 0.0001, 0.0017) // distinct: cohorting cannot compress
				} else {
					in.lat[c][j] = uniform(r, 0.002, 0.005)
				}
			}
		}
	case shapeRig:
		for j := range in.prices {
			in.prices[j] = rigPrices[j%len(rigPrices)]
		}
		for c := range in.lat {
			for j := range in.lat[c] {
				in.lat[c][j] = uniform(r, 0.0001, 0.0017)
			}
		}
	case shapeRegion:
		for j := range in.prices {
			in.prices[j] = float64(1 + 2*j)
		}
		// Each region reaches a rotating half of the replicas. The cohort
		// layer buckets latencies by T/4: a region's base latencies sit
		// mid-bucket, where the ±5 % per-client jitter cannot leave the
		// bucket, except one seeded replica per region whose base is a
		// bucket boundary, which the jitter straddles. Every region therefore
		// quantizes into two cohorts — 2·regions in all, whatever the seed.
		const quantum = maxLatencySec / 4
		base := make([][]float64, w.regions)
		for g := range base {
			base[g] = make([]float64, w.replicas)
			straddle := r.IntN((w.replicas + 1) / 2)
			for j, k := 0, 0; j < w.replicas; j++ {
				if (j+g)%w.replicas >= (w.replicas+1)/2 {
					continue
				}
				if k == straddle {
					base[g][j] = quantum * float64(1+r.IntN(2))
				} else {
					base[g][j] = quantum * (float64(r.IntN(3)) + 0.5) * uniform(r, 0.9, 1.1)
				}
				k++
			}
		}
		for c := range in.lat {
			g := c % w.regions
			for j := range in.lat[c] {
				if base[g][j] > 0 {
					in.lat[c][j] = base[g][j] * uniform(r, 0.95, 1.05)
				} else {
					in.lat[c][j] = 10 * maxLatencySec
				}
			}
		}
	}
	return in
}

// demandGen produces each window's demand vector as a function of
// (seed, window) alone, so a run's inputs do not depend on how many
// windows the clock allowed.
type demandGen struct {
	w    workload
	seed uint64
	next int
	cur  []float64
}

func newDemandGen(w workload, seed uint64) *demandGen {
	return &demandGen{w: w, seed: seed}
}

// window returns the demands of the next window (valid until the next
// call).
func (g *demandGen) window() []float64 {
	r := newRand(g.seed, streamDemand+uint64(g.next))
	w := g.w
	if g.next == 0 || w.drift == 0 {
		if g.cur == nil {
			g.cur = make([]float64, w.clients)
		}
		for i := range g.cur {
			g.cur[i] = uniform(r, w.demandLo, w.demandHi)
		}
	} else {
		// Move a seeded k-subset by up to ±20 %, reflecting at the demand
		// range so every chosen client really moves.
		k := int(math.Ceil(w.drift * float64(w.clients)))
		for _, i := range r.Perm(w.clients)[:k] {
			f := uniform(r, 0.05, 0.20)
			if r.IntN(2) == 0 {
				f = -f
			}
			d := g.cur[i] * (1 + f)
			if d < w.demandLo || d > w.demandHi {
				d = g.cur[i] * (1 - f)
			}
			g.cur[i] = d
		}
	}
	g.next++
	return g.cur
}

// digestWindows is how many leading windows' demands the input digest
// covers: enough to pin the generator, independent of run length.
const digestWindows = 4

// inputDigest fingerprints everything the generator hands the fleet.
func inputDigest(w workload, seed uint64) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	// Not the name: workloads that differ only in algorithm or fabric get
	// the same inputs and say so.
	fmt.Fprintf(h, "%d/%d/%d/", w.shape, w.clients, w.replicas)
	in := newInstance(w, seed)
	for _, p := range in.prices {
		put(p)
	}
	for _, row := range in.lat {
		for _, l := range row {
			put(l)
		}
	}
	g := newDemandGen(w, seed)
	for k := 0; k < digestWindows; k++ {
		for _, d := range g.window() {
			put(d)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
