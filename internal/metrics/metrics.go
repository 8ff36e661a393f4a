// Package metrics holds the runtime's lock-free instruments: counters for
// the node and transport stats structs, and the histograms the admin
// plane exports.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a concurrent event counter. It is a single atomic word:
// safe to embed by value in hot-path stats structs (core.ClientStats,
// transport instrumentation) with no lock contention.
type Counter struct {
	n atomic.Int64
}

// Inc adds delta (may be negative).
func (c *Counter) Inc(delta int64) {
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.n.Load()
}

// Histogram counts observations into fixed cumulative-style buckets, the
// shape Prometheus histograms export. Buckets and the running sum use
// atomics, so Observe is lock-free and safe on hot paths.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf follows
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum of observations
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// Observations greater than every bound land in the implicit +Inf bucket.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// DurationBuckets is a general-purpose latency bucket layout in seconds,
// from 1 ms to ~100 s in roughly ×3 steps.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough view of a histogram for
// export: cumulative counts per bound (ending with the +Inf bucket),
// total count, and sum of observations.
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds, excluding +Inf
	Cumulative []int64   // len(Bounds)+1; last entry is the +Inf (total) count
	Count      int64
	Sum        float64
}

// Snapshot returns the cumulative bucket counts Prometheus exposition
// wants. Concurrent Observes may skew individual buckets by a few
// counts; totals remain monotone.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]int64, len(h.counts)),
		Count:      h.total.Load(),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	run := int64(0)
	for i := range h.counts {
		run += h.counts[i].Load()
		s.Cumulative[i] = run
	}
	return s
}
