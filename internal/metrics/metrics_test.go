package metrics

import (
	"sync"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Sum != 56.05 {
		t.Fatalf("Sum = %g", s.Sum)
	}
	want := []int64{1, 3, 4, 5} // cumulative: ≤0.1, ≤1, ≤10, +Inf
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("Cumulative = %v, want %v", s.Cumulative, want)
		}
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound counts as ≤ bound (le semantics)
	s := h.Snapshot()
	if s.Cumulative[0] != 1 {
		t.Fatalf("observation on the bound missed its bucket: %v", s.Cumulative)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.005)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count)
	}
	if s.Sum < 39.9 || s.Sum > 40.1 {
		t.Fatalf("Sum = %g, want 40", s.Sum)
	}
	if s.Cumulative[len(s.Cumulative)-1] != 8000 {
		t.Fatalf("+Inf cumulative = %d", s.Cumulative[len(s.Cumulative)-1])
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc(5)
	c.Inc(-2)
	if c.Value() != 3 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Value = %d, want 16000", c.Value())
	}
}
