package opt

import (
	"errors"
	"sync/atomic"
	"testing"
)

// units is the cumulative weight of n unit-weight units.
func units(n int) []int {
	cum := make([]int, n+1)
	for i := range cum {
		cum[i] = i
	}
	return cum
}

func TestParallelCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 3, 8, 64} {
		p := NewParallel(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1001} {
			hits := make([]int32, n)
			p.ForBalanced(n, units(n), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestParallelChunkIndexesAreDense(t *testing.T) {
	p := NewParallel(4)
	const n = 37
	want := p.Chunks(n)
	seen := make([]int32, want)
	p.ForBalanced(n, units(n), func(chunk, lo, hi int) {
		if chunk < 0 || chunk >= want {
			t.Errorf("chunk %d outside [0,%d)", chunk, want)
			return
		}
		atomic.AddInt32(&seen[chunk], 1)
	})
	for c, s := range seen {
		if s != 1 {
			t.Fatalf("chunk %d ran %d times", c, s)
		}
	}
}

func TestParallelNilAndSerialAreInline(t *testing.T) {
	var p *Parallel
	if got := p.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	if got := NewParallel(-1); got != nil {
		t.Fatalf("NewParallel(-1) = %v, want nil", got)
	}
	if got := NewParallel(1); got != nil {
		t.Fatalf("NewParallel(1) = %v, want nil", got)
	}
	calls := 0
	p.ForBalanced(10, units(10), func(chunk, lo, hi int) {
		calls++
		if chunk != 0 || lo != 0 || hi != 10 {
			t.Fatalf("nil pool chunked: chunk=%d lo=%d hi=%d", chunk, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool made %d calls, want 1", calls)
	}
}

func TestParallelForErrReturnsLowestChunkError(t *testing.T) {
	p := NewParallel(4)
	e1, e3 := errors.New("chunk 1"), errors.New("chunk 3")
	err := p.ForBalancedErr(400, units(400), func(chunk, lo, hi int) error {
		switch chunk {
		case 1:
			return e1
		case 3:
			return e3
		}
		return nil
	})
	if err != e1 {
		t.Fatalf("ForBalancedErr returned %v, want lowest-chunk error %v", err, e1)
	}
	if err := p.ForBalancedErr(100, units(100), func(_, _, _ int) error { return nil }); err != nil {
		t.Fatalf("ForBalancedErr with no failures returned %v", err)
	}
}

func TestParallelNestedRegionsStayBounded(t *testing.T) {
	p := NewParallel(4)
	var live, peak int32
	p.ForBalanced(16, units(16), func(_, lo, hi int) {
		// Nested fan-out from inside a chunk: must complete (inline when
		// saturated) and never exceed the worker bound.
		p.ForBalanced(64, units(64), func(_, lo2, hi2 int) {
			n := atomic.AddInt32(&live, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			atomic.AddInt32(&live, -1)
		})
	})
	if int(peak) > p.Workers() {
		t.Fatalf("nested fan-out reached %d concurrent bodies, bound is %d", peak, p.Workers())
	}
}

func TestParallelGate(t *testing.T) {
	p := NewParallel(8)
	if p.Gate(parallelGrain-1) != nil {
		t.Fatal("Gate kept the pool below the grain")
	}
	if p.Gate(parallelGrain) != p {
		t.Fatal("Gate dropped the pool at the grain")
	}
	var nilP *Parallel
	if nilP.Gate(1<<20) != nil {
		t.Fatal("Gate resurrected a nil pool")
	}
}
