package opt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Parallel is a bounded worker pool for fanning the independent units of a
// solver kernel across cores: the per-row / per-column sweeps inside the
// feasible-set projections. It exists because those units are
// embarrassingly parallel — each writes disjoint state — while the
// surrounding iteration stays sequential.
//
// Design rules the callers rely on:
//
//   - Determinism: ForBalanced partitions [0, n) into the same contiguous
//     chunks every call, and callers give each index (or each chunk)
//     disjoint output state, so a parallel run is bit-for-bit identical to
//     the serial one — only the wall clock changes. Reductions (max
//     movement, first error) happen serially after the fan-out.
//   - Nil is serial: a nil *Parallel is valid and runs everything inline,
//     so call sites need no branching; NewParallel returns nil for serial
//     configurations.
//   - Bounded and nest-safe: at most workers goroutines exist per pool.
//     When a parallel region is entered from inside another, chunk
//     handoff degrades to inline execution instead of spawning
//     unboundedly.
type Parallel struct {
	workers int
	tokens  chan struct{}
}

// NewParallel sizes a pool from the conventional knob encoding used across
// the module's configs: n > 0 pins the worker count, n == 0 is automatic
// (GOMAXPROCS, so `go test -cpu 1,8` exercises both paths), and n < 0
// forces serial execution (returns nil). A one-worker pool is also nil:
// there is nothing to fan out to.
func NewParallel(n int) *Parallel {
	if n < 0 {
		return nil
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n <= 1 {
		return nil
	}
	p := &Parallel{workers: n, tokens: make(chan struct{}, n-1)}
	for i := 0; i < n-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Workers reports the pool width (1 for a nil/serial pool).
func (p *Parallel) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Chunks reports how many chunks ForBalanced/ForBalancedErr will split n
// units into — callers allocating per-chunk scratch size it with this.
func (p *Parallel) Chunks(n int) int {
	w := p.Workers()
	if n < w {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Gate returns p when work (a rough element count per call) is large
// enough to amortize goroutine handoff, nil (serial) otherwise. The gate
// only affects speed, never results — parallel and serial are bit-equal.
func (p *Parallel) Gate(work int) *Parallel {
	if p == nil || work < parallelGrain {
		return nil
	}
	return p
}

// parallelGrain is the smallest per-For work (elements touched) worth a
// fan-out; below it the chunk handoff dominates the arithmetic. Test-sized
// instances (tens of elements) stay serial, paper-scale ones fan out.
const parallelGrain = 512

// ForBalanced splits [0, n) into Chunks(n) contiguous chunks balanced by
// cumulative weight and runs fn(chunk, lo, hi) for each, concurrently when
// workers are free and inline otherwise (a nested region never spawns past
// the bound), returning when all chunks are done. cum (len n+1,
// non-decreasing, cum[0] = 0) gives the cumulative work before each unit,
// and chunk c covers the units whose weight spans [c·W/chunks,
// (c+1)·W/chunks) where W = cum[n]. Sparse row sweeps pass a CSR RowStart so
// workers get equal nnz even when row fan-outs differ wildly. Chunk indexes
// are dense in [0, Chunks(n)) so fn can index per-chunk scratch, and
// boundaries depend only on cum and the pool width, so callers giving each
// unit disjoint output state get chunking-independent results.
func (p *Parallel) ForBalanced(n int, cum []int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if len(cum) != n+1 {
		panic(fmt.Sprintf("opt: ForBalanced got %d-slot cum for %d units", len(cum), n))
	}
	chunks := p.Chunks(n)
	if chunks <= 1 {
		fn(0, 0, n)
		return
	}
	total := cum[n]
	bound := func(c int) int {
		// Smallest i with cum[i]·chunks ≥ total·c; monotone in c.
		target := total * c / chunks
		i := sort.SearchInts(cum, target+1) - 1
		if i < 0 {
			i = 0
		} else if i > n {
			i = n
		}
		return i
	}
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := bound(c), bound(c+1)
		if c == chunks-1 {
			hi = n
		}
		select {
		case <-p.tokens:
			wg.Add(1)
			go func(c, lo, hi int) {
				defer func() {
					p.tokens <- struct{}{}
					wg.Done()
				}()
				fn(c, lo, hi)
			}(c, lo, hi)
		default:
			fn(c, lo, hi)
		}
	}
	fn(0, 0, bound(1))
	wg.Wait()
}

// ForBalancedErr is ForBalanced with error collection: each chunk may
// return an error, and the lowest-indexed chunk's error is returned — the
// error a serial left-to-right loop would have surfaced first. All chunks
// run to completion regardless.
func (p *Parallel) ForBalancedErr(n int, cum []int, fn func(chunk, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	chunks := p.Chunks(n)
	if chunks <= 1 {
		if len(cum) != n+1 {
			panic(fmt.Sprintf("opt: ForBalancedErr got %d-slot cum for %d units", len(cum), n))
		}
		return fn(0, 0, n)
	}
	errs := make([]error, chunks)
	p.ForBalanced(n, cum, func(chunk, lo, hi int) {
		errs[chunk] = fn(chunk, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
