package sim

// A small deterministic PRNG (splitmix64 seeded xorshift) used across the
// simulator instead of math/rand so that every experiment is reproducible
// from a single uint64 seed regardless of Go version (math/rand's stream
// is not guaranteed stable across releases for all helpers).

import "math"

// Rand is a deterministic pseudo-random source. The zero value is invalid;
// use NewRand. Not safe for concurrent use — give each goroutine its own
// stream via Split.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded by seed. Two generators with the same
// seed produce identical streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up through splitmix so nearby seeds diverge immediately.
	r.next()
	return r
}

// Split derives an independent generator from the current stream, suitable
// for handing to a parallel component without sharing state.
func (r *Rand) Split() *Rand {
	return NewRand(r.next() ^ 0x9e3779b97f4a7c15)
}

// next advances the splitmix64 state and returns the next 64 random bits.
func (r *Rand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 { return r.next() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// IntBetween returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *Rand) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("sim: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed float64 with the given rate
// (mean 1/rate). It panics if rate <= 0. Used for Poisson inter-arrivals.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	u := r.Float64()
	// u is in [0,1); 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf returns a sampler over [0, n) with Zipfian exponent s (s > 0).
// Rank 0 is the most popular item. The sampler precomputes the CDF, so
// construction is O(n) and each Draw is O(log n).
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler. It panics if n <= 0 or s <= 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("sim: NewZipf requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
