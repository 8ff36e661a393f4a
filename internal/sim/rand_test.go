package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRandDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRandSplitIndependent(t *testing.T) {
	a := NewRand(7)
	b := a.Split()
	// The split stream must not be a shifted copy of the parent.
	av, bv := a.Uint64(), b.Uint64()
	if av == bv {
		t.Fatal("split stream mirrors parent")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) over 1000 draws hit only %d values", len(seen))
	}
}

func TestIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestIntBetweenInclusive(t *testing.T) {
	r := NewRand(11)
	sawLo, sawHi := false, false
	for i := 0; i < 2000; i++ {
		v := r.IntBetween(1, 20)
		if v < 1 || v > 20 {
			t.Fatalf("IntBetween(1,20) = %d", v)
		}
		if v == 1 {
			sawLo = true
		}
		if v == 20 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatalf("endpoints not reachable: lo=%v hi=%v", sawLo, sawHi)
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(13)
	const rate, n = 2.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%g) mean = %g, want ~%g", rate, mean, 1/rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfRankZeroMostPopular(t *testing.T) {
	r := NewRand(23)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 drawn %d times, rank 50 %d times; Zipf not skewed", counts[0], counts[50])
	}
	// Rough shape check: P(0)/P(1) ~ 2 for s=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("P(0)/P(1) = %g, want ~2", ratio)
	}
}

func TestZipfDrawInRange(t *testing.T) {
	r := NewRand(29)
	z := NewZipf(r, 7, 1.2)
	for i := 0; i < 10000; i++ {
		if v := z.Draw(); v < 0 || v >= 7 {
			t.Fatalf("Zipf.Draw = %d out of [0,7)", v)
		}
	}
}

func TestZipfBadArgsPanic(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {5, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %g) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(NewRand(1), tc.n, tc.s)
		}()
	}
}
