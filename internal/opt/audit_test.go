package opt

import (
	"math"
	"testing"

	"edr/internal/sim"
)

// sameFloat is bit-for-bit equality, with every NaN equal to every other
// (math.Max may return either NaN operand).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// threePassViolation is Violation as three separate passes — row sums,
// column sums, then every entry — each folding its candidates into the
// worst with math.Max: the reference the one-pass scan must equal.
func threePassViolation(p *Problem, x [][]float64) float64 {
	worst := 0.0
	for c, r := range RowSums(x) {
		worst = math.Max(worst, math.Abs(r-p.Demands[c]))
	}
	for n, load := range ColSums(x) {
		worst = math.Max(worst, load-p.System.Replicas[n].Bandwidth)
	}
	mask := p.Allowed()
	for c := range x {
		for n, v := range x[c] {
			worst = math.Max(worst, -v)
			if !mask[c][n] {
				worst = math.Max(worst, math.Abs(v))
			}
		}
	}
	return worst
}

// FuzzAudit checks the one-pass audit against the three separate checks
// it replaces on matrices that break every constraint: entries off the
// latency mask, negative, over capacity, infinite and NaN. Violation, Cost
// and KKTGap must match bit for bit, and so must the column loads and
// their marginal costs. The packed measures must match the dense ones on
// the matrix the packed vector scatters into, bit for bit too.
func FuzzAudit(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), []byte{})
	f.Add(uint64(2), uint8(5), uint8(2), []byte{0, 7, 13, 22, 31, 44})
	f.Add(uint64(3), uint8(1), uint8(1), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint8(6), uint8(4), []byte{255, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, seed uint64, cRaw, nRaw uint8, specials []byte) {
		c, n := int(cRaw%6)+1, int(nRaw%4)+1
		r := sim.NewRand(seed)
		prices := make([]float64, n)
		for j := range prices {
			prices[j] = r.Range(1, 20)
		}
		demands := make([]float64, c)
		for i := range demands {
			demands[i] = r.Range(1, 60)
		}
		p := testProblem(t, prices, demands)
		x := NewMatrix(c, n)
		for i := range x {
			for j := range x[i] {
				if r.Float64() < 0.7 {
					x[i][j] = r.Range(0, demands[i])
				}
			}
		}
		for k, b := range specials {
			i, j := (int(b)+k)%c, (int(b)/c+k)%n
			switch b % 8 {
			case 0:
				x[i][j] = -r.Range(0, 10)
			case 1:
				p.Latency[i][j] = 0.005 // off the mask, mass or not
			case 2:
				x[i][j] = 50 + r.Range(0, 200) // past a default 100 MB/s column
			case 3:
				x[i][j] = math.NaN()
			case 4:
				x[i][j] = math.Inf(1)
			case 5:
				x[i][j] = 0 // an unused entry next to used ones
			case 6:
				x[i][j] = math.Copysign(0, -1)
			case 7:
				x[i][j] = math.Inf(-1)
			}
		}
		au := p.Audit(x)
		want := threePassViolation(p, x)
		if got := p.Violation(x); !sameFloat(got, want) {
			t.Fatalf("Violation %v, three-pass reference %v", got, want)
		}
		if !sameFloat(au.Violation, want) {
			t.Fatalf("audit violation %v, three-pass reference %v", au.Violation, want)
		}
		if want := p.Cost(x); !sameFloat(au.Cost, want) {
			t.Fatalf("audit cost %v, Cost %v", au.Cost, want)
		}
		if want := KKTGap(p, x); !sameFloat(au.KKTGap, want) {
			t.Fatalf("audit gap %v, KKTGap %v", au.KKTGap, want)
		}
		for j, load := range ColSums(x) {
			if want := p.System.Replicas[j].MarginalCost(load); !sameFloat(au.Marginal[j], want) {
				t.Fatalf("audit marginal[%d] %v, MarginalCost %v", j, au.Marginal[j], want)
			}
		}
		v, scattered := p.Sparsity().Gather(nil, x), NewMatrix(c, n)
		p.Sparsity().Scatter(scattered, v)
		if got, want := p.PackedViolation(v), p.Violation(scattered); !sameFloat(got, want) {
			t.Fatalf("PackedViolation %v, Violation of the scattered matrix %v", got, want)
		}
		if got, want := p.PackedCost(v), p.Cost(scattered); !sameFloat(got, want) {
			t.Fatalf("PackedCost %v, Cost of the scattered matrix %v", got, want)
		}
	})
}

// auditSink keeps BenchmarkAudit's result live.
var auditSink Audit

// BenchmarkAudit times one audit of a quiet round's merged matrix at fleet
// scale: 10 000 clients over 10 replicas, each client reaching a rotating
// half of them and splitting its demand evenly over that half.
func BenchmarkAudit(b *testing.B) {
	const clients, replicas = 10000, 10
	r := sim.NewRand(1)
	prices := make([]float64, replicas)
	for j := range prices {
		prices[j] = r.Range(1, 20)
	}
	demands := make([]float64, clients)
	for i := range demands {
		demands[i] = r.Range(0.005, 0.05)
	}
	p := testProblem(b, prices, demands)
	for c := range p.Latency {
		for n := range p.Latency[c] {
			if (n-c%replicas+replicas)%replicas >= replicas/2 {
				p.Latency[c][n] = 0.005 // beyond the bound
			}
		}
	}
	x, err := p.UniformStart()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditSink = p.Audit(x)
	}
}
