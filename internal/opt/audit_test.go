package opt

import (
	"math"
	"slices"
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
// and the stationarity gap at ColSums' loads must match bit for bit, and so
// must the column loads and their marginal costs. The packed measures must
// match the dense ones on the matrix the packed vector scatters into, bit
// for bit too.
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
		marginal, unsat := p.marginals(ColSums(x))
		if want := p.stationarityGap(x, marginal, unsat); !sameFloat(au.KKTGap, want) {
			t.Fatalf("audit gap %v, stationarity gap at ColSums %v", au.KKTGap, want)
		}
		for j, load := range ColSums(x) {
			if want := p.System.Replicas[j].MarginalCost(load); !sameFloat(au.Marginal[j], want) {
				t.Fatalf("audit marginal[%d] %v, MarginalCost %v", j, au.Marginal[j], want)
			}
		}
		v, scattered := p.Sparsity().Gather(x), NewMatrix(c, n)
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
// half of them and splitting its demand evenly over that half, each row
// allocated on its own as committed rows are. full is Problem.Audit;
// carried is AuditFrom the previous matrix's state with 100 of the rows
// rescaled, as a quiet round's gate runs it.
func BenchmarkAudit(b *testing.B) {
	const clients, replicas, changed = 10000, 10, 100
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
	for c := range x {
		x[c] = slices.Clone(x[c])
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			auditSink = p.Audit(x)
		}
	})
	b.Run("carried", func(b *testing.B) {
		_, st := p.AuditCarried(x)
		next := &Problem{System: p.System, Demands: slices.Clone(p.Demands), Latency: p.Latency, MaxLatency: p.MaxLatency}
		y := slices.Clone(x)
		rows := make([]int, 0, changed)
		for c := 0; c < clients; c += clients / changed {
			ratio := r.Range(0.99, 1.01)
			y[c] = slices.Clone(x[c])
			for n := range y[c] {
				y[c][n] *= ratio
			}
			next.Demands[c] *= ratio
			rows = append(rows, c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			auditSink, _ = next.AuditFrom(y, st, nil, rows)
		}
	})
}

// chainClient is one row of an audit chain: its assignment row, demand and
// latency row.
type chainClient struct {
	row, lat []float64
	demand   float64
}

// auditChain drives a random chain of matrices through the carried audit
// and checks every step against Problem.Audit bit for bit. Each byte of
// ops is a step: with its low bit clear the rows stay in place (the
// identity row map), else rows depart and newcomers arrive through a row
// map; every kept row is left as it was, rescaled (row and demand by one
// ratio) or redrawn. Bits 2–3 set the share of a drawn row's cells that
// are special — negative, past capacity, −0, off the mask, or within a
// factor 3 of the served threshold — and bit 5 adds NaN and ±Inf to them
// (the first rows are drawn at 10 %, finite). With bit 4 set another
// matrix is audited from the state first and its step dropped, as a
// rejected result is. It returns how many times a carry rebuilt the
// pattern table.
func auditChain(t *testing.T, seed uint64, cRaw, nRaw uint8, ops []byte) (compactions int) {
	r := sim.NewRand(seed)
	n := int(nRaw%12) + 1
	prices := make([]float64, n)
	for j := range prices {
		prices[j] = r.Range(1, 20)
	}
	// Demands spread log-uniformly over 0.05–60 MB, so that many rows sit
	// under the 1 MB floor of the served threshold 1e-9·max(1, R), where a
	// rescale moves the threshold and the row's entries differently.
	demand := func() float64 { return 0.05 * math.Exp(r.Range(0, math.Log(1200))) }
	specials, nonFinite := 0.1, false
	draw := func(cl *chainClient) {
		cl.row = make([]float64, n)
		used := []float64{0.7, 0.25}[r.Intn(2)] // dense and sparse rows
		for j := range cl.row {
			if r.Float64() < used {
				cl.row[j] = r.Range(0, cl.demand)
			}
			if r.Float64() >= specials {
				continue
			}
			kind := r.Intn(6)
			if nonFinite && r.Intn(2) == 0 {
				kind = 6 + r.Intn(3)
			}
			switch kind {
			case 0:
				cl.row[j] = -r.Range(0, 10)
			case 1:
				cl.row[j] = 50 + r.Range(0, 200)
			case 2:
				cl.row[j] = math.Copysign(0, -1)
			case 3, 4:
				cl.row[j] = 1e-9 * max(1, cl.demand) * r.Range(0.3, 3)
			case 5:
				cl.lat[j] = 0.005 // off the mask, mass or not
			case 6:
				cl.row[j] = math.NaN()
			case 7:
				cl.row[j] = math.Inf(1)
			case 8:
				cl.row[j] = math.Inf(-1)
			}
		}
	}
	newcomer := func() chainClient {
		cl := chainClient{lat: make([]float64, n), demand: demand()}
		for j := range cl.lat {
			cl.lat[j] = 0.0005
			if r.Float64() < 0.3 {
				cl.lat[j] = 0.005
			}
		}
		draw(&cl)
		return cl
	}
	instance := func(cs []chainClient) (*Problem, [][]float64) {
		demands := make([]float64, len(cs))
		x := make([][]float64, len(cs))
		for i, cl := range cs {
			demands[i], x[i] = cl.demand, cl.row
		}
		p := testProblem(t, prices, demands)
		for i, cl := range cs {
			p.Latency[i] = cl.lat
		}
		return p, x
	}
	check := func(step int, p *Problem, x [][]float64, got Audit) {
		t.Helper()
		want := p.Audit(x)
		if !sameFloat(got.Violation, want.Violation) || !sameFloat(got.Cost, want.Cost) || !sameFloat(got.KKTGap, want.KKTGap) {
			t.Fatalf("step %d: carried audit (violation %v, cost %v, gap %v), full audit (%v, %v, %v)",
				step, got.Violation, got.Cost, got.KKTGap, want.Violation, want.Cost, want.KKTGap)
		}
		for j := range want.Marginal {
			if !sameFloat(got.Marginal[j], want.Marginal[j]) {
				t.Fatalf("step %d: carried marginal[%d] %v, full audit %v", step, j, got.Marginal[j], want.Marginal[j])
			}
		}
	}

	cur := make([]chainClient, int(cRaw%24)+1)
	for i := range cur {
		cur[i] = newcomer()
	}
	p, x := instance(cur)
	au, st := p.AuditCarried(x)
	check(0, p, x, au)
	for k, op := range ops {
		specials, nonFinite = []float64{0, 0.05, 0.15, 0.3}[op>>2&3], op&32 != 0
		var next []chainClient
		var rowMap, changed []int
		for o, cl := range cur {
			if op&1 != 0 && r.Float64() < 0.25 {
				next, rowMap = append(next, newcomer()), append(rowMap, -1)
			}
			if op&1 != 0 && r.Float64() < 0.2 {
				continue // departed
			}
			switch r.Intn(4) {
			case 2:
				ratio := r.Range(0.25, 4)
				scaled := make([]float64, n)
				for j, v := range cl.row {
					scaled[j] = v * ratio
				}
				cl.row, cl.demand = scaled, cl.demand*ratio
				changed = append(changed, len(next))
			case 3:
				cl.lat = slices.Clone(cl.lat)
				cl.demand = demand()
				draw(&cl)
				changed = append(changed, len(next))
			}
			next, rowMap = append(next, cl), append(rowMap, o)
		}
		if len(next) == 0 {
			next, rowMap = append(next, newcomer()), append(rowMap, -1)
		}
		if op&1 == 0 {
			rowMap = nil
		}
		p, x = instance(next)
		if op&16 != 0 {
			// A rejected result: audited from st, then dropped.
			other := slices.Clone(x)
			i := r.Intn(len(other))
			other[i] = slices.Clone(other[i])
			other[i][r.Intn(n)] += r.Range(-5, 5)
			dropped, _ := p.AuditFrom(other, st, rowMap, mergeRow(changed, i))
			check(k+1, p, other, dropped)
		}
		au, step := p.AuditFrom(x, st, rowMap, changed)
		check(k+1, p, x, au)
		before := st.pats
		st = step.Carry()
		if st.pats != before {
			compactions++
		}
		if got := len(st.pats.keys); got > 2*len(st.worst)+patternSlack {
			t.Fatalf("step %d: pattern table holds %d patterns for %d rows", k+1, got, len(st.worst))
		}
		cur = next
	}
	return compactions
}

// mergeRow is rows with i added, ascending.
func mergeRow(rows []int, i int) []int {
	if at, found := slices.BinarySearch(rows, i); !found {
		return slices.Insert(slices.Clone(rows), at, i)
	}
	return rows
}

// FuzzAuditFrom checks the carried audit against Problem.Audit, bit for
// bit, over random chains (see auditChain): Violation, Cost, KKTGap and
// Marginal at every step, with rescaled and redrawn rows, newcomers and
// departures through a row map, NaN and ±Inf cells, and dropped steps.
func FuzzAuditFrom(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), []byte{0, 1, 2, 3})
	f.Add(uint64(2), uint8(20), uint8(9), []byte{4, 5, 8, 9, 12, 13, 16, 17, 28, 29})
	f.Add(uint64(3), uint8(0), uint8(0), []byte{1, 1, 1, 1, 0, 0})
	f.Add(uint64(4), uint8(23), uint8(11), []byte{29, 28, 13, 12, 25, 24, 9, 8})
	f.Fuzz(func(t *testing.T, seed uint64, cRaw, nRaw uint8, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		auditChain(t, seed, cRaw, nRaw, ops)
	})
}

// TestAuditStateStaysBounded runs a long chain whose redrawn rows keep
// minting patterns: the carries must rebuild the pattern table (auditChain
// checks the bound after each) and every step still matches the full
// audit.
func TestAuditStateStaysBounded(t *testing.T) {
	ops := make([]byte, 120)
	for i := range ops {
		ops[i] = byte(i%2) | 8
	}
	if got := auditChain(t, 5, 23, 11, ops); got == 0 {
		t.Fatal("no carry rebuilt the pattern table; the chain does not reach the bound")
	}
}
