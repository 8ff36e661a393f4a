package opt

import "math"

// Audit is one assignment's feasibility, cost and stationarity, measured
// together: Violation, Cost and KKTGap hold exactly — bit for bit — what
// Problem.Violation, Problem.Cost and KKTGap return on the same matrix,
// from one pass over it for the sums and one more for the gap instead of
// three passes with a column-sum pass each.
type Audit struct {
	Violation, Cost, KKTGap float64
	// Marginal is the replicas' marginal costs at x's column loads.
	Marginal []float64
}

// Audit measures x against the problem in two passes (see Audit).
func (p *Problem) Audit(x [][]float64) Audit {
	loads, worst := p.scan(x)
	marginal, unsat := p.marginals(loads)
	return Audit{
		Violation: p.capacityExcess(worst, loads),
		Cost:      p.System.CostOfLoads(loads),
		KKTGap:    p.stationarityGap(x, marginal, unsat),
		Marginal:  marginal,
	}
}

// scan makes the one pass over x that Violation and Audit share: x's
// column loads, and the worst of every per-entry and per-row violation —
// negativity (−p)₊, mass off the latency mask |p|, and demand error
// |Σ_n p_{c,n} − R_c|. Loads accumulate row by row from zero and row sums
// entry by entry, as ColSums, RowSums and model.System.TotalCost do, so
// every sum is theirs bit for bit. The worst folds its candidates with
// plain comparisons yet returns exactly what a math.Max fold would, which
// is order-independent: +Inf if any candidate is +Inf, else NaN if any is
// NaN, else the largest. A NaN entry makes its row sum NaN, so the
// row-sum candidate alone is watched for NaN.
func (p *Problem) scan(x [][]float64) (loads []float64, worst float64) {
	loads = make([]float64, p.N())
	mask := p.Allowed()
	nan := false
	for c, row := range x {
		sum, allowed := 0.0, mask[c]
		for n, v := range row {
			sum += v
			loads[n] += v
			if -v > worst {
				worst = -v
			}
			if !allowed[n] && math.Abs(v) > worst {
				worst = math.Abs(v)
			}
		}
		if e := math.Abs(sum - p.Demands[c]); e > worst {
			worst = e
		} else if e != e {
			nan = true
		}
	}
	if nan && !math.IsInf(worst, 1) {
		worst = math.NaN()
	}
	return loads, worst
}

// PackedCost is Cost of the matrix that v, packed over p.Sparsity() in
// CSR order, scatters into — bit for bit, since each column sums its
// entries in client order as Cost's row-by-row loads do.
func (p *Problem) PackedCost(v []float64) float64 {
	return p.System.CostOfLoads(p.Sparsity().ColSumsInto(make([]float64, p.N()), v))
}

// PackedViolation is Violation of the matrix that v, packed over
// p.Sparsity() in CSR order, scatters into — bit for bit: scan's sums run
// in the same orders, and the off-support zeros it visits move neither a
// sum nor the worst.
func (p *Problem) PackedViolation(v []float64) float64 {
	sp := p.Sparsity()
	worst := 0.0
	for c := 0; c < sp.C; c++ {
		sum := 0.0
		for _, x := range v[sp.RowStart[c]:sp.RowStart[c+1]] {
			sum += x
			worst = math.Max(worst, -x)
		}
		worst = math.Max(worst, math.Abs(sum-p.Demands[c]))
	}
	return p.capacityExcess(worst, sp.ColSumsInto(make([]float64, sp.N), v))
}

// capacityExcess folds the columns' capacity excess (Σ_c p_{c,n} − B_n)₊
// into worst.
func (p *Problem) capacityExcess(worst float64, loads []float64) float64 {
	for n, load := range loads {
		worst = math.Max(worst, load-p.System.Replicas[n].Bandwidth)
	}
	return worst
}

// marginals prices every column at its load, and marks the columns with
// spare capacity (below B_n by more than a relative hair).
func (p *Problem) marginals(loads []float64) (marginal []float64, unsat []bool) {
	n := p.N()
	marginal = make([]float64, n)
	unsat = make([]bool, n)
	for j := 0; j < n; j++ {
		rep := p.System.Replicas[j]
		marginal[j] = rep.MarginalCost(loads[j])
		unsat[j] = loads[j] < rep.Bandwidth-1e-9*math.Max(1, rep.Bandwidth)
	}
	return marginal, unsat
}

// stationarityGap is KKTGap's per-client pass over x given the columns'
// marginals and spare capacity.
func (p *Problem) stationarityGap(x [][]float64, marginal []float64, unsat []bool) float64 {
	mask := p.Allowed()
	const tiny = 1e-9
	gap := 0.0
	for c, row := range x {
		maxUsed := math.Inf(-1)
		minFree := math.Inf(1)
		used := tiny * max(1, p.Demands[c])
		allowed := mask[c]
		for j, v := range row {
			m := marginal[j]
			if v > used && m > maxUsed {
				maxUsed = m
			}
			if allowed[j] && unsat[j] && m < minFree {
				minFree = m
			}
		}
		if diff := maxUsed - minFree; diff > 0 && !math.IsInf(maxUsed, -1) && !math.IsInf(minFree, 1) {
			gap += p.Demands[c] * diff
		}
	}
	return gap
}
