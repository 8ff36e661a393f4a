package cohort

import (
	"fmt"
	"math"

	"edr/internal/opt"
)

// This file holds the sparsity-aware cohort adapters: a packed
// Disaggregate and a packed row fold that move assignments between the full
// (|C|×|N|) and reduced (|K|×|N|) instances through their opt.Sparsity
// views, with no dense |C|×|N| intermediate, plus the per-client → cohort
// dual fold.
//
// The structural fact everything below leans on: cohort keying is exact
// on the feasibility mask, so member c's CSR row segment in the full
// sparsity and cohort of[c]'s row segment in the reduced sparsity have
// the same width and the same ColIdx sequence. Walking the two segments
// in lockstep is therefore a bijection between a member's feasible links
// and its cohort's — no per-entry column lookup, no mask test.

// Sparse returns the (full, reduced) sparsity pair the packed adapters
// index through, building and caching them on the respective problems on
// first use (the reduced view is primed at Group time).
func (g *Grouping) Sparse() (full, reduced *opt.Sparsity) {
	return g.orig.Sparsity(), g.reduced.Sparsity()
}

// AggregateRowsPacked folds a per-client dense matrix into packed cohort
// rows (reduced CSR order) by summation, the packed adjoint of
// Disaggregate, used to seed warm starts at cohort granularity from a
// per-client history. Only the feasible entries of full are read; for
// mask-supported input (anything produced by Disaggregate or Renormalize)
// the result is bitwise the reduced-sparsity gather of the members' row
// sums, each cohort's members added in client order. Clients beyond
// len(full) (departed mid-reconfiguration) contribute nothing.
func (g *Grouping) AggregateRowsPacked(full [][]float64) []float64 {
	fullSp, redSp := g.Sparse()
	dst := make([]float64, redSp.NNZ())
	for c, k := range g.of {
		if c >= len(full) {
			break
		}
		row := full[c]
		kb := redSp.RowStart[k]
		for s, fk := 0, fullSp.RowStart[c]; fk < fullSp.RowStart[c+1]; s, fk = s+1, fk+1 {
			dst[kb+s] += row[fullSp.ColIdx[fk]]
		}
	}
	return dst
}

// DisaggregatePacked maps a packed cohort-level assignment (reduced CSR
// order) to a packed per-client one (full CSR order), with the same
// semantics as Disaggregate — negative clamp, proportional split by
// demand share, exact-conservation residual folded into the first-maximum
// entry, even-spread fallback for loaded-but-zero rows — and bitwise the
// same values at every feasible slot (masked slots simply do not exist
// here; Disaggregate writes exact zeros there).
func (g *Grouping) DisaggregatePacked(vk []float64) ([]float64, error) {
	fullSp, redSp := g.Sparse()
	if len(vk) != redSp.NNZ() {
		return nil, fmt.Errorf("cohort: DisaggregatePacked got %d slots for %d reduced nnz", len(vk), redSp.NNZ())
	}
	dst := make([]float64, fullSp.NNZ())
	row := make([]float64, redSp.MaxRowNNZ())
	for k, mem := range g.members {
		kb, ke := redSp.RowStart[k], redSp.RowStart[k+1]
		w := ke - kb
		sum := 0.0
		for t := 0; t < w; t++ {
			v := vk[kb+t]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cohort: non-finite load vk[%d] (cohort %d slot %d) = %g", kb+t, k, t, v)
			}
			if v < 0 {
				v = 0
			}
			row[t] = v
			sum += v
		}
		if sum <= 0 {
			// No load to apportion: spread each member's demand evenly over
			// the cohort's feasible links (zero-demand members get zeros).
			for _, c := range mem {
				cb := fullSp.RowStart[c]
				if g.orig.Demands[c] == 0 || w == 0 {
					for t := 0; t < w; t++ {
						dst[cb+t] = 0
					}
					continue
				}
				share := g.orig.Demands[c] / float64(w)
				for t := 0; t < w; t++ {
					dst[cb+t] = share
				}
			}
			continue
		}
		for _, c := range mem {
			cb := fullSp.RowStart[c]
			f := g.orig.Demands[c] / sum
			got := 0.0
			best, bestVal := -1, 0.0
			for t := 0; t < w; t++ {
				v := row[t] * f
				dst[cb+t] = v
				got += v
				if v > bestVal {
					best, bestVal = t, v
				}
			}
			// Exact conservation: the residual is ~ulp-sized, folded into
			// the first-maximum entry exactly as the dense adapter does.
			// best stays -1 only when every entry is (signed) zero — then
			// the residual is an exact zero too and slot 0 absorbs it.
			if best < 0 {
				best = 0
			}
			dst[cb+best] += g.orig.Demands[c] - got
		}
	}
	return dst, nil
}

// AggregateDuals folds per-client dual values into demand-weighted cohort
// duals (uniform-weighted for zero-demand cohorts), one per cohort — μ is a
// per-unit price, so the cohort's dual is its members' demand-weighted
// average.
func (g *Grouping) AggregateDuals(mu []float64) []float64 {
	dst := make([]float64, g.K())
	for k, mem := range g.members {
		num, den := 0.0, 0.0
		for _, c := range mem {
			if c >= len(mu) {
				continue
			}
			w := g.orig.Demands[c]
			if g.reduced.Demands[k] == 0 {
				w = 1
			}
			num += w * mu[c]
			den += w
		}
		if den > 0 {
			dst[k] = num / den
		}
	}
	return dst
}
