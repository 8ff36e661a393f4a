package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sum(v) / float64(len(v))
}

// tailRanks are the percentiles a tail may be reported at, highest first.
var tailRanks = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailRank picks the highest listed percentile that still has at least
// ten of n samples beyond it (p90 from 100 samples, p75 from 40); with
// fewer than 40 samples no tail is supported and the median stands in.
func tailRank(n int) float64 {
	for _, q := range tailRanks {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// tail returns v's tail value and the percentile it was taken at.
func tail(v []float64) (value, rank float64) {
	rank = tailRank(len(v))
	return quantile(sorted(v), rank), rank
}
