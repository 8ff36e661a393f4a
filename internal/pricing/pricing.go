// Package pricing generates the regional electricity prices u_n used by
// the EDR energy cost model.
//
// The paper (§IV-A.2) draws an integer price between 1 and 20 ¢/kWh for
// each replica in every experiment "to simulate various power prices of
// data centers in different geographical locations", and fixes the vector
// {1, 8, 1, 6, 1, 5, 2, 3} for the Fig. 6/7 runs. This package provides
// both, plus a small catalog of real-world-shaped regional profiles for
// the examples.
package pricing

import (
	"fmt"

	"edr/internal/sim"
)

// MinPrice and MaxPrice bound the paper's uniform price draw (¢/kWh).
const (
	MinPrice = 1
	MaxPrice = 20
)

// PaperFigure6Prices is the fixed price vector used for the paper's
// per-replica cost figures: replicas No.1..No.8 pay 1,8,1,6,1,5,2,3 ¢/kWh.
func PaperFigure6Prices() []float64 {
	return []float64{1, 8, 1, 6, 1, 5, 2, 3}
}

// Uniform draws n integer prices uniformly from [MinPrice, MaxPrice],
// reproducing the paper's random price generation.
func Uniform(r *sim.Rand, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("pricing: Uniform(%d) needs n > 0", n))
	}
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = float64(r.IntBetween(MinPrice, MaxPrice))
	}
	return prices
}

// Region is a named electricity-market profile for examples and docs.
type Region struct {
	// Name is a human-readable market label.
	Name string
	// CentsPerKWh is the flat industrial rate.
	CentsPerKWh float64
}

// Regions is a small catalog of stylized 2013-era regional industrial
// rates, ordered cheap to expensive. Values are illustrative; the EDR
// optimization depends only on their ratios.
func Regions() []Region {
	return []Region{
		{Name: "us-northwest-hydro", CentsPerKWh: 3},
		{Name: "us-midwest", CentsPerKWh: 5},
		{Name: "us-southeast", CentsPerKWh: 6},
		{Name: "us-texas", CentsPerKWh: 7},
		{Name: "eu-nordics", CentsPerKWh: 8},
		{Name: "us-california", CentsPerKWh: 12},
		{Name: "eu-west", CentsPerKWh: 15},
		{Name: "asia-east", CentsPerKWh: 18},
	}
}
