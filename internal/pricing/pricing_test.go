package pricing

import (
	"testing"

	"edr/internal/sim"
)

func TestPaperFigure6Prices(t *testing.T) {
	want := []float64{1, 8, 1, 6, 1, 5, 2, 3}
	got := PaperFigure6Prices()
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prices = %v, want %v", got, want)
		}
	}
}

func TestPaperPricesFreshSlice(t *testing.T) {
	a := PaperFigure6Prices()
	a[0] = 99
	if b := PaperFigure6Prices(); b[0] != 1 {
		t.Fatal("PaperFigure6Prices shares state across calls")
	}
}

func TestUniformInRange(t *testing.T) {
	r := sim.NewRand(42)
	for trial := 0; trial < 50; trial++ {
		prices := Uniform(r, 8)
		if len(prices) != 8 {
			t.Fatalf("len = %d", len(prices))
		}
		for _, u := range prices {
			if u < MinPrice || u > MaxPrice || u != float64(int(u)) {
				t.Fatalf("price %g outside integer [1,20]", u)
			}
		}
	}
}

func TestUniformDeterministicBySeed(t *testing.T) {
	a := Uniform(sim.NewRand(7), 8)
	b := Uniform(sim.NewRand(7), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different prices")
		}
	}
}

func TestUniformCoversRange(t *testing.T) {
	r := sim.NewRand(11)
	seen := map[float64]bool{}
	for trial := 0; trial < 200; trial++ {
		for _, u := range Uniform(r, 8) {
			seen[u] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("only %d/20 price levels drawn", len(seen))
	}
}

func TestUniformBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(r, 0) did not panic")
		}
	}()
	Uniform(sim.NewRand(1), 0)
}

func TestRegionsOrderedCheapToExpensive(t *testing.T) {
	regions := Regions()
	if len(regions) < 4 {
		t.Fatalf("catalog too small: %d", len(regions))
	}
	for i := 1; i < len(regions); i++ {
		if regions[i].CentsPerKWh < regions[i-1].CentsPerKWh {
			t.Fatalf("catalog not ordered at %d: %v", i, regions)
		}
	}
	for _, reg := range regions {
		if reg.Name == "" || reg.CentsPerKWh <= 0 {
			t.Fatalf("bad region %+v", reg)
		}
	}
}
