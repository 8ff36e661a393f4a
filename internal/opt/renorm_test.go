package opt

import (
	"math"
	"testing"
)

func rowSumsClose(t *testing.T, x [][]float64, demands []float64) {
	t.Helper()
	rows := RowSums(x)
	for i, r := range rows {
		if math.Abs(r-demands[i]) > 1e-9 {
			t.Fatalf("row %d sums to %g, want %g", i, r, demands[i])
		}
	}
}

// renormalize calls Renormalize and checks that it rescaled weights in
// place: the result is its weights argument.
func renormalize(t *testing.T, weights [][]float64, demands, caps []float64, allowed [][]bool) [][]float64 {
	t.Helper()
	out := Renormalize(weights, demands, caps, allowed)
	if len(out) != len(weights) || len(out) > 0 && &out[0] != &weights[0] {
		t.Fatal("Renormalize returned a matrix other than its weights argument")
	}
	return out
}

func TestRenormalizeShrunkRosterConservesDemand(t *testing.T) {
	// History over 3 replicas; replica 1 left. Weights are the surviving
	// columns of the old assignment (caller aligned), so proportions among
	// survivors are preserved.
	demands := []float64{30, 20}
	weights := [][]float64{
		{10, 20}, // old split 10/15/20 → survivors 10,20
		{0, 5},   // old split 0/15/5 → survivors 0,5
	}
	out := renormalize(t, weights, demands, nil, nil)
	rowSumsClose(t, out, demands)
	if math.Abs(out[0][0]-10) > 1e-9 || math.Abs(out[0][1]-20) > 1e-9 {
		t.Fatalf("row 0 proportions lost: %v", out[0])
	}
	if out[1][0] != 0 || math.Abs(out[1][1]-20) > 1e-9 {
		t.Fatalf("row 1 should pile onto the only weighted column: %v", out[1])
	}
}

func TestRenormalizeGrownRosterUniformFallback(t *testing.T) {
	// A client with no history (all-zero weights) spreads uniformly over
	// its allowed columns; a new replica column starts at zero for clients
	// with history.
	demands := []float64{24, 12}
	weights := [][]float64{
		{6, 2, 0}, // third column is the new replica: no history
		{0, 0, 0}, // brand-new client
	}
	allowed := [][]bool{
		{true, true, true},
		{true, false, true},
	}
	out := renormalize(t, weights, demands, nil, allowed)
	rowSumsClose(t, out, demands)
	if out[0][2] != 0 {
		t.Fatalf("new replica should start without load from history: %v", out[0])
	}
	if math.Abs(out[1][0]-6) > 1e-9 || out[1][1] != 0 || math.Abs(out[1][2]-6) > 1e-9 {
		t.Fatalf("uniform fallback should respect the mask: %v", out[1])
	}
}

func TestRenormalizeRespectsCaps(t *testing.T) {
	// Renormalizing after a departure would pile 60 MB onto a 40 MB
	// replica; the excess must move to the column with headroom.
	demands := []float64{30, 30}
	weights := [][]float64{
		{30, 0},
		{30, 0},
	}
	caps := []float64{40, 100}
	out := renormalize(t, weights, demands, caps, nil)
	rowSumsClose(t, out, demands)
	cols := ColSums(out)
	for j, cap := range caps {
		if cols[j] > cap+1e-6 {
			t.Fatalf("column %d load %g exceeds cap %g", j, cols[j], cap)
		}
	}
}

func TestRenormalizeCapsWithMask(t *testing.T) {
	// Row 0 may only use columns 0 and 1; excess from column 0 must not
	// leak onto its disallowed column 2.
	demands := []float64{50, 10}
	weights := [][]float64{
		{50, 0, 0},
		{10, 0, 0},
	}
	caps := []float64{20, 60, 60}
	allowed := [][]bool{
		{true, true, false},
		{true, true, true},
	}
	out := renormalize(t, weights, demands, caps, allowed)
	rowSumsClose(t, out, demands)
	if out[0][2] != 0 {
		t.Fatalf("excess leaked onto a disallowed column: %v", out[0])
	}
	cols := ColSums(out)
	for j, cap := range caps {
		if cols[j] > cap+1e-6 {
			t.Fatalf("column %d load %g exceeds cap %g", j, cols[j], cap)
		}
	}
}

func TestRenormalizeInfeasibleStillConserves(t *testing.T) {
	// Total demand 100 over total capacity 60: caps cannot hold, but
	// conservation must — downstream projection owns feasibility.
	demands := []float64{60, 40}
	weights := [][]float64{
		{1, 1},
		{1, 1},
	}
	caps := []float64{30, 30}
	out := renormalize(t, weights, demands, caps, nil)
	rowSumsClose(t, out, demands)
}

func TestRenormalizeEmptyAndZeroColumns(t *testing.T) {
	if out := renormalize(t, nil, nil, nil, nil); len(out) != 0 {
		t.Fatalf("empty input should give empty output, got %v", out)
	}
	if out := renormalize(t, [][]float64{{}, {}}, []float64{1, 2}, nil, nil); len(out) != 2 || len(out[0]) != 0 {
		t.Fatalf("zero columns should stay zero columns, got %v", out)
	}
}

func TestRenormalizeZeroesNonPositiveWeights(t *testing.T) {
	// Overwriting in place must still clear what the history leaves
	// unusable: non-positive weights beside a positive one, and a row with
	// no positive weight whose uniform fallback skips disallowed columns.
	demands := []float64{12, 12}
	weights := [][]float64{
		{-3, 6, math.Copysign(0, -1)},
		{-1, -2, -4},
	}
	allowed := [][]bool{
		{true, true, true},
		{true, false, true},
	}
	out := renormalize(t, weights, demands, nil, allowed)
	want := [][]float64{{0, 12, 0}, {6, 0, 6}}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(out[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("row %d reads %v, want %v", i, out[i], want[i])
			}
		}
	}
}
