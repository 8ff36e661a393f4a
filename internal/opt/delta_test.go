package opt

import (
	"fmt"
	"math"
	"testing"
)

// identity maps for the common no-churn case.
func identMaps(c, n int) (rowMap, colMap []int) {
	rowMap = make([]int, c)
	for i := range rowMap {
		rowMap[i] = i
	}
	colMap = make([]int, n)
	for j := range colMap {
		colMap[j] = j
	}
	return rowMap, colMap
}

func TestDiffRoundsIdenticalIsClean(t *testing.T) {
	prev := testProblem(t, []float64{1, 5, 9}, []float64{10, 20, 30, 40})
	next := testProblem(t, []float64{1, 5, 9}, []float64{10, 20, 30, 40})
	rowMap, colMap := identMaps(4, 3)
	d, err := DiffRounds(prev, next, rowMap, colMap, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dirty() || len(d.DirtyReplicas) != 0 {
		t.Fatalf("identical rounds produced dirty sets: %+v", d)
	}
	if len(d.CleanClients) != 4 {
		t.Fatalf("want 4 clean clients, got %v", d.CleanClients)
	}
}

func TestDiffRoundsDemandDrift(t *testing.T) {
	prev := testProblem(t, []float64{1, 5}, []float64{10, 20, 30})
	next := testProblem(t, []float64{1, 5}, []float64{10, 20.4, 30.0001})
	rowMap, colMap := identMaps(3, 2)
	// eps=1e-2: client 1 drifted 2% (dirty), client 2 drifted ~3e-6 (clean).
	d, err := DiffRounds(prev, next, rowMap, colMap, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.DirtyClients, []int{1}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("dirty clients %v, want %v", got, want)
	}
	if d.DemandDrift != 1 || d.MaskChanged != 0 || d.Promoted != 0 {
		t.Fatalf("counter mismatch: %+v", d)
	}
}

func TestDiffRoundsMaskChangeAndNewClient(t *testing.T) {
	prev := testProblem(t, []float64{1, 5}, []float64{10, 20})
	next := testProblem(t, []float64{1, 5}, []float64{10, 20, 15})
	next.Latency[0][1] = 0.005 // replica 1 fell out of client 0's bound
	rowMap := []int{0, 1, -1}  // client 2 is new this round
	_, colMap := identMaps(3, 2)
	d, err := DiffRounds(prev, next, rowMap, colMap, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DirtyClients) != 2 || d.DirtyClients[0] != 0 || d.DirtyClients[1] != 2 {
		t.Fatalf("dirty clients %v, want [0 2]", d.DirtyClients)
	}
	if d.MaskChanged != 2 {
		t.Fatalf("MaskChanged = %d, want 2", d.MaskChanged)
	}
}

func TestDiffRoundsReplicaPromotion(t *testing.T) {
	prev := testProblem(t, []float64{1, 5}, []float64{10, 20, 30})
	next := testProblem(t, []float64{1, 7}, []float64{10, 20, 30}) // replica 1 re-priced
	// Client 2 cannot reach replica 1, so promotion must skip it.
	prev.Latency[2][1] = 0.005
	next.Latency[2][1] = 0.005
	rowMap, colMap := identMaps(3, 2)
	d, err := DiffRounds(prev, next, rowMap, colMap, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DirtyReplicas) != 1 || d.DirtyReplicas[0] != 1 {
		t.Fatalf("dirty replicas %v, want [1]", d.DirtyReplicas)
	}
	if len(d.DirtyClients) != 2 || d.DirtyClients[0] != 0 || d.DirtyClients[1] != 1 {
		t.Fatalf("dirty clients %v, want [0 1]", d.DirtyClients)
	}
	if d.Promoted != 2 {
		t.Fatalf("Promoted = %d, want 2", d.Promoted)
	}
	if len(d.CleanClients) != 1 || d.CleanClients[0] != 2 {
		t.Fatalf("clean clients %v, want [2]", d.CleanClients)
	}
}

func TestDiffRoundsColumnPermutation(t *testing.T) {
	prev := testProblem(t, []float64{1, 5}, []float64{10, 20})
	next := testProblem(t, []float64{5, 1}, []float64{10, 20}) // columns swapped
	rowMap := []int{0, 1}
	d, err := DiffRounds(prev, next, rowMap, []int{1, 0}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dirty() || len(d.DirtyReplicas) != 0 {
		t.Fatalf("permuted-but-identical round produced dirty sets: %+v", d)
	}
	// A broken colMap (not a permutation) must be rejected, not misread.
	if _, err := DiffRounds(prev, next, rowMap, []int{0, 0}, 1e-3); err == nil {
		t.Fatal("non-permutation colMap accepted")
	}
}

func TestKKTGapDetectsMisplacedLoad(t *testing.T) {
	// Two replicas, prices 1 and 9; one client of demand 10 that can reach
	// both. All load on the expensive replica leaves a large gap; the
	// (near-)optimal split passes with a tiny gap.
	p := testProblem(t, []float64{1, 9}, []float64{10})
	bad := [][]float64{{0, 10}}
	if g := p.Audit(bad).KKTGap; g <= 0 {
		t.Fatalf("misplaced load scored gap %g, want > 0", g)
	}
	// Optimal: everything on the cheap replica until its marginal reaches
	// the expensive one's idle marginal; with u=1,α=1,β=0.01,γ=3 the
	// marginal at load 10 is 1·(1+0.03·100)=4 < 9, so all-on-cheap is
	// optimal and the used replica has the lowest marginal.
	good := [][]float64{{10, 0}}
	if g := p.Audit(good).KKTGap; g != 0 {
		t.Fatalf("optimal split scored gap %g, want 0", g)
	}
}

func TestKKTGapRespectsSaturation(t *testing.T) {
	// The cheap replica is saturated: remaining load must sit on the
	// expensive one, and that is optimal — gap must not flag it. At loads
	// (100, 40) the marginals are 301 and 441: the spill replica is the
	// most expensive used column AND the cheapest unsaturated one, so the
	// per-client difference is exactly zero.
	p := testProblem(t, []float64{1, 9}, []float64{140})
	x := [][]float64{{100, 40}} // replica 0 at its 100 MB bandwidth cap
	if g := p.Audit(x).KKTGap; g != 0 {
		t.Fatalf("saturated-optimal split scored gap %g, want 0", g)
	}
	if math.Signbit(p.Audit(x).KKTGap) {
		t.Fatal("gap must be non-negative")
	}
}

// A nil row map is the identity: it classifies exactly as the explicit
// one, and a mask row the next problem shares with the previous one is
// clean unless its demand drifted. Client counts that differ refuse it.
func TestDiffRoundsNilRowMapIsIdentity(t *testing.T) {
	prev := testProblem(t, []float64{1, 5, 9}, []float64{10, 20, 30, 40})
	next := testProblem(t, []float64{1, 5, 9}, []float64{10, 25, 30, 40})
	next.Latency[2][0] = 0.005 // client 2 loses replica 0
	mask := next.Allowed()
	// Clients 0 and 1 share their previous rows.
	shared := [][]bool{prev.Allowed()[0], prev.Allowed()[1], mask[2], mask[3]}
	next.PrimeMask(shared, nil)
	rowMap, colMap := identMaps(4, 3)
	want, err := DiffRounds(prev, next, rowMap, colMap, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiffRounds(prev, next, nil, colMap, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got.DirtyClients) != "[1 2]" {
		t.Fatalf("nil row map: %+v; explicit identity: %+v; want clients 1 and 2 dirty", got, want)
	}
	fewer := testProblem(t, []float64{1, 5, 9}, []float64{10, 20, 30})
	if _, err := DiffRounds(prev, fewer, nil, colMap, 1e-3); err == nil {
		t.Fatal("nil row map accepted across 4→3 clients")
	}
}
