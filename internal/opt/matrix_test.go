package opt

import (
	"math"
	"testing"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if len(m) != 3 || len(m[0]) != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", len(m), len(m[0]))
	}
	for i := range m {
		for j := range m[i] {
			if m[i][j] != 0 {
				t.Fatalf("m[%d][%d] = %g, want 0", i, j, m[i][j])
			}
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(-1, 2) did not panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestNewMatrixRowsIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m[0] = append(m[0], 99) // must not clobber row 1 (capacity is clamped)
	if m[1][0] != 0 || m[1][1] != 0 {
		t.Fatalf("appending to row 0 corrupted row 1: %v", m[1])
	}
}

func TestCloneIndependent(t *testing.T) {
	m := [][]float64{{1, 2}, {3, 4}}
	c := Clone(m)
	c[0][0] = 99
	if m[0][0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

func TestCopy(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	dst := NewMatrix(2, 2)
	Copy(dst, src)
	if Dist(dst, src) != 0 {
		t.Fatalf("Copy mismatch: %v", dst)
	}
}

func TestArithmetic(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	b := [][]float64{{10, 20}, {30, 40}}

	ax := Clone(a)
	AXPY(ax, 2, b)
	if ax[0][1] != 42 {
		t.Fatalf("AXPY: %v", ax)
	}

	sc := Clone(a)
	Scale(sc, -1)
	if sc[1][0] != -3 {
		t.Fatalf("Scale: %v", sc)
	}
}

func TestDotNormDist(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 0}}
	b := [][]float64{{3, 1}, {0, 5}}
	if got := Dist(a, a); got != 0 {
		t.Fatalf("Dist(a,a) = %g", got)
	}
	if got := Dist(a, b); math.Abs(got-math.Sqrt(4+1+4+25)) > 1e-12 {
		t.Fatalf("Dist = %g", got)
	}
}

func TestColRowSums(t *testing.T) {
	m := [][]float64{
		{1, 2, 3},
		{4, 5, 6},
	}
	cols := ColSums(m)
	rows := RowSums(m)
	wantCols := []float64{5, 7, 9}
	wantRows := []float64{6, 15}
	for i := range wantCols {
		if cols[i] != wantCols[i] {
			t.Fatalf("ColSums = %v", cols)
		}
	}
	for i := range wantRows {
		if rows[i] != wantRows[i] {
			t.Fatalf("RowSums = %v", rows)
		}
	}
	if ColSums(nil) != nil {
		t.Fatal("ColSums(nil) != nil")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"AXPY": func() { AXPY(a, 1, b) },
		"Dist": func() { Dist(a, b) },
		"Copy": func() { Copy(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes did not panic", name)
				}
			}()
			fn()
		}()
	}
}
