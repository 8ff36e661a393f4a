package opt

import "testing"

func TestPoolReusesBuffersAcrossRounds(t *testing.T) {
	var p Pool
	m1 := p.Matrix(3, 4)
	v1 := p.Vector(5)
	m1[1][2] = 9
	v1[0] = 7
	p.Release()

	m2 := p.Matrix(3, 4)
	v2 := p.Vector(5)
	if &m2[0][0] != &m1[0][0] {
		t.Error("same-shape matrix not reused after Release")
	}
	if &v2[0] != &v1[0] {
		t.Error("same-length vector not reused after Release")
	}
	// Reused buffers must come back zeroed.
	for i := range m2 {
		for j := range m2[i] {
			if m2[i][j] != 0 {
				t.Fatalf("reused matrix dirty at [%d][%d] = %g", i, j, m2[i][j])
			}
		}
	}
	for i, x := range v2 {
		if x != 0 {
			t.Fatalf("reused vector dirty at [%d] = %g", i, x)
		}
	}
}

func TestPoolShapesAreDistinct(t *testing.T) {
	var p Pool
	m1 := p.Matrix(2, 3)
	p.Release()
	m2 := p.Matrix(3, 2) // different shape: must be a fresh allocation
	if len(m2) != 3 || len(m2[0]) != 2 {
		t.Fatalf("matrix shape %dx%d, want 3x2", len(m2), len(m2[0]))
	}
	_ = m1
}

func TestPoolConcurrentAcquire(t *testing.T) {
	var p Pool
	done := make(chan [][]float64, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- p.Matrix(4, 4) }()
	}
	seen := make(map[*float64]bool)
	for i := 0; i < 8; i++ {
		m := <-done
		if seen[&m[0][0]] {
			t.Fatal("pool handed the same live matrix to two goroutines")
		}
		seen[&m[0][0]] = true
	}
}
