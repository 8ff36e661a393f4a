package cluster

import (
	"testing"
	"time"

	"edr/internal/sim"
)

func TestNewSystemGNodeDefaults(t *testing.T) {
	n := NewSystemGNode("replica1")
	if n.IdleWatts != 215 || n.PeakWatts != 240 {
		t.Fatalf("defaults = %g/%g, want 215/240", n.IdleWatts, n.PeakWatts)
	}
	if n.Name != "replica1" {
		t.Fatalf("name = %q", n.Name)
	}
}

func TestUtilizationStepFunction(t *testing.T) {
	n := NewSystemGNode("r")
	t0 := sim.Epoch
	n.SetUtilization(t0.Add(1*time.Second), 0.5)
	n.SetUtilization(t0.Add(3*time.Second), 1.0)
	n.SetUtilization(t0.Add(5*time.Second), 0)

	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},                 // before first point
		{1 * time.Second, 0.5}, // at a point
		{2 * time.Second, 0.5}, // between points
		{3 * time.Second, 1.0},
		{4500 * time.Millisecond, 1.0},
		{5 * time.Second, 0},
		{time.Hour, 0}, // long after
	}
	for _, tc := range cases {
		if got := n.UtilizationAt(t0.Add(tc.at)); got != tc.want {
			t.Errorf("UtilizationAt(+%v) = %g, want %g", tc.at, got, tc.want)
		}
	}
}

func TestPowerInterpolatesIdlePeak(t *testing.T) {
	n := NewSystemGNode("r")
	t0 := sim.Epoch
	if got := n.PowerAt(t0); got != 215 {
		t.Fatalf("idle power = %g, want 215", got)
	}
	n.SetUtilization(t0, 1)
	if got := n.PowerAt(t0); got != 240 {
		t.Fatalf("peak power = %g, want 240", got)
	}
	n.SetUtilization(t0.Add(time.Second), 0.4)
	if got := n.PowerAt(t0.Add(time.Second)); got != 215+0.4*25 {
		t.Fatalf("40%% power = %g, want 225", got)
	}
}

func TestSetUtilizationClamps(t *testing.T) {
	n := NewSystemGNode("r")
	n.SetUtilization(sim.Epoch, 2.5)
	if got := n.UtilizationAt(sim.Epoch); got != 1 {
		t.Fatalf("util clamped to %g, want 1", got)
	}
	n.SetUtilization(sim.Epoch.Add(time.Second), -3)
	if got := n.UtilizationAt(sim.Epoch.Add(time.Second)); got != 0 {
		t.Fatalf("util clamped to %g, want 0", got)
	}
}

func TestSetUtilizationSameInstantOverwrites(t *testing.T) {
	n := NewSystemGNode("r")
	n.SetUtilization(sim.Epoch, 0.3)
	n.SetUtilization(sim.Epoch, 0.9)
	if got := n.UtilizationAt(sim.Epoch); got != 0.9 {
		t.Fatalf("util = %g, want overwrite 0.9", got)
	}
}

func TestSetUtilizationOutOfOrderPanics(t *testing.T) {
	n := NewSystemGNode("r")
	n.SetUtilization(sim.Epoch.Add(time.Minute), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order SetUtilization did not panic")
		}
	}()
	n.SetUtilization(sim.Epoch, 0.5)
}

func TestReset(t *testing.T) {
	n := NewSystemGNode("r")
	n.SetUtilization(sim.Epoch, 1)
	n.Reset()
	if got := n.UtilizationAt(sim.Epoch.Add(time.Hour)); got != 0 {
		t.Fatalf("after Reset util = %g, want 0", got)
	}
	// Can set earlier times again after reset.
	n.SetUtilization(sim.Epoch, 0.5)
	if got := n.UtilizationAt(sim.Epoch); got != 0.5 {
		t.Fatalf("after Reset set util = %g", got)
	}
}

func TestNewSystemGCluster(t *testing.T) {
	c := NewSystemG(8)
	if len(c.Nodes) != 8 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	if c.Node(0).Name != "replica1" || c.Node(7).Name != "replica8" {
		t.Fatalf("names: %q .. %q", c.Node(0).Name, c.Node(7).Name)
	}
	c.Node(2).SetUtilization(sim.Epoch, 1)
	c.Reset()
	if got := c.Node(2).UtilizationAt(sim.Epoch); got != 0 {
		t.Fatal("cluster Reset did not reset node")
	}
}

func TestNewSystemGBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystemG(0) did not panic")
		}
	}()
	NewSystemG(0)
}

func TestUtilizationManyPointsBinarySearch(t *testing.T) {
	n := NewSystemGNode("r")
	t0 := sim.Epoch
	for i := 0; i < 1000; i++ {
		n.SetUtilization(t0.Add(time.Duration(i)*time.Second), float64(i%2))
	}
	// Query between steps 500 and 501: value set at 500 is 0.
	if got := n.UtilizationAt(t0.Add(500*time.Second + time.Millisecond)); got != 0 {
		t.Fatalf("util at 500.001s = %g, want 0", got)
	}
	if got := n.UtilizationAt(t0.Add(501*time.Second + time.Millisecond)); got != 1 {
		t.Fatalf("util at 501.001s = %g, want 1", got)
	}
}
