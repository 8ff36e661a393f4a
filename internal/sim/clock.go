// Package sim provides the simulator's deterministic substrate: a seeded
// random source with Zipf draws, the fixed Epoch traces start at, and a
// manually advanced virtual clock beside the wall clock, both satisfying
// the Clock interface.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Clock abstracts a time source. The virtual clock used by the simulator
// and the wall clock used by the live TCP runtime both implement it.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// WallClock is a Clock backed by the operating system's real time.
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// VirtualClock is a manually advanced Clock. The zero value is not usable;
// construct one with NewVirtualClock. It is safe for concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the instant virtual clocks start at by default. Using a fixed
// epoch keeps traces comparable across runs.
var Epoch = time.Date(2013, time.September, 23, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a virtual clock positioned at Epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: Epoch}
}

// NewVirtualClockAt returns a virtual clock positioned at t.
func NewVirtualClockAt(t time.Time) *VirtualClock {
	return &VirtualClock{now: t}
}

// Now returns the clock's current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time, like real time, never runs backwards.
func (c *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// AdvanceTo moves the clock forward to t. Moving to a time at or before
// the current instant is a no-op, so callers may freely pass event
// deadlines without ordering concerns.
func (c *VirtualClock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// Since returns the virtual duration elapsed since t.
func (c *VirtualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}
