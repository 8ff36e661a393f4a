// Package sim provides the simulator's deterministic substrate: a seeded
// random source with Zipf draws and the fixed Epoch traces start at.
package sim

import "time"

// Epoch is the instant simulated time starts at. Using a fixed epoch keeps
// traces comparable across runs.
var Epoch = time.Date(2013, time.September, 23, 0, 0, 0, 0, time.UTC)
