//go:build race

package lddm

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
