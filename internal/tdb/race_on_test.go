//go:build race

package tdb

// raceEnabled reports whether the race detector is active. The
// allocation bounds skip under it: the race runtime instruments
// allocations, so counts per call are not the program's own.
const raceEnabled = true
