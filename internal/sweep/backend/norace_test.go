//go:build !race

package backend_test

// raceEnabled reports whether the race detector is on. It adds
// allocations, and sync.Pool drops some of the objects put back.
const raceEnabled = false
