//go:build !race

package core

// raceEnabled reports whether the race detector instrumented this build;
// allocation-count assertions are skipped under it.
const raceEnabled = false
