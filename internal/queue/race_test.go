//go:build race

package queue

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation adds allocations of its own.
const raceEnabled = true
