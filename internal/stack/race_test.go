//go:build race

package stack

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation adds allocations of its own.
const raceEnabled = true
