package sched

import "fmt"

// CrashPlan is the §5 crash model made replayable: it maps a pid to
// the number of granted shared accesses after which that process
// crashes. A crashed process stops between two shared accesses —
// parked at its gate — and takes no further steps; it is never
// scheduled again, and the run ends when every surviving process
// finishes. A nil plan disables crashes. Like an explicit schedule, a
// CrashPlan is a value: the same plan over the same builder replays
// the same execution.
type CrashPlan map[int]int

// SweepCrashPoints replays build once per crash point g in [0, points]
// with process 0 crashed after g granted accesses, under the default
// deterministic schedule (lowest ready pid first): the crasher runs
// alone up to its g-th granted access and dies there, after which the
// survivors run to completion. A Program's check treats the crashed
// operation as pending. It returns the first failing crash point's
// error, wrapped with the point, or nil when every point passes.
// Sweeping every g from 0 to one past the operation's access count
// exercises a crash at every §5 step of the operation, including
// "crashed before any step" and "crashed after completing".
func SweepCrashPoints(points int, build Builder) error {
	for g := 0; g <= points; g++ {
		if _, err := Replay(build, nil, CrashPlan{0: g}); err != nil {
			return fmt.Errorf("crash point %d: %w", g, err)
		}
	}
	return nil
}
