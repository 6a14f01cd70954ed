package sched

import "fmt"

// Options tunes an exploration.
type Options struct {
	// MaxSchedules caps the number of schedules executed; 0 means
	// 100000. When the cap is hit, Report.Complete is false.
	MaxSchedules int
	// MaxSteps caps scheduling decisions per run (a guard against
	// accidentally scheduling spinning code); 0 means 10000.
	MaxSteps int
}

func (o Options) withDefaults() Options {
	if o.MaxSchedules == 0 {
		o.MaxSchedules = 100000
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 10000
	}
	return o
}

// Failure describes a schedule whose run failed its check.
type Failure struct {
	// Schedule is the decision sequence (pids) to pass to Replay.
	Schedule []int
	// Trace is the per-decision access trace.
	Trace []Step
	// Err is the check's error.
	Err error
}

func (f *Failure) Error() string {
	return fmt.Sprintf("schedule %v failed: %v", f.Schedule, f.Err)
}

// Report summarizes an exploration.
type Report struct {
	// Schedules is the number of schedules executed.
	Schedules int
	// Complete is true when the whole schedule tree was enumerated.
	Complete bool
	// Failure is the first failing schedule found, or nil.
	Failure *Failure
}

// Explore enumerates the schedule tree of build depth-first with
// replay (stateless model checking), stopping at the first failing
// schedule or when the budget runs out.
func Explore(build Builder, opts Options) Report {
	opts = opts.withDefaults()
	var rep Report
	prefix := []int{}
	for {
		out := runOnce(build, prefix, nil, opts.MaxSteps)
		rep.Schedules++
		if out.err != nil {
			rep.Failure = &Failure{Schedule: chosen(out.decisions), Trace: out.trace, Err: out.err}
			return rep
		}
		if rep.Schedules >= opts.MaxSchedules {
			return rep
		}
		// Backtrack to the deepest decision with an unexplored
		// sibling choice.
		d := len(out.decisions) - 1
		for d >= 0 {
			dec := out.decisions[d]
			idx := -1
			for i, c := range dec.candidates {
				if c == dec.chosen {
					idx = i
					break
				}
			}
			if idx+1 < len(dec.candidates) {
				prefix = append(chosen(out.decisions[:d]), dec.candidates[idx+1])
				break
			}
			d--
		}
		if d < 0 {
			rep.Complete = true
			return rep
		}
	}
}

// Walk samples random schedules of build: each decision picks
// uniformly among the ready processes. It is the fallback when the
// schedule tree is too large to enumerate; seed makes it reproducible.
func Walk(build Builder, runs int, seed uint64, opts Options) Report {
	opts = opts.withDefaults()
	var rep Report
	rng := seed
	for i := 0; i < runs; i++ {
		out := runRandom(build, &rng, opts.MaxSteps)
		rep.Schedules++
		if out.err != nil {
			rep.Failure = &Failure{Schedule: chosen(out.decisions), Trace: out.trace, Err: out.err}
			return rep
		}
	}
	return rep
}

// Replay executes one explicit schedule (a decision sequence as found
// in Failure.Schedule; past its end the lowest ready pid runs) under
// plan, and returns the access trace and the run's check or replay
// error. Each pid in plan permanently stops after its given number of
// granted shared accesses (the §5 crash model: a crashed process
// takes no further steps; its goroutine is leaked parked); the run
// ends when every non-crashed process finishes, and Check then
// validates the survivors' view. A nil plan means no crashes.
func Replay(build Builder, schedule []int, plan CrashPlan) ([]Step, error) {
	out := runOnce(build, schedule, plan, Options{}.withDefaults().MaxSteps)
	return out.trace, out.err
}

func chosen(decs []decision) []int {
	out := make([]int, len(decs))
	for i, d := range decs {
		out[i] = d.chosen
	}
	return out
}

// splitmix64 is the step function of the deterministic PRNG used for
// random walks.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
