package bench

import (
	"io"
	"slices"
	"time"

	"repro"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "starvation-freedom of the Figure 3 stack (Lemmas 2-3)",
		Claim: "with the FLAG/TURN round-robin over a deadlock-free lock, every process completes operations under saturation (Jain index near 1, non-zero minimum); the same stack without the round-robin inherits only deadlock-freedom",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E10",
		Title: "lock transformation (§4.4): deadlock-free → starvation-free",
		Claim: "RoundRobin(TAS) buys ticket-lock-class fairness for a few extra shared accesses; raw TAS can be arbitrarily unfair",
		Run:   runE10,
	})
}

func runE4(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	procs := cfg.Procs
	tb := metrics.NewTable("configuration", "total ops", "min/proc", "max/proc", "jain")
	defer cfg.logTable("E4 fairness", tb)

	variants := []row{
		// RR over TAS, the raw-TAS row's lock, so that the two rows
		// differ only in the round-robin.
		{"sensitive RR(TAS) [paper]", func(k, procs int) repro.Ops {
			s := stack.NewSensitiveFrom[uint64](stack.NewAbortable[uint64](k, procs), procs, lock.NewRoundRobin(lock.NewTAS(), procs), nil)
			return sched.PushPop(s, s.Push, s.Pop)
		}},
		{"sensitive raw TAS (no RR)", func(k, procs int) repro.Ops {
			s := stack.NewSensitiveFrom[uint64](stack.NewAbortable[uint64](k, procs), procs, lock.IgnorePid(lock.NewTAS()), nil)
			return sched.PushPop(s, s.Push, s.Pop)
		}},
		{"lock-based TAS", func(k, _ int) repro.Ops {
			s := stack.NewLockBasedWith[uint64](k, lock.IgnorePid(lock.NewTAS()))
			return sched.PushPop(s, s.Push, s.Pop)
		}},
		{"lock-based ticket", func(k, _ int) repro.Ops {
			s := stack.NewLockBasedWith[uint64](k, lock.IgnorePid(lock.NewTicket()))
			return sched.PushPop(s, s.Push, s.Pop)
		}},
	}
	// Every count covers the same barrier-released window, so min/proc
	// measures starvation, not a late-spawned worker's head start.
	var longest time.Duration
	for _, v := range variants {
		counts, elapsed := hammer(procs, cfg.Duration, cfg.Seed, v.build(8, procs))
		longest = max(longest, elapsed)
		lo, hi := metrics.MinMax(counts)
		tb.AddRow(v.name, metrics.Sum(counts), lo, hi, metrics.JainIndex(counts))
	}
	if err := fprintf(w, "per-process completions over measured windows of ≤ %v at %d procs (tiny stack, maximal conflicts)\n",
		longest.Round(time.Microsecond), procs); err != nil {
		return err
	}
	return fprintf(w, "%s", tb.String())
}

func runE10(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	procs := cfg.Procs
	tb := metrics.NewTable("lock", "liveness", "sections/s", "min/proc", "max/proc", "jain", "longest dry spell")
	defer cfg.logTable("E10 lock liveness", tb)

	type variant struct {
		name string
		mk   func() lock.PidLock
	}
	variants := []variant{
		{"TAS", func() lock.PidLock { return lock.IgnorePid(lock.NewTAS()) }},
		{"TTAS", func() lock.PidLock { return lock.IgnorePid(lock.NewTTAS()) }},
		{"Backoff", func() lock.PidLock { return lock.IgnorePid(lock.NewBackoff()) }},
		{"Ticket", func() lock.PidLock { return lock.IgnorePid(lock.NewTicket()) }},
		{"Mutex", func() lock.PidLock { return lock.IgnorePid(lock.NewMutex()) }},
		{"Tournament", func() lock.PidLock { return lock.NewTournament(procs) }},
		{"RR(TAS) [§4.4]", func() lock.PidLock { return lock.NewRoundRobin(lock.NewTAS(), procs) }},
		{"RR(TTAS) [Figure 3]", func() lock.PidLock { return lock.NewFigure3(procs) }},
		{"RR(Backoff)", func() lock.PidLock { return lock.NewRoundRobin(lock.NewBackoff(), procs) }},
	}
	for _, v := range variants {
		lk := v.mk()
		// Longest gap between two consecutive acquisitions by the
		// same process, across all processes: the starvation proxy.
		// Each process's clock starts at barrier release.
		gaps := make([]time.Duration, procs)
		counts, elapsed := runTimed(procs, cfg.Seed, sleep(cfg.Duration), func(pid int, _ *workload.RNG, start time.Time) func() {
			last, worst := start, time.Duration(0)
			return func() {
				lk.Acquire(pid)
				now := time.Now()
				if g := now.Sub(last); g > worst {
					worst, gaps[pid] = g, g
				}
				last = now
				lk.Release(pid)
			}
		})
		worstGap := slices.Max(gaps)
		liveness := "deadlock-free"
		if li, ok := lk.(lock.LivenessInfo); ok {
			liveness = li.Liveness().String()
		}
		lo, hi := metrics.MinMax(counts)
		tb.AddRow(v.name, liveness, rate(counts, elapsed),
			lo, hi, metrics.JainIndex(counts), worstGap.String())
	}
	if err := fprintf(w, "critical sections over %v at %d procs\n", cfg.Duration, procs); err != nil {
		return err
	}
	return fprintf(w, "%s", tb.String())
}
