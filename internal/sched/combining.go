package sched

import (
	"fmt"

	"repro/internal/stack"
)

// CombiningCrashBuilder builds the §5 crash run for the flat-combining
// stack: process 0 pushes 100 on the contended path (publish, acquire
// the combiner lease, serve the publication list) and is crashed by
// the run's CrashPlan at a chosen shared access — including points
// where it holds the lease mid-pass, the failure a plain combiner lock
// cannot survive. Process 1 pops on the contended path; with the
// combiner dead its only way forward is the lease takeover: observe
// the heartbeat frozen for the lease budget, CAS-steal the lease, and
// re-serve the pending slots (its own pop, and the crashed process's
// push if still pending).
//
// Check asserts the dual §5 claim: process 1 completes, and the
// history is linearizable either without the crashed push or with it
// taking effect. With assertSteal it additionally requires that the
// recovery went through an actual lease steal — pin that only on
// schedules that crash the combiner with the lease held (early crash
// points die before acquisition, so the survivor acquires a free
// lease and no steal occurs).
func CombiningCrashBuilder(assertSteal bool) Builder {
	var post func(any) error
	if assertSteal {
		post = func(inst any) error {
			if st := inst.(*stack.Combining[uint64]).Stats(); st.Steals < 1 {
				return fmt.Errorf("recovery did not steal the lease (steals=%d)", st.Steals)
			}
			return nil
		}
	}
	return Program(Lookup("stack/combining", 4), nil, [][]Op{{{opPush, 100}}, {{opPop, 0}}}, post)
}

// CombiningTakeoverSchedule returns the builder, schedule and CrashPlan
// of the canonical deterministic lease takeover (the combining sibling
// of the ABA replays): process 0 runs alone until it holds the lease
// mid-pass — it has acquired the lease, raised CONTENTION, served its
// own push, and re-read the lease for process 1's pending pop — and is
// crashed at its next access (the slot's heartbeat bump), the worst
// case: lease held, CONTENTION up, a foreign request accepted but not
// served. The remaining decisions default to process 1, whose pop can
// only complete via the takeover: it observes (lease, beat) frozen for
// the full budget, steals the lease, and re-serves its own pop — so the
// replay's Check asserts Steals >= 1 as well as linearizability.
//
// The crash gate is implementation-exact and verified by the sched
// tests: p0's contended push gates loadLease + acquire CAS +
// CONTENTION write (3), then its own slot's deposed-check load +
// heartbeat bump + the 5-access boxed weak push (7), then the pending
// pop slot's deposed-check load (1) = 11 granted accesses; it parks at
// access 12, the pop slot's heartbeat bump.
func CombiningTakeoverSchedule() (Builder, []int, CrashPlan) {
	const crashGate = 11
	return CombiningCrashBuilder(true), segments(0, crashGate), CrashPlan{0: crashGate}
}

// CombiningCrashGates is one past the crash-free contended-push gate
// count of CombiningCrashBuilder's process 0 (acquire + CONTENTION +
// two slot applications + CONTENTION clear + release); sweeping crashAt
// over [0, CombiningCrashGates] therefore crashes the combiner at
// every §5 step of the protocol, lease-held points included, plus the
// completed-run endpoint. Verified by the sched tests against a probe
// of the actual trace.
const CombiningCrashGates = 20
