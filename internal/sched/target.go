package sched

import (
	"errors"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/deque"
	lin "repro/internal/linearizability"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/set"
	"repro/internal/stack"
	"repro/internal/workload"
)

// KindSpec is what a history check knows about one object kind beyond
// its repro.Ops driver: the history names of its op codes, how many
// leading op codes insert a fresh value, the op-code draw of a
// recorded history (which also picks a set's key), the sequential
// model and the capacity recorded histories check it at, and the
// kind's sentinel errors.
type KindSpec struct {
	Names                []string
	Inserts              int
	Draw                 func(rng *workload.RNG) (op int, key uint64)
	Model                func(k int) lin.Model
	Capacity             int
	Full, Empty, Aborted error
}

// setKeys is the set histories' key range: small, so windows overlap
// constantly, and over the hash set's 2-bucket fresh table it keeps
// every lazy split and sentinel adoption inside the recorded
// histories.
const setKeys = 8

// balanced draws a balanced insert/remove mix (op 0 or 1).
func balanced(rng *workload.RNG) (int, uint64) {
	if workload.Balanced.NextIsPush(rng) {
		return 0, 0
	}
	return 1, 0
}

// Kinds is the per-kind table the model-checked programs and
// internal/bench's recorded histories check by.
var Kinds = map[string]KindSpec{
	repro.KindStack: {[]string{"push", "pop"}, 1, balanced, lin.StackModel, 6,
		stack.ErrFull, stack.ErrEmpty, stack.ErrAborted},
	repro.KindQueue: {[]string{"enq", "deq"}, 1, balanced, lin.QueueModel, 5,
		queue.ErrFull, queue.ErrEmpty, queue.ErrAborted},
	repro.KindDeque: {[]string{"pushl", "pushr", "popl", "popr"}, 2,
		func(rng *workload.RNG) (int, uint64) { return rng.Intn(4), 0 }, lin.DequeModel, 6,
		deque.ErrFull, deque.ErrEmpty, deque.ErrAborted},
	repro.KindSet: {[]string{"add", "rem", "has"}, 0,
		func(rng *workload.RNG) (int, uint64) { return rng.Intn(3), uint64(rng.Intn(setKeys)) },
		func(int) lin.Model { return lin.SetModel() }, 0, nil, nil, set.ErrAborted},
}

// Outcome maps an op's error to its history outcome. Only a weak
// target's ops may abort; any other error is a bug and panics.
func (ks KindSpec) Outcome(err error, weak bool) string {
	switch {
	case err == nil:
		return lin.OutcomeOK
	case errors.Is(err, ks.Full):
		return lin.OutcomeFull
	case errors.Is(err, ks.Empty):
		return lin.OutcomeEmpty
	case weak && errors.Is(err, ks.Aborted):
		return lin.OutcomeAborted
	default:
		panic(err)
	}
}

// Op codes of repro.Ops, by kind, for the plans written here. opMorph
// is a control action past the set's op names: the adaptive set's
// MorphTo(pid, rung V), which a program runs but does not record.
const (
	opPush, opPop                    = 0, 1 // a queue's enq and deq too
	opPushL, opPushR, opPopL, opPopR = 0, 1, 2, 3
	opAdd, opRem, opHas, opMorph     = 0, 1, 2, 3
)

// Target is one observed backend a program model-checks. Build
// returns the uniform op-indexed driver (see repro.Ops) over a fresh
// instance of capacity k for procs processes, its shared registers
// reporting to obs; it sets Ops.Instance to the concrete object, so a
// program's post-check can reach its pool stats and snapshot. K is the
// capacity a program builds and checks it at, 0 for an unbounded
// target. A Weak target's ops are single attempts whose aborts are
// dropped from the history.
type Target struct {
	Name  string
	Kind  string
	K     int
	Weak  bool
	Build func(k, procs int, obs memory.Observer) repro.Ops
}

// combiningLeaseBudget is the shrunken steal budget the deterministic
// combining runs pin: a waiter that observes the (lease, heartbeat)
// pair frozen for 3 consecutive iterations presumes the combiner
// crashed and steals the lease. Small enough that a pinned schedule
// reaches the takeover in a handful of decisions, large enough that
// the waiter demonstrably tolerates a live-but-slow combiner first.
const combiningLeaseBudget = 3

// targets is the table of observed backends. A bounded entry's K is
// its kind's recorded-history capacity; Lookup replaces it.
var targets = []Target{
	{"stack/boxed", repro.KindStack, 6, true, func(k, procs int, obs memory.Observer) repro.Ops {
		// The Figure 1 stack, its values in a write-once arena behind
		// packed 〈index, handle, seq〉 registers (the name predates that
		// layout).
		s := stack.NewAbortableObserved[uint64](k, procs, obs)
		return PushPop(s, s.TryPush, s.TryPop)
	}},
	{"stack/packed", repro.KindStack, 6, true, func(k, _ int, obs memory.Observer) repro.Ops {
		s := stack.NewPackedObserved(k, obs)
		return PushPop(s, func(pid int, v uint64) error { return s.TryPush(pid, uint32(v)) },
			func(pid int) (uint64, error) { v, err := s.TryPop(pid); return uint64(v), err })
	}},
	{"stack/naive", repro.KindStack, 6, true, func(k, _ int, obs memory.Observer) repro.Ops {
		// §2.2's deliberately untagged strawman.
		s := stack.NewNaiveObserved[uint64](k, obs)
		return PushPop(s, s.TryPush, s.TryPop)
	}},
	{"stack/pooled-treiber", repro.KindStack, 0, true, func(_, procs int, obs memory.Observer) repro.Ops {
		s := stack.NewTreiberObserved[uint64](procs, obs)
		return PushPop(s, s.TryPush, s.TryPop)
	}},
	{"stack/combining", repro.KindStack, 6, false, func(k, procs int, obs memory.Observer) repro.Ops {
		// Every op takes the contended path: publish, then combine or
		// wait, stealing a frozen lease after combiningLeaseBudget.
		s := stack.NewCombiningObserved(k, procs, obs)
		s.SetLeaseBudget(combiningLeaseBudget)
		return PushPop(s, s.PushContended, s.PopContended)
	}},
	{"queue/boxed", repro.KindQueue, 5, true, func(k, _ int, obs memory.Observer) repro.Ops {
		// The generic abortable ring queue, its values in place in the
		// ring's cells (the name predates that layout).
		q := queue.NewAbortableObserved[uint64](k, obs)
		return PushPop(q, func(_ int, v uint64) error { return q.TryEnqueue(v) },
			func(int) (uint64, error) { return q.TryDequeue() })
	}},
	{"queue/packed", repro.KindQueue, 5, true, func(k, _ int, obs memory.Observer) repro.Ops {
		q := queue.NewPackedObserved(k, obs)
		return PushPop(q, func(_ int, v uint64) error { return q.TryEnqueue(uint32(v)) },
			func(int) (uint64, error) { v, err := q.TryDequeue(); return uint64(v), err })
	}},
	{"queue/pooled-ms", repro.KindQueue, 0, false, func(_, procs int, obs memory.Observer) repro.Ops {
		q := queue.NewMichaelScottObserved[uint64](procs, obs)
		return PushPop(q, q.Enqueue, q.Dequeue)
	}},
	{"deque/abortable", repro.KindDeque, 6, true, func(k, _ int, obs memory.Observer) repro.Ops {
		d := deque.NewAbortableObserved(k, obs)
		return repro.Ops{N: 4, Instance: d, Do: func(_, op int, v uint64) (uint64, error) {
			var got uint32
			var err error
			switch op {
			case opPushL:
				err = d.TryPushLeft(uint32(v))
			case opPushR:
				err = d.TryPushRight(uint32(v))
			case opPopL:
				got, err = d.TryPopLeft()
			default:
				got, err = d.TryPopRight()
			}
			return uint64(got), err
		}}
	}},
	{"set/cow", repro.KindSet, 0, true, func(_, _ int, obs memory.Observer) repro.Ops {
		s := set.NewAbortableObserved(obs)
		return repro.Ops{N: 3, Instance: s, Do: func(_, op int, k uint64) (uint64, error) {
			return boolOp([...]func(uint64) (bool, error){s.TryAdd, s.TryRemove, s.TryContains}[op](k))
		}}
	}},
	{"set/harris", repro.KindSet, 0, false, func(_, procs int, obs memory.Observer) repro.Ops {
		return strongSet(set.NewHarrisObserved(procs, obs))
	}},
	{"set/hash", repro.KindSet, 0, false, func(_, procs int, obs memory.Observer) repro.Ops {
		// The split-ordered hash layer over the same list: bucket
		// words and per-bucket sentinels share the one node pool, so
		// bucket initialization shares the recycling hazards.
		return strongSet(set.NewHashObserved(procs, obs))
	}},
	{"set/adaptive", repro.KindSet, 0, false, func(_, procs int, obs memory.Observer) repro.Ops {
		// Starts on the cow rung; op opMorph moves it to rung V.
		s := adaptive.NewSetObserved(procs, adaptive.Thresholds{QuiesceBudget: 1 << 10}, obs)
		d := strongSet(s)
		do := d.Do
		d.Do = func(pid, op int, v uint64) (uint64, error) {
			if op == opMorph {
				return boolOp(s.MorphTo(pid, int(v)), nil)
			}
			return do(pid, op, v)
		}
		return d
	}},
}

// Lookup returns the named target at capacity k; an unbounded target
// ignores k. It panics on an unknown name, which only a typo in a
// program can produce.
func Lookup(name string, k int) Target {
	for _, t := range targets {
		if t.Name == name {
			if t.K != 0 {
				t.K = k
			}
			return t
		}
	}
	panic("sched: unknown target " + name)
}

// PushPop is the two-op driver (op 0 push/enqueue, op 1 pop/dequeue)
// over instance x's closures.
func PushPop(x any, push func(pid int, v uint64) error, pop func(pid int) (uint64, error)) repro.Ops {
	return repro.Ops{N: 2, Instance: x, Do: func(pid, op int, v uint64) (uint64, error) {
		if op == 0 {
			return 0, push(pid, v)
		}
		return pop(pid)
	}}
}

// strongSet drives a never-aborting set through its pid-taking
// methods, answering 1 or 0.
func strongSet(s interface {
	Add(pid int, k uint64) bool
	Remove(pid int, k uint64) bool
	Contains(pid int, k uint64) bool
}) repro.Ops {
	return repro.Ops{N: 3, Instance: s, Do: func(pid, op int, k uint64) (uint64, error) {
		return boolOp([...]func(int, uint64) bool{s.Add, s.Remove, s.Contains}[op](pid, k), nil)
	}}
}

func boolOp(got bool, err error) (uint64, error) {
	if got {
		return 1, err
	}
	return 0, err
}
