package bench

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro"
	lin "repro/internal/linearizability"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/set"
	"repro/internal/stack"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "linearizability of recorded histories (§3 linearization points, Theorem 1)",
		Claim: "every implementation's concurrent histories admit a legal linearization; aborted weak operations take no effect",
		Run:   runE11,
	})
}

// LinTarget is one implementation checked by E11 and by cmd/lincheck:
// a named builder that returns a uniform do(pid, push, v) driver for a
// fresh instance plus that implementation's sentinel errors.
type LinTarget struct {
	Name  string
	Kind  string // "stack" or "queue"
	K     int    // model capacity (0 = unbounded)
	Build func(procs int) (do func(pid int, push bool, v uint64) (uint64, error), full, empty, aborted error)
}

// LinTargets returns the implementations the linearizability
// experiments cover: every stack and queue backend in the public
// catalog (built through its capability interface, with the
// catalog's LinOpts applied — e.g. the sharded queue is globally
// FIFO only when pinned to one stripe), plus the internal-only
// packed and pooled Figure 1 variants the catalog does not export.
func LinTargets() []LinTarget {
	var out []LinTarget
	for _, b := range repro.Catalog() {
		if b.Kind != repro.KindStack && b.Kind != repro.KindQueue {
			continue
		}
		b := b
		modelK := 0
		capacity := 6 // stack model capacity; queues use 5
		if b.Kind == repro.KindQueue {
			capacity = 5
		}
		if b.Bounded {
			modelK = capacity
		}
		name := b.Name
		if b.LinNote != "" {
			name += "[" + b.LinNote + "]"
		}
		out = append(out, LinTarget{name, b.Kind, modelK, func(procs int) (func(int, bool, uint64) (uint64, error), error, error, error) {
			opts := append([]repro.Option{repro.WithCapacity(capacity), repro.WithProcs(procs)}, b.LinOpts...)
			if b.Kind == repro.KindStack {
				s := b.Stack(opts...)
				return func(pid int, push bool, v uint64) (uint64, error) {
					if push {
						return 0, s.Push(pid, v)
					}
					return s.Pop(pid)
				}, stack.ErrFull, stack.ErrEmpty, abortSentinel(b, stack.ErrAborted)
			}
			q := b.Queue(opts...)
			return func(pid int, enq bool, v uint64) (uint64, error) {
				if enq {
					return 0, q.Enqueue(pid, v)
				}
				return q.Dequeue(pid)
			}, queue.ErrFull, queue.ErrEmpty, abortSentinel(b, queue.ErrAborted)
		}})
	}
	return append(out, internalLinTargets()...)
}

// abortSentinel returns the kind's abort error for weak backends and
// nil for strong ones (whose uniform operations never abort).
func abortSentinel(b repro.Backend, aborted error) error {
	if b.Weak {
		return aborted
	}
	return nil
}

// internalLinTargets covers the implementations that are deliberately
// not in the public catalog — the packed bit-packing variants — so
// their histories stay checked too, plus the Figure 1 stack driven
// directly under its pooled row name.
func internalLinTargets() []LinTarget {
	return []LinTarget{
		{"stack/packed", "stack", 6, func(procs int) (func(int, bool, uint64) (uint64, error), error, error, error) {
			s := stack.NewPacked(6)
			return func(pid int, push bool, v uint64) (uint64, error) {
				if push {
					return 0, s.TryPush(pid, uint32(v))
				}
				got, err := s.TryPop(pid)
				return uint64(got), err
			}, stack.ErrFull, stack.ErrEmpty, stack.ErrAborted
		}},
		{"stack/abortable-pooled", "stack", 6, func(procs int) (func(int, bool, uint64) (uint64, error), error, error, error) {
			s := stack.NewAbortable[uint64](6, procs)
			return func(pid int, push bool, v uint64) (uint64, error) {
				if push {
					return 0, s.TryPush(pid, v)
				}
				return s.TryPop(pid)
			}, stack.ErrFull, stack.ErrEmpty, stack.ErrAborted
		}},
		{"queue/packed", "queue", 5, func(procs int) (func(int, bool, uint64) (uint64, error), error, error, error) {
			q := queue.NewPacked(5)
			return func(_ int, enq bool, v uint64) (uint64, error) {
				if enq {
					return 0, q.TryEnqueue(uint32(v))
				}
				got, err := q.TryDequeue()
				return uint64(got), err
			}, queue.ErrFull, queue.ErrEmpty, queue.ErrAborted
		}},
	}
}

// SetLinTarget is one set-tier implementation checked by E11 and by
// cmd/lincheck: a named builder returning a uniform do(pid, op, key)
// driver — op is 0 for add, 1 for remove, 2 for contains — plus the
// implementation's abort sentinel (nil for strong backends).
type SetLinTarget struct {
	Name  string
	Build func(procs int) (do func(pid int, op int, k uint64) (bool, error), aborted error)
}

// SetLinTargets returns the set implementations the linearizability
// experiments cover: every set backend in the public catalog, driven
// through SetAPI (whose op shape — a boolean answer plus an abort
// error on the weak backend — is exactly what RunSetLin records).
// The hash target starts at its initial bucket count, and RunSetLin's
// 8-key range over the 2-bucket fresh table keeps every lazy split
// and sentinel adoption inside the recorded histories.
func SetLinTargets() []SetLinTarget {
	var out []SetLinTarget
	for _, b := range repro.CatalogByKind(repro.KindSet) {
		b := b
		name := b.Name
		if b.LinNote != "" {
			name += "[" + b.LinNote + "]"
		}
		out = append(out, SetLinTarget{name, func(procs int) (func(int, int, uint64) (bool, error), error) {
			opts := append([]repro.Option{repro.WithProcs(procs)}, b.LinOpts...)
			s := b.Set(opts...)
			return func(pid int, op int, k uint64) (bool, error) {
				switch op {
				case 0:
					return s.Add(pid, k)
				case 1:
					return s.Remove(pid, k)
				default:
					return s.Contains(pid, k)
				}
			}, abortSentinel(b, set.ErrAborted)
		}})
	}
	return out
}

// setKinds maps the op code to the history kind the set model steps.
var setKinds = [3]string{"add", "rem", "has"}

// RunSetLin is RunLin's set-tier sibling: keys are drawn from a small
// range so windows overlap constantly, and every answer (the boolean,
// as Output 0/1) must admit a legal linearization of the sorted-set
// model. Aborted weak attempts are dropped.
func RunSetLin(tgt SetLinTarget, procs, rounds, perRound int, seed uint64) (ops, aborts int, res lin.Result) {
	do, aborted := tgt.Build(procs)
	rec := lin.NewRecorder(procs)
	const keyRange = 8
	runRounds(rounds, procs, seed, func(_, pid int, rng *workload.RNG) {
		for i := 0; i < perRound; i++ {
			op := rng.Intn(3)
			k := uint64(rng.Intn(keyRange))
			pend := rec.Invoke(pid, setKinds[op], k)
			got, err := do(pid, op, k)
			out := uint64(0)
			if got {
				out = 1
			}
			switch {
			case err == nil:
				rec.Return(pend, out, lin.OutcomeOK)
			case aborted != nil && errors.Is(err, aborted):
				rec.Return(pend, 0, lin.OutcomeAborted)
			default:
				panic(err)
			}
		}
	})
	h := rec.History()
	return len(h), rec.Aborts(), lin.CheckSegmented(lin.SetModel(), h, 0, 0)
}

// RunLin records concurrent histories of one target (rounds bursts of
// perRound ops by each of procs processes, with quiescent joins
// between bursts) and checks them against the sequential model. It
// returns the number of checked (non-aborted) ops, the number of
// dropped aborted ops, and the checker result. Shared by E11 and
// cmd/lincheck.
func RunLin(tgt LinTarget, procs, rounds, perRound int, seed uint64) (ops, aborts int, res lin.Result) {
	do, full, empty, aborted := tgt.Build(procs)
	rec := lin.NewRecorder(procs)
	var next seqCounter
	pushKind, popKind := "push", "pop"
	var model lin.Model = lin.StackModel(tgt.K)
	if tgt.Kind == "queue" {
		pushKind, popKind = "enq", "deq"
		model = lin.QueueModel(tgt.K)
	}
	runRounds(rounds, procs, seed, func(_, pid int, rng *workload.RNG) {
		for i := 0; i < perRound; i++ {
			if workload.Balanced.NextIsPush(rng) {
				v := next.inc()
				pend := rec.Invoke(pid, pushKind, v)
				_, err := do(pid, true, v)
				rec.Return(pend, 0, outcomeFor(err, full, empty, aborted))
			} else {
				pend := rec.Invoke(pid, popKind, 0)
				v, err := do(pid, false, 0)
				rec.Return(pend, v, outcomeFor(err, full, empty, aborted))
			}
		}
	})
	h := rec.History()
	// The checker disambiguates pops by the pushed values being
	// distinct, which the counter guarantees; more recorded pushes than
	// issued values would mean that assumption broke (a copied or torn
	// counter), so fail loudly instead of checking an unsound history.
	pushes := 0
	for _, op := range h {
		if op.Kind == pushKind {
			pushes++
		}
	}
	if uint64(pushes) > next.issued() {
		panic("bench: history records more pushes than values issued")
	}
	return len(h), rec.Aborts(), lin.CheckSegmented(model, h, 0, 0)
}

func runE11(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rounds, perRound, procs := 60, 4, 4
	if cfg.Quick {
		rounds = 15
	}
	tb := metrics.NewTable("implementation", "ops checked", "aborts dropped", "search states", "verdict")
	defer cfg.logTable("E11 linearizability", tb)
	// row adds one target's result and reports a hard violation.
	row := func(name string, ops, aborts int, res lin.Result) error {
		verdict := "linearizable"
		if res.Exhausted {
			verdict = "UNDECIDED (budget)"
		} else if !res.Ok {
			verdict = "VIOLATION"
		}
		tb.AddRow(name, ops, aborts, res.States, verdict)
		if !res.Ok && !res.Exhausted {
			fprintf(w, "%s", tb.String())
			return fmt.Errorf("E11: %s produced a non-linearizable history", name)
		}
		return nil
	}
	for _, tgt := range LinTargets() {
		ops, aborts, res := RunLin(tgt, procs, rounds, perRound, cfg.Seed)
		if err := row(tgt.Name, ops, aborts, res); err != nil {
			return err
		}
	}
	for _, tgt := range SetLinTargets() {
		ops, aborts, res := RunSetLin(tgt, procs, rounds, perRound, cfg.Seed)
		if err := row(tgt.Name, ops, aborts, res); err != nil {
			return err
		}
	}
	return fprintf(w, "%s", tb.String())
}

// seqCounter issues the distinct values the recorded histories push.
// The word is accessed exclusively through sync/atomic — contlint's
// mixedatomic pass holds every other access to the same discipline, so
// a plain read of v anywhere fails the lint step — replacing a
// mutex-boxed predecessor on the one word every recording process
// shares.
type seqCounter struct {
	v uint64
}

// inc hands out the next value, starting at 1 (the models reserve 0).
func (a *seqCounter) inc() uint64 {
	return atomic.AddUint64(&a.v, 1)
}

// issued returns how many values have been handed out so far.
func (a *seqCounter) issued() uint64 {
	return atomic.LoadUint64(&a.v)
}

func outcomeFor(err, full, empty, aborted error) string {
	switch {
	case err == nil:
		return lin.OutcomeOK
	case full != nil && errors.Is(err, full):
		return lin.OutcomeFull
	case empty != nil && errors.Is(err, empty):
		return lin.OutcomeEmpty
	case aborted != nil && errors.Is(err, aborted):
		return lin.OutcomeAborted
	default:
		panic(err)
	}
}
