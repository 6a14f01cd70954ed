package bench

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"repro"
	"repro/internal/deque"
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

// LinTarget is one implementation checked by E11, E14 and
// cmd/lincheck: Build returns the uniform op-indexed driver (see
// repro.Ops) over a fresh instance for procs processes. K is the
// model capacity (0 = unbounded); a Weak target's ops are single
// attempts, and only its aborts are dropped from the history.
type LinTarget struct {
	Name  string
	Kind  string
	K     int
	Weak  bool
	Build func(procs int) repro.Ops
}

// kindSpec is what the history checks know about one object kind
// beyond its repro.Ops driver: the history names of its op codes, how
// many leading op codes insert a fresh value, the op-code draw (which
// also picks a set's key), the sequential model and the capacity it is
// checked at, and the kind's sentinel errors.
type kindSpec struct {
	names                []string
	inserts              int
	draw                 func(rng *workload.RNG) (op int, key uint64)
	model                func(k int) lin.Model
	capacity             int
	full, empty, aborted error
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

// kinds is the per-kind table RunLin checks by (E17 also takes the
// abort sentinels from it).
var kinds = map[string]kindSpec{
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

// LinTargets returns the implementations the linearizability
// experiments cover: every backend in the public catalog, built by
// repro.Drive with the catalog's LinOpts applied (the sharded queue
// is globally FIFO only when pinned to one stripe), plus the
// internal-only packed and pooled Figure 1 variants the catalog does
// not export.
func LinTargets() []LinTarget {
	var out []LinTarget
	for _, b := range repro.Catalog() {
		out = append(out, linTarget(b))
	}
	for _, r := range internalRows() {
		kind := kindOf(r.name)
		k := kinds[kind].capacity
		out = append(out, LinTarget{r.name, kind, k, true, func(procs int) repro.Ops { return r.build(k, procs) }})
	}
	return out
}

// linTarget checks catalog entry b at its kind's model capacity; the
// target's name carries the entry's LinNote restriction.
func linTarget(b repro.Backend) LinTarget {
	capacity := kinds[b.Kind].capacity
	name, k := b.Name, 0
	if b.LinNote != "" {
		name += "[" + b.LinNote + "]"
	}
	if b.Bounded {
		k = capacity
	}
	return LinTarget{name, b.Kind, k, b.Weak, func(procs int) repro.Ops {
		return repro.Drive(b, append([]repro.Option{repro.WithCapacity(capacity), repro.WithProcs(procs)}, b.LinOpts...)...)
	}}
}

// RunLin records concurrent histories of one target (rounds bursts of
// perRound ops by each of procs processes, with quiescent joins
// between bursts) and checks them against the kind's sequential model.
// Inserts carry distinct values; set ops draw keys from a small range
// and record their boolean answer as Output 0/1. It returns the number
// of checked (non-aborted) ops, the number of dropped aborted ops, and
// the checker result. Shared by E11, E14 and cmd/lincheck.
func RunLin(tgt LinTarget, procs, rounds, perRound int, seed uint64) (ops, aborts int, res lin.Result) {
	ks := kinds[tgt.Kind]
	var aborted error
	if tgt.Weak {
		aborted = ks.aborted
	}
	d := tgt.Build(procs)
	rec := lin.NewRecorder(procs)
	var next seqCounter
	runRounds(rounds, procs, seed, func(_, pid int, rng *workload.RNG) {
		for i := 0; i < perRound; i++ {
			op, v := ks.draw(rng)
			if op < ks.inserts {
				v = next.inc()
			}
			pend := rec.Invoke(pid, ks.names[op], v)
			got, err := d.Do(pid, op, v)
			rec.Return(pend, got, outcomeFor(err, ks.full, ks.empty, aborted))
		}
	})
	h := rec.History()
	// The checker disambiguates removals by the inserted values being
	// distinct, which the counter guarantees; more recorded inserts
	// than issued values would mean that assumption broke (a copied or
	// torn counter), so fail loudly instead of checking an unsound
	// history.
	inserts := 0
	for _, op := range h {
		if slices.Contains(ks.names[:ks.inserts], op.Kind) {
			inserts++
		}
	}
	if uint64(inserts) > next.issued() {
		panic("bench: history records more inserts than values issued")
	}
	return len(h), rec.Aborts(), lin.CheckSegmented(ks.model(tgt.K), h, 0, 0)
}

func runE11(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rounds, perRound, procs := 60, 4, 4
	if cfg.Quick {
		rounds = 15
	}
	tb := metrics.NewTable("implementation", "ops checked", "aborts dropped", "search states", "verdict")
	defer cfg.logTable("E11 linearizability", tb)
	for _, tgt := range LinTargets() {
		ops, aborts, res := RunLin(tgt, procs, rounds, perRound, cfg.Seed)
		tb.AddRow(tgt.Name, ops, aborts, res.States, LinVerdict(res))
		if !res.Ok && !res.Exhausted {
			fprintf(w, "%s", tb.String())
			return fmt.Errorf("E11: %s produced a non-linearizable history", tgt.Name)
		}
	}
	return fprintf(w, "%s", tb.String())
}

// LinVerdict is the verdict cell of a checked history: a search that
// ran out of budget decided nothing.
func LinVerdict(res lin.Result) string {
	switch {
	case res.Exhausted:
		return "UNDECIDED (budget)"
	case !res.Ok:
		return "VIOLATION"
	}
	return "linearizable"
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
