package bench

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"repro"
	lin "repro/internal/linearizability"
	"repro/internal/metrics"
	"repro/internal/sched"
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
		k := sched.Kinds[kind].Capacity
		out = append(out, LinTarget{r.name, kind, k, true, func(procs int) repro.Ops { return r.build(k, procs) }})
	}
	return out
}

// linTarget checks catalog entry b at its kind's model capacity; the
// target's name carries the entry's LinNote restriction.
func linTarget(b repro.Backend) LinTarget {
	capacity := sched.Kinds[b.Kind].Capacity
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
	ks := sched.Kinds[tgt.Kind]
	d := tgt.Build(procs)
	rec := lin.NewRecorder(procs)
	var next seqCounter
	runRounds(rounds, procs, seed, func(_, pid int, rng *workload.RNG) {
		for i := 0; i < perRound; i++ {
			op, v := ks.Draw(rng)
			if op < ks.Inserts {
				v = next.inc()
			}
			pend := rec.Invoke(pid, ks.Names[op], v)
			got, err := d.Do(pid, op, v)
			rec.Return(pend, got, ks.Outcome(err, tgt.Weak))
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
		if slices.Contains(ks.Names[:ks.Inserts], op.Kind) {
			inserts++
		}
	}
	if uint64(inserts) > next.issued() {
		panic("bench: history records more inserts than values issued")
	}
	return len(h), rec.Aborts(), lin.CheckSegmented(ks.Model(tgt.K), h, 0, 0)
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
