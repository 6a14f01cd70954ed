package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	lin "repro/internal/linearizability"
	"repro/internal/memory"
)

// Op is one planned operation of a model-checked run: op code Code of
// repro.Ops (see the op-code constants) with value or key V.
type Op struct {
	Code int
	V    uint64
}

// Program returns a Builder that builds t for len(plans) processes,
// prefills it from pid 0 with initial in order (bottom, front or left
// first) through the kind's last inserting op (push, enq, pushr; a
// set's add), runs plans[pid] on process pid, and checks the recorded
// history against the kind's sequential model at capacity t.K. The
// prefill is part of the object's initial state, so it is recorded as
// history ops that precede everything else. Op codes past the kind's
// op names are control actions (the adaptive set's morph): they run
// unrecorded.
//
// Check fails when the history is not linearizable. Aborted weak
// operations take no effect by the abortable-object contract, so they
// are dropped from the history; a backend that "aborts" an operation
// that did take effect (the ABA failure mode) is caught as a violation
// of the rest. An operation left pending by a process that the run's
// CrashPlan crashed may have taken any effect or none (§5): the
// history must linearize without it or with some completion of it. A
// one-process program also fails if any operation aborted: a solo weak
// operation must always succeed (claim A2). post, if non-nil, runs
// last on the built object (Ops.Instance).
func Program(t Target, initial []uint64, plans [][]Op, post func(instance any) error) Builder {
	ks := Kinds[t.Kind]
	fill := max(ks.Inserts-1, 0)
	return func(obs memory.Observer) Run {
		d := t.Build(t.K, len(plans), obs)
		rec := lin.NewRecorder(len(plans))
		for _, v := range initial {
			pend := rec.Invoke(0, ks.Names[fill], v)
			got, err := d.Do(0, fill, v)
			if err != nil {
				panic(fmt.Sprintf("sched: prefill: %v", err))
			}
			rec.Return(pend, got, lin.OutcomeOK)
		}
		// pending[pid] is pid's invoked op until it returns (Call 0
		// once it has): a crashed process leaves it set.
		pending := make([]lin.Op, len(plans))
		ops := make([][]func(), len(plans))
		for pid, plan := range plans {
			for _, op := range plan {
				ops[pid] = append(ops[pid], func() {
					if op.Code >= len(ks.Names) {
						d.Do(pid, op.Code, op.V)
						return
					}
					pend := rec.Invoke(pid, ks.Names[op.Code], op.V)
					pending[pid] = lin.Op{Proc: pid, Call: pend.CallTime(), Kind: ks.Names[op.Code], Input: op.V}
					got, err := d.Do(pid, op.Code, op.V)
					rec.Return(pend, got, ks.Outcome(err, t.Weak))
					pending[pid] = lin.Op{}
				})
			}
		}
		return Run{Ops: ops, Check: func() error {
			if n := rec.Aborts(); len(plans) == 1 && n > 0 {
				return fmt.Errorf("%d solo weak operation(s) aborted", n)
			}
			var crashed []lin.Op
			for _, p := range pending {
				if p.Call != 0 {
					crashed = append(crashed, p)
				}
			}
			if err := checkHistory(ks.Model(t.K), rec.History(), crashed, outputs(ks, initial, plans)); err != nil {
				return err
			}
			if post != nil {
				return post(d.Instance)
			}
			return nil
		}}
	}
}

// checkHistory checks h, in which the crashed ops are pending: h must
// linearize with each of them absent or completed with some outcome
// and one of outs as its output.
func checkHistory(m lin.Model, h, crashed []lin.Op, outs []uint64) error {
	res := lin.Check(m, h, 0)
	switch {
	case res.Exhausted:
		return errors.New("sched: linearizability check exhausted")
	case res.Ok:
		return nil
	case len(crashed) == 0:
		return fmt.Errorf("history not linearizable: %v", h)
	}
	var ret int64
	for _, o := range h {
		ret = max(ret, o.Return)
	}
	var explains func(h, crashed []lin.Op) bool
	explains = func(h, crashed []lin.Op) bool {
		if len(crashed) == 0 {
			return lin.Check(m, h, 0).Ok
		}
		if explains(h, crashed[1:]) {
			return true // the crashed op took no effect
		}
		c := crashed[0]
		c.Return = ret + 1
		for _, c.Outcome = range []string{lin.OutcomeOK, lin.OutcomeFull, lin.OutcomeEmpty} {
			for _, c.Output = range outs {
				h2 := append(slices.Clip(h), c)
				slices.SortStableFunc(h2, func(a, b lin.Op) int { return cmp.Compare(a.Call, b.Call) })
				if explains(h2, crashed[1:]) {
					return true // the crashed op took this effect
				}
			}
		}
		return false
	}
	if explains(h, crashed) {
		return nil
	}
	return fmt.Errorf("history not linearizable with or without the crashed %s: %v", crashed[0].Kind, h)
}

// outputs lists every output a crashed op could have returned: 0, a
// set's 1, or any value the run inserts.
func outputs(ks KindSpec, initial []uint64, plans [][]Op) []uint64 {
	out := append([]uint64{0, 1}, initial...)
	for _, plan := range plans {
		for _, op := range plan {
			if op.Code < ks.Inserts {
				out = append(out, op.V)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// segments expands (pid, count) pairs into a schedule: pid repeated
// count times, in order.
func segments(pairs ...int) []int {
	var s []int
	for i := 0; i+1 < len(pairs); i += 2 {
		for range pairs[i+1] {
			s = append(s, pairs[i])
		}
	}
	return s
}

// NamedProgram is a model-checking configuration run by name
// (cmd/modelcheck -target).
type NamedProgram struct {
	Name        string
	Description string
	Build       Builder
	// ExpectFail marks a program some schedule must break.
	ExpectFail bool
	// WalkOnly marks a program whose schedule tree does not fit an
	// exhaustive budget: sample it with Walk.
	WalkOnly bool
}

// Programs returns the named programs.
func Programs() []NamedProgram {
	pushPop := [][]Op{{{opPush, 9}}, {{opPop, 0}}}
	return []NamedProgram{
		{Name: "stack-pushpop", Description: "boxed stack: push vs pop, one op each",
			Build: Program(Lookup("stack/boxed", 2), []uint64{7}, pushPop, nil)},
		{Name: "stack-pushpop-packed", Description: "packed stack: push vs pop, one op each",
			Build: Program(Lookup("stack/packed", 2), []uint64{7}, pushPop, nil)},
		{Name: "stack-popper-race", Description: "boxed stack: two racing pops over [1 2]",
			Build: Program(Lookup("stack/boxed", 2), []uint64{1, 2}, [][]Op{{{opPop, 0}}, {{opPop, 0}}}, nil)},
		{Name: "stack-3way", Description: "boxed stack: push vs push vs pop (larger tree; use -mode walk)",
			Build: Program(Lookup("stack/boxed", 3), []uint64{1},
				[][]Op{{{opPush, 2}}, {{opPush, 3}}, {{opPop, 0}}}, nil)},
		{Name: "queue-enqdeq", Description: "abortable queue: enqueue vs dequeue, capacity 1",
			Build: Program(Lookup("queue/boxed", 1), nil, pushPop, nil)},
		{Name: "queue-enqenq", Description: "abortable queue: two racing enqueues on the last slot",
			Build: Program(Lookup("queue/boxed", 1), nil, [][]Op{{{opPush, 1}}, {{opPush, 2}}}, nil)},
		{Name: "deque-opposite-ends", Description: "HLM deque: pushr vs popl over one element",
			Build: Program(Lookup("deque/abortable", 4), []uint64{7}, [][]Op{{{opPushR, 9}}, {{opPopL, 0}}}, nil)},
		{Name: "deque-singleton-races", Description: "HLM deque: popl vs popr over a single element (the hot spot)",
			Build: Program(Lookup("deque/abortable", 4), []uint64{42}, [][]Op{{{opPopL, 0}}, {{opPopR, 0}}}, nil)},
		{Name: "naive-aba", Description: "untagged stack under the pop vs pop,pop,push,push race (EXPECTED to fail)",
			Build: Program(Lookup("stack/naive", 4), []uint64{10, 20}, abaPlans, nil), ExpectFail: true},
		{Name: "set-add-remove", Description: "COW abortable set: add vs remove over overlapping keys",
			Build: Program(Lookup("set/cow", 0), []uint64{10}, [][]Op{{{opAdd, 20}}, {{opRem, 10}}}, nil)},
		{Name: "harris-window-race", Description: "lock-free list: racing add and remove in one window",
			Build: Program(Lookup("set/harris", 0), []uint64{10, 20}, [][]Op{{{opAdd, 15}}, {{opRem, 10}}}, nil)},
		{Name: "hash-split-race", Description: "split-ordered hash: racing bucket splits and a remove (3,000,000 exhaustive schedules do not finish its tree; use -mode walk)",
			Build: Program(Lookup("set/hash", 0), []uint64{4, 6},
				[][]Op{{{opAdd, 1}}, {{opRem, 6}, {opAdd, 3}}}, nil), WalkOnly: true},
	}
}
