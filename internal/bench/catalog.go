package bench

import (
	"repro"
	"repro/internal/lock"
	"repro/internal/queue"
	"repro/internal/stack"
)

// This file adapts the public backend catalog (repro.Catalog) to the
// shapes the experiments drive. The harnesses iterate the catalog
// instead of keeping their own backend lists: a backend's name is
// written once, in repro's catalog, and shows up here only through
// iteration. The lists below are measurement-only baselines
// (lock-based references, internal packed/pooled variants) that the
// public catalog deliberately does not export.

// hammerImpl is one backend of a throughput comparison: pid-aware
// push/pop (or enq/deq) closures over a fresh instance of capacity k
// for procs processes.
type hammerImpl struct {
	name  string
	build func(k, procs int) (push func(pid int, v uint64) error, pop func(pid int) (uint64, error))
}

// catalogStackImpls returns every strong (never-aborting) stack
// backend in the public catalog. Weak backends are excluded: under a
// hammer their single attempts abort, which would count no-effect
// operations as throughput.
func catalogStackImpls() []hammerImpl {
	var out []hammerImpl
	for _, b := range repro.CatalogByKind(repro.KindStack) {
		if b.Weak {
			continue
		}
		b := b
		out = append(out, hammerImpl{name: b.Name, build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
			s := b.Stack(repro.WithCapacity(k), repro.WithProcs(procs))
			return s.Push, s.Pop
		}})
	}
	return out
}

// catalogQueueImpls is catalogStackImpls' FIFO sibling.
func catalogQueueImpls() []hammerImpl {
	var out []hammerImpl
	for _, b := range repro.CatalogByKind(repro.KindQueue) {
		if b.Weak {
			continue
		}
		b := b
		out = append(out, hammerImpl{name: b.Name, build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
			q := b.Queue(repro.WithCapacity(k), repro.WithProcs(procs))
			return q.Enqueue, q.Dequeue
		}})
	}
	return out
}

// paperSensitiveStack returns the catalog's Figure 3 stack (paper
// tier, starvation-free): the serialized-fallback baseline E15
// compares flat combining against.
func paperSensitiveStack() hammerImpl {
	for _, b := range repro.CatalogByKind(repro.KindStack) {
		if b.Tier != "paper" || b.Progress != "starvation-free" {
			continue
		}
		b := b
		return hammerImpl{name: b.Name, build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
			s := b.Stack(repro.WithCapacity(k), repro.WithProcs(procs))
			return s.Push, s.Pop
		}}
	}
	panic("bench: the catalog has no paper-tier starvation-free stack")
}

// lockStackImpls returns the traditional lock-based stack baselines
// of E5/E6/E15. They are measurement references, not exported
// backends, so they are defined here rather than in the catalog.
func lockStackImpls() []hammerImpl {
	return []hammerImpl{
		{
			name: "lock(mutex)",
			build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
				s := stack.NewLockBased[uint64](k)
				return s.Push, s.Pop
			},
		},
		{
			name: "lock(ticket)",
			build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
				s := stack.NewLockBasedWith[uint64](k, lock.IgnorePid(lock.NewTicket()))
				return s.Push, s.Pop
			},
		},
		{
			name: "lock(tas)",
			build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
				s := stack.NewLockBasedWith[uint64](k, lock.IgnorePid(lock.NewTAS()))
				return s.Push, s.Pop
			},
		},
	}
}

// lockQueueImpls returns E9's lock-based reference (the Michael-Scott
// queue is a catalog row).
func lockQueueImpls() []hammerImpl {
	return []hammerImpl{
		{
			name: "lock(mutex)",
			build: func(k, procs int) (func(int, uint64) error, func(int) (uint64, error)) {
				q := queue.NewLockBased[uint64](k)
				return q.Enqueue, q.Dequeue
			},
		},
	}
}
