package bench

import (
	"errors"
	"strings"

	"repro"
	"repro/internal/lock"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/stack"
)

// This file adapts the public backend catalog (repro.Catalog) to the
// comparison sets the experiments drive. Every row has one shape: a
// name and a builder of fresh instances behind the uniform op-indexed
// repro.Ops driver. Catalog rows are built by repro.Drive, so a
// backend's name and construction are written once, in repro's
// catalog; the hand-built rows below are measurement-only references
// (lock-based baselines, internal packed and pooled variants) that the
// public catalog deliberately does not export.

// row is one implementation of a comparison set: build returns the
// driver of a fresh instance of capacity k for procs processes.
type row struct {
	name  string
	build func(k, procs int) repro.Ops
}

// catalogRows returns a row per strong (never-aborting) catalog entry
// of kind that keep accepts (nil keeps every one). Weak entries are
// excluded: under a hammer their single attempts abort, which would
// count no-effect operations as throughput.
func catalogRows(kind string, keep func(repro.Backend) bool) []row {
	var out []row
	for _, b := range repro.CatalogByKind(kind) {
		if b.Weak || keep != nil && !keep(b) {
			continue
		}
		out = append(out, row{b.Name, func(k, procs int) repro.Ops {
			return repro.Drive(b, repro.WithCapacity(k), repro.WithProcs(procs))
		}})
	}
	return out
}

// retrying wraps a weak driver so every op retries until it does not
// abort: each measured op then completed, comparable with strong rows.
func retrying(ops repro.Ops, aborted error) repro.Ops {
	do := ops.Do
	ops.Do = func(pid, op int, v uint64) (uint64, error) {
		for {
			if got, err := do(pid, op, v); !errors.Is(err, aborted) {
				return got, err
			}
		}
	}
	return ops
}

// kindOf returns the kind prefix of a "<kind>/<variant>" row name.
func kindOf(name string) string {
	kind, _, _ := strings.Cut(name, "/")
	return kind
}

// lockStackRows returns the traditional lock-based stack baselines
// of E5/E6/E15. They are measurement references, not exported
// backends, so they are defined here rather than in the catalog.
func lockStackRows() []row {
	withLock := func(name string, mk func() lock.Lock) row {
		return row{name, func(k, _ int) repro.Ops {
			s := stack.NewLockBasedWith[uint64](k, lock.IgnorePid(mk()))
			return sched.PushPop(s, s.Push, s.Pop)
		}}
	}
	return []row{
		{"lock(mutex)", func(k, _ int) repro.Ops {
			s := stack.NewLockBased[uint64](k)
			return sched.PushPop(s, s.Push, s.Pop)
		}},
		withLock("lock(ticket)", func() lock.Lock { return lock.NewTicket() }),
		withLock("lock(tas)", func() lock.Lock { return lock.NewTAS() }),
	}
}

// lockQueueRows returns E9's lock-based reference (the Michael-Scott
// queue is a catalog row).
func lockQueueRows() []row {
	return []row{{"lock(mutex)", func(k, _ int) repro.Ops {
		q := queue.NewLockBased[uint64](k)
		return sched.PushPop(q, q.Enqueue, q.Dequeue)
	}}}
}

// internalRows returns the Figure 1 variants the public catalog does
// not export: the packed bit-packing stack and queue, and the Figure 1
// stack driven directly under its pooled row name. Their ops are
// single attempts that may abort.
func internalRows() []row {
	return []row{
		{"stack/packed", func(k, _ int) repro.Ops {
			s := stack.NewPacked(k)
			return sched.PushPop(s, func(pid int, v uint64) error { return s.TryPush(pid, uint32(v)) },
				func(pid int) (uint64, error) { v, err := s.TryPop(pid); return uint64(v), err })
		}},
		{"stack/abortable-pooled", func(k, procs int) repro.Ops {
			s := stack.NewAbortable[uint64](k, procs)
			return sched.PushPop(s, s.TryPush, s.TryPop)
		}},
		{"queue/packed", func(k, _ int) repro.Ops {
			q := queue.NewPacked(k)
			return sched.PushPop(q, func(_ int, v uint64) error { return q.TryEnqueue(uint32(v)) },
				func(int) (uint64, error) { v, err := q.TryDequeue(); return uint64(v), err })
		}},
	}
}
