// Benchmarks regenerating the experiment series of DESIGN.md §4 under
// testing.B. Each BenchmarkE<n> corresponds to experiment E<n>; the
// correctness experiments (E1, E2, E8, E11, E17) benchmark the measured
// operation or the checking machinery itself, the performance
// experiments mirror cmd/contbench's tables as sub-benchmarks.
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/cmanager"
	"repro/internal/lock"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/workload"
)

// BenchmarkE1AccessCount measures the contention-free strong
// operation pair (push+pop) and reports Theorem 1's shared-access
// count alongside the wall-clock cost.
func BenchmarkE1AccessCount(b *testing.B) {
	b.ReportAllocs()
	for _, backend := range []string{"boxed", "packed"} {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			var st memory.Stats
			var push func(v uint64) error
			var pop func() (uint64, error)
			switch backend {
			case "boxed":
				s := stack.NewSensitiveObserved[uint64](16, 1, &st)
				push = func(v uint64) error { return s.Push(0, v) }
				pop = func() (uint64, error) { return s.Pop(0) }
			case "packed":
				weak := stack.NewPackedObserved(16, &st)
				s := stack.NewSensitiveFrom[uint32](weak, 1, lock.NewRoundRobin(lock.NewTAS(), 1), &st)
				push = func(v uint64) error { return s.Push(0, uint32(v)) }
				pop = func() (uint64, error) { v, err := s.Pop(0); return uint64(v), err }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := push(uint64(i)); err != nil {
					b.Fatal(err)
				}
				if _, err := pop(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(st.Total())/float64(2*b.N), "accesses/op")
		})
	}
}

// BenchmarkE2WeakSolo measures the uncontended weak operation (the
// paper's five-access attempt) on both backends.
func BenchmarkE2WeakSolo(b *testing.B) {
	b.ReportAllocs()
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		s := stack.NewAbortable[uint64](16, 1)
		for i := 0; i < b.N; i++ {
			if err := s.TryPush(0, uint64(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.TryPop(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		s := stack.NewPacked(16)
		for i := 0; i < b.N; i++ {
			if err := s.TryPush(0, uint32(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.TryPop(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// parallelStack drives a pid-aware stack with RunParallel, reporting
// per-op cost under full contention.
func parallelStack(b *testing.B, push func(pid int, v uint64) error, pop func(pid int) (uint64, error)) {
	var pids atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1) - 1)
		rng := workload.NewRNG(uint64(pid) + 1)
		i := 0
		for pb.Next() {
			if workload.Balanced.NextIsPush(rng) {
				_ = push(pid, workload.Value(pid, i))
				i++
			} else {
				_, _ = pop(pid)
			}
		}
	})
}

// BenchmarkE3NonBlocking measures the Figure 2 retry loop on a tiny
// (high-interference) stack.
func BenchmarkE3NonBlocking(b *testing.B) {
	b.ReportAllocs()
	const maxProcs = 64
	s := stack.NewNonBlocking[uint64](4, maxProcs)
	parallelStack(b,
		func(pid int, v uint64) error { return s.Push(pid%maxProcs, v) },
		func(pid int) (uint64, error) { return s.Pop(pid % maxProcs) })
}

// BenchmarkE4Fairness measures the Figure 3 stack under saturation and
// reports Jain's index over per-worker completions.
func BenchmarkE4Fairness(b *testing.B) {
	b.ReportAllocs()
	const maxProcs = 64
	s := stack.NewSensitive[uint64](8, maxProcs)
	counts := make([]uint64, maxProcs)
	var pids atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1)-1) % maxProcs
		rng := workload.NewRNG(uint64(pid) + 1)
		i := 0
		for pb.Next() {
			if workload.Balanced.NextIsPush(rng) {
				_ = s.Push(pid, workload.Value(pid, i))
				i++
			} else {
				_, _ = s.Pop(pid)
			}
			counts[pid]++
		}
	})
	active := counts[:0:0]
	for _, c := range counts {
		if c > 0 {
			active = append(active, c)
		}
	}
	if len(active) > 0 {
		var sum, sumSq float64
		for _, c := range active {
			sum += float64(c)
			sumSq += float64(c) * float64(c)
		}
		b.ReportMetric(sum*sum/(float64(len(active))*sumSq), "jain")
	}
}

// BenchmarkE5Throughput sweeps the E5 implementation set under
// RunParallel; use -cpu to sweep parallelism.
func BenchmarkE5Throughput(b *testing.B) {
	b.ReportAllocs()
	const k, maxProcs = 1024, 64
	impls := []struct {
		name string
		mk   func() (func(int, uint64) error, func(int) (uint64, error))
	}{
		{"lock-mutex", func() (func(int, uint64) error, func(int) (uint64, error)) {
			s := stack.NewLockBased[uint64](k)
			return s.Push, s.Pop
		}},
		{"lock-ticket", func() (func(int, uint64) error, func(int) (uint64, error)) {
			s := stack.NewLockBasedWith[uint64](k, lock.IgnorePid(lock.NewTicket()))
			return s.Push, s.Pop
		}},
		{"treiber", func() (func(int, uint64) error, func(int) (uint64, error)) {
			s := stack.NewTreiber[uint64](maxProcs)
			return func(pid int, v uint64) error { return s.Push(pid%maxProcs, v) },
				func(pid int) (uint64, error) { return s.Pop(pid % maxProcs) }
		}},
		{"non-blocking", func() (func(int, uint64) error, func(int) (uint64, error)) {
			s := stack.NewNonBlocking[uint64](k, maxProcs)
			return func(pid int, v uint64) error { return s.Push(pid%maxProcs, v) },
				func(pid int) (uint64, error) { return s.Pop(pid % maxProcs) }
		}},
		{"cont-sensitive", func() (func(int, uint64) error, func(int) (uint64, error)) {
			s := stack.NewSensitive[uint64](k, maxProcs)
			return func(pid int, v uint64) error { return s.Push(pid%maxProcs, v) },
				func(pid int) (uint64, error) { return s.Pop(pid % maxProcs) }
		}},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			push, pop := impl.mk()
			parallelStack(b, push, pop)
		})
	}
}

// BenchmarkE6Phases contrasts the contention-sensitive stack's solo
// cost with its contended cost.
func BenchmarkE6Phases(b *testing.B) {
	b.ReportAllocs()
	b.Run("solo", func(b *testing.B) {
		b.ReportAllocs()
		s := stack.NewSensitive[uint64](1024, 1)
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				_ = s.Push(0, uint64(i))
			} else {
				_, _ = s.Pop(0)
			}
		}
	})
	b.Run("storm", func(b *testing.B) {
		b.ReportAllocs()
		const maxProcs = 64
		s := stack.NewSensitive[uint64](1024, maxProcs)
		var pids atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pids.Add(1)-1) % maxProcs
			i := 0
			for pb.Next() {
				if i%2 == 0 {
					_ = s.Push(pid, uint64(i))
				} else {
					_, _ = s.Pop(pid)
				}
				i++
			}
		})
	})
}

// BenchmarkE7Managers ablates the retry-loop contention managers.
func BenchmarkE7Managers(b *testing.B) {
	b.ReportAllocs()
	const maxProcs = 64
	for _, name := range cmanager.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := stack.NewNonBlockingFrom[uint64](stack.NewAbortable[uint64](4, maxProcs), cmanager.ByName(name))
			parallelStack(b,
				func(pid int, v uint64) error { return s.Push(pid%maxProcs, v) },
				func(pid int) (uint64, error) { return s.Pop(pid % maxProcs) })
		})
	}
}

// BenchmarkE8ModelChecker measures the deterministic scheduler's
// replay rate on the ABA schedule (schedules/s drives how large an E8
// search budget is affordable).
func BenchmarkE8ModelChecker(b *testing.B) {
	b.ReportAllocs()
	var r sched.ABAReplay
	for _, r = range sched.ABAReplays() {
		if r.Name == "boxed" {
			break
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := sched.Replay(r.Build, r.Schedule, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Queue sweeps the queue implementations (E5's FIFO
// mirror).
func BenchmarkE9Queue(b *testing.B) {
	b.ReportAllocs()
	const k, maxProcs = 1024, 64
	impls := []struct {
		name string
		mk   func() (func(int, uint64) error, func(int) (uint64, error))
	}{
		{"lock-mutex", func() (func(int, uint64) error, func(int) (uint64, error)) {
			q := queue.NewLockBased[uint64](k)
			return q.Enqueue, q.Dequeue
		}},
		{"michael-scott", func() (func(int, uint64) error, func(int) (uint64, error)) {
			q := queue.NewMichaelScott[uint64](maxProcs)
			return func(pid int, v uint64) error { return q.Enqueue(pid%maxProcs, v) },
				func(pid int) (uint64, error) { return q.Dequeue(pid % maxProcs) }
		}},
		{"non-blocking", func() (func(int, uint64) error, func(int) (uint64, error)) {
			q := queue.NewNonBlocking[uint64](k)
			return func(_ int, v uint64) error { return q.Enqueue(v) },
				func(_ int) (uint64, error) { return q.Dequeue() }
		}},
		{"cont-sensitive", func() (func(int, uint64) error, func(int) (uint64, error)) {
			q := queue.NewSensitive[uint64](k, maxProcs)
			return func(pid int, v uint64) error { return q.Enqueue(pid%maxProcs, v) },
				func(pid int) (uint64, error) { return q.Dequeue(pid % maxProcs) }
		}},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			enq, deq := impl.mk()
			parallelStack(b, enq, deq)
		})
	}
}

// BenchmarkE10Locks measures raw critical-section cost per lock,
// including the §4.4 transformation's overhead.
func BenchmarkE10Locks(b *testing.B) {
	b.ReportAllocs()
	const maxProcs = 64
	locks := []struct {
		name string
		mk   func() lock.PidLock
	}{
		{"tas", func() lock.PidLock { return lock.IgnorePid(lock.NewTAS()) }},
		{"ttas", func() lock.PidLock { return lock.IgnorePid(lock.NewTTAS()) }},
		{"backoff", func() lock.PidLock { return lock.IgnorePid(lock.NewBackoff()) }},
		{"ticket", func() lock.PidLock { return lock.IgnorePid(lock.NewTicket()) }},
		{"mutex", func() lock.PidLock { return lock.IgnorePid(lock.NewMutex()) }},
		{"tournament", func() lock.PidLock { return lock.NewTournament(maxProcs) }},
		{"rr-tas", func() lock.PidLock { return lock.NewRoundRobin(lock.NewTAS(), maxProcs) }},
	}
	for _, l := range locks {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			lk := l.mk()
			var shared uint64
			var pids atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				pid := int(pids.Add(1)-1) % maxProcs
				for pb.Next() {
					lk.Acquire(pid)
					shared++
					lk.Release(pid)
				}
			})
		})
	}
}

// BenchmarkE12FastMutex measures Lamport's fast mutex solo (the
// 7-access fast path) and contended.
func BenchmarkE12FastMutex(b *testing.B) {
	b.ReportAllocs()
	b.Run("solo", func(b *testing.B) {
		b.ReportAllocs()
		l := lock.NewFastMutex(8)
		for i := 0; i < b.N; i++ {
			l.Acquire(0)
			l.Release(0)
		}
	})
	b.Run("contended", func(b *testing.B) {
		b.ReportAllocs()
		const maxProcs = 64
		l := lock.NewFastMutex(maxProcs)
		var pids atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pids.Add(1)-1) % maxProcs
			for pb.Next() {
				l.Acquire(pid)
				l.Release(pid)
			}
		})
	})
}

// BenchmarkE13CrashReplay measures the crash-injection replay rate
// (how many §5 crash scenarios per second the scheduler can sweep).
func BenchmarkE13CrashReplay(b *testing.B) {
	b.ReportAllocs()
	survivor := []sched.Op{{V: 1}, {Code: 1}} // push 1, pop
	for i := 0; i < b.N; i++ {
		build := sched.Program(sched.Lookup("stack/boxed", 8), nil, [][]sched.Op{{{V: 77}}, survivor}, nil)
		if _, err := sched.Replay(build, []int{0, 0, 0}, sched.CrashPlan{0: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14Deque measures the deque tower under both-end traffic.
func BenchmarkE14Deque(b *testing.B) {
	b.ReportAllocs()
	b.Run("non-blocking", func(b *testing.B) {
		b.ReportAllocs()
		nb := repro.NewNonBlockingDeque(1024)
		var pids atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pids.Add(1) - 1)
			i := 0
			for pb.Next() {
				if (pid+i)%2 == 0 {
					_ = nb.PushRight(uint32(i))
				} else {
					_, _ = nb.PopLeft()
				}
				i++
			}
		})
	})
	b.Run("cont-sensitive", func(b *testing.B) {
		b.ReportAllocs()
		const maxProcs = 64
		d := repro.NewDeque(1024, maxProcs)
		var pids atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pids.Add(1)-1) % maxProcs
			i := 0
			for pb.Next() {
				if (pid+i)%2 == 0 {
					_ = d.PushRight(pid, uint32(i))
				} else {
					_, _ = d.PopLeft(pid)
				}
				i++
			}
		})
	})
}

// BenchmarkE11Checker measures linearizability-checking throughput on
// freshly recorded histories.
func BenchmarkE11Checker(b *testing.B) {
	b.ReportAllocs()
	var tgt bench.LinTarget
	for _, t := range bench.LinTargets() {
		if t.Name == "stack/abortable" {
			tgt = t
		}
	}
	if tgt.Build == nil {
		b.Fatal("no stack/abortable lin target")
	}
	b.ResetTimer()
	opsChecked := 0
	for i := 0; i < b.N; i++ {
		n, _, res := bench.RunLin(tgt, 4, 10, 4, uint64(i)+1)
		if !res.Ok {
			b.Fatalf("violation: %+v", res)
		}
		opsChecked += n
	}
	b.ReportMetric(float64(opsChecked)/float64(b.N), "ops-checked/iter")
}

// BenchmarkPublicAPI keeps the facade honest: the exported
// constructors must not add overhead over the internal ones.
func BenchmarkPublicAPI(b *testing.B) {
	b.ReportAllocs()
	s := repro.NewStack[int](1024, 1)
	for i := 0; i < b.N; i++ {
		if err := s.Push(0, i); err != nil && !errors.Is(err, repro.ErrStackFull) {
			b.Fatal(err)
		}
		if _, err := s.Pop(0); err != nil && !errors.Is(err, repro.ErrStackEmpty) {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17AllocFree mirrors experiment E17 under testing.B: the
// pooled hot paths must report 0 allocs/op (the -benchmem column is
// the acceptance bar).
func BenchmarkE17AllocFree(b *testing.B) {
	b.Run("treiber", func(b *testing.B) {
		b.ReportAllocs()
		s := stack.NewTreiber[uint64](1)
		for i := 0; i < b.N; i++ {
			_ = s.Push(0, uint64(i))
			_, _ = s.Pop(0)
		}
	})
	b.Run("michael-scott", func(b *testing.B) {
		b.ReportAllocs()
		q := queue.NewMichaelScott[uint64](1)
		for i := 0; i < b.N; i++ {
			_ = q.Enqueue(0, uint64(i))
			_, _ = q.Dequeue(0)
		}
	})
	b.Run("abortable-pooled", func(b *testing.B) {
		b.ReportAllocs()
		s := stack.NewAbortable[uint64](16, 1)
		for i := 0; i < b.N; i++ {
			_ = s.TryPush(0, uint64(i))
			_, _ = s.TryPop(0)
		}
	})
	b.Run("combining-pooled", func(b *testing.B) {
		b.ReportAllocs()
		s := stack.NewCombining[uint64](16, 1)
		for i := 0; i < b.N; i++ {
			_ = s.Push(0, uint64(i))
			_, _ = s.Pop(0)
		}
	})
}

// BenchmarkE19SetAtRange mirrors experiment E19 under testing.B: a
// solo read-mostly loop (3 Contains, 1 Add, 1 Remove per iteration)
// over a resident population of the given size. The Harris rows grow
// linearly with the range — every operation walks the sorted prefix —
// while the split-ordered hash rows stay flat: the bucket index caps
// the expected walk at the load factor. Both run the same pooled
// recycled-node engine, so the allocs/op column stays at the pool's
// steady-state zero on both.
func BenchmarkE19SetAtRange(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func() (add func(int, uint64) bool, remove func(int, uint64) bool, contains func(int, uint64) bool)
	}{
		{"harris", func() (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
			s := repro.NewLockFreeSet(1)
			return s.Add, s.Remove, s.Contains
		}},
		{"hash", func() (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
			s := repro.NewHashSet(1)
			return s.Add, s.Remove, s.Contains
		}},
	} {
		for _, keys := range []uint64{64, 4096} {
			b.Run(fmt.Sprintf("%s/keys=%d", tc.name, keys), func(b *testing.B) {
				b.ReportAllocs()
				add, remove, contains := tc.build()
				for k := uint64(0); k < keys; k += 2 {
					add(0, k)
				}
				rng := workload.NewRNG(0x5eed)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := uint64(rng.Intn(int(keys)))
					contains(0, k)
					contains(0, (k+1)%keys)
					contains(0, (k+2)%keys)
					add(0, k)
					remove(0, (k+3)%keys)
				}
			})
		}
	}
}
