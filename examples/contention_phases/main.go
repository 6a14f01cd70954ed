// Contention phases: watch contention-sensitivity happen. The same
// stack serves a solo phase, a contention storm, and another solo
// phase; instrumented registers count shared accesses per operation
// and the guard reports how often the lock was taken. Solo phases run
// at Theorem 1's six accesses per operation with zero lock
// acquisitions; only the storm pays more.
package main

import (
	"fmt"
	"sync"

	"repro/internal/lock"
	"repro/internal/memory"
	"repro/internal/stack"
	"repro/internal/workload"
)

func main() {
	const procs, k = 8, 1024

	var st memory.Stats
	weak := stack.NewAbortableObserved[uint64](k, procs, &st)
	s := stack.NewSensitiveFrom[uint64](weak, procs, lock.NewFigure3(procs), &st)

	phases := workload.SoloThenStorm(procs, 100000)
	for pi, ph := range phases {
		before := st.Snapshot()
		slowBefore := s.Guard().Stats().Slow

		var wg sync.WaitGroup
		for p := 0; p < ph.Procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				rng := workload.NewRNG(uint64(pid*7 + pi))
				for i := 0; i < ph.Ops; i++ {
					if workload.Balanced.NextIsPush(rng) {
						_ = s.Push(pid, workload.Value(pid, i))
					} else {
						_, _ = s.Pop(pid)
					}
				}
			}(p)
		}
		wg.Wait()

		delta := st.Snapshot().Sub(before)
		ops := uint64(ph.Procs * ph.Ops)
		slow := s.Guard().Stats().Slow - slowBefore
		name := []string{"solo-warm", "storm", "solo-cool"}[pi]
		fmt.Printf("phase %-9s  procs=%d  ops=%-7d  accesses/op=%.2f  lock acquisitions=%d\n",
			name, ph.Procs, ops, float64(delta.Total())/float64(ops), slow)
	}
	fmt.Println("\nsolo phases: ≈6 accesses/op and 0 lock acquisitions (Theorem 1);")
	fmt.Println("the storm phase alone pays for retries and locking.")
}
