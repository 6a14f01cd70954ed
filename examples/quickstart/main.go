// Quickstart: the contention-sensitive stack and queue through the
// public API. Each goroutine that touches an object gets a process
// identity in [0, n) — the paper's model of n known processes.
package main

import (
	"errors"
	"fmt"
	"sync"

	"repro"
)

func main() {
	const procs = 4

	// A linearizable, starvation-free stack of capacity 128 (the
	// paper's Figure 3). Contention-free operations are lock-free and
	// cost six shared-memory accesses.
	s := repro.NewStack[string](128, procs)

	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := s.Push(pid, fmt.Sprintf("p%d-item%d", pid, i)); err != nil {
					fmt.Println("push:", err)
				}
			}
		}(pid)
	}
	wg.Wait()

	fmt.Println("stack after 20 concurrent pushes:")
	for {
		v, err := s.Pop(0)
		if errors.Is(err, repro.ErrStackEmpty) {
			break
		}
		fmt.Printf("  popped %s\n", v)
	}

	// Guard statistics show the contention-sensitive split: how many
	// operations used the lock-free shortcut vs the locked slow path.
	st := s.Guard().Stats()
	fmt.Printf("fast-path ops: %d, slow-path ops: %d\n", st.Fast, st.Slow)

	// The weak (abortable) stack underneath: a single attempt either
	// takes effect or reports ⊥ with no effect.
	weak := repro.NewAbortableStack[int](8, procs)
	if err := weak.TryPush(0, 42); err != nil {
		fmt.Println("solo weak pushes never abort, but got:", err)
	}
	v, _ := weak.TryPop(0)
	fmt.Println("weak round-trip:", v)

	// And the FIFO sibling, this time through the backend catalog:
	// every implementation sits behind one capability-typed contract
	// per object kind, resolved by name with functional options.
	q, err := repro.NewQueueBackend[int]("sensitive",
		repro.WithCapacity(16), repro.WithProcs(procs))
	if err != nil {
		panic(err)
	}
	for i := 1; i <= 3; i++ {
		if err := q.Enqueue(0, i); err != nil {
			fmt.Println("enqueue:", err)
		}
	}
	fmt.Print("queue drains in FIFO order:")
	for {
		v, err := q.Dequeue(1)
		if errors.Is(err, repro.ErrQueueEmpty) {
			break
		}
		fmt.Printf(" %d", v)
	}
	fmt.Println()

	// The catalog itself is data: swap "sensitive" for any same-kind
	// name below and the code above runs unchanged.
	fmt.Print("queue backends in the catalog:")
	for _, b := range repro.CatalogByKind(repro.KindQueue) {
		fmt.Printf(" %s", b.Name)
	}
	fmt.Println()
}
