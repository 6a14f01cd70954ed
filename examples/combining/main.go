// Flat combining and sharding: the scaling tier of the contended
// path. Part 1 drives the combining stack through a solo phase and a
// storm phase: solo operations stay on the six-access lock-free
// shortcut (zero published requests). In the storm, the shortcut
// re-attempts an aborted operation up to lock.SpinBudget times; the
// operations whose attempts keep aborting divert to the publication
// list, where one combiner serves whole batches per lock acquisition —
// the batch mean is the amortization factor over the one-at-a-time
// fallback of Figure 3. Part 2 runs producers and consumers over the
// pid-striped sharded queue and verifies every value is delivered
// exactly once even when consumers steal from non-home shards.
package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
)

const (
	procs    = 8
	perProc  = 50000
	capacity = 1 << 10
)

func main() {
	// Part 1: combining stack, solo then storm.
	s := repro.NewCombiningStack[uint64](capacity, procs)

	for i := 0; i < perProc; i++ {
		mustStack(s.Push(0, uint64(i)))
		if i%2 == 1 {
			if _, err := s.Pop(0); err != nil && !errors.Is(err, repro.ErrStackEmpty) {
				panic(err)
			}
		}
	}
	solo := s.Stats()
	fmt.Printf("solo phase:  %d ops, %d published (all on the lock-free fast path)\n",
		solo.Fast+solo.Published, solo.Published)
	s.ResetStats()

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				if i%2 == 0 {
					mustStack(s.Push(pid, uint64(pid)<<32|uint64(i)))
				} else if _, err := s.Pop(pid); err != nil && !errors.Is(err, repro.ErrStackEmpty) {
					panic(err)
				}
			}
		}(p)
	}
	wg.Wait()
	storm := s.Stats()
	fmt.Printf("storm phase: %d ops, %d published, %d combining passes\n",
		storm.Fast+storm.Published, storm.Published, storm.Combines)
	if storm.Combines > 0 {
		fmt.Printf("             batch mean %.1f, max batch %d (1 lock acquisition serves the batch)\n",
			storm.BatchMean(), storm.MaxBatch)
	} else {
		fmt.Println("             no request was published: the shortcut's re-attempts absorbed every overlap")
	}

	// Part 2: sharded queue, producers/consumers with stealing.
	q := repro.NewShardedQueue[uint64](capacity, procs, 4)
	const producers = procs / 2
	total := int64(producers * perProc)
	var delivered atomic.Int64
	seen := make([]atomic.Bool, producers*perProc)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				id := uint64(pid*perProc + i)
				for {
					err := q.Enqueue(pid, id)
					if err == nil {
						break
					}
					if !errors.Is(err, repro.ErrQueueFull) {
						panic(err)
					}
				}
			}
		}(p)
	}
	for c := 0; c < procs-producers; c++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for delivered.Load() < total {
				v, err := q.Dequeue(pid)
				if err != nil {
					if !errors.Is(err, repro.ErrQueueEmpty) {
						panic(err)
					}
					continue
				}
				if seen[v].Swap(true) {
					panic(fmt.Sprintf("value %d delivered twice", v))
				}
				delivered.Add(1)
			}
		}(producers + c)
	}
	wg.Wait()
	fmt.Printf("\nsharded queue: %d values over %d shards, delivered exactly once\n",
		total, q.Shards())
	fmt.Printf("               %d steals, %d spills (owner-first, steal-on-empty)\n",
		q.Steals(), q.Spills())
}

func mustStack(err error) {
	if err != nil && !errors.Is(err, repro.ErrStackFull) {
		panic(err)
	}
}
