package sched

import "testing"

// TestHarrisABAScheduleReplays verifies the set tier's recycled-node
// ABA window deterministically: a node retired by Remove comes back at
// the same handle holding a different key while a slow Add still holds
// its old next word; the sequence tag makes the stale link CAS fail,
// and the program checks linearizability, the final sorted contents,
// and that recycling actually happened.
func TestHarrisABAScheduleReplays(t *testing.T) { replayPinned(t, "harris-set") }

// TestHashSplitABAScheduleReplays verifies the split-ordered hash
// set's bucket-initialization ABA window deterministically: a node
// retired by Remove comes back at the same handle as the bucket's
// published sentinel while a slow splitter still holds the register's
// old word; handle parts are equal (both nil successors), so only the
// sequence tag makes the stale link CAS fail — without it a duplicate
// sentinel would corrupt the bucket skeleton. The program checks
// linearizability, the final contents, and that both recycles (the
// sentinel's and the loser's never-published node) actually happened.
func TestHashSplitABAScheduleReplays(t *testing.T) { replayPinned(t, "hash-set-split") }

// TestSetSoloNeverAborts extends the E2 obligation to the set tier:
// exhaustive solo schedules over add/remove/contains — duplicate adds
// and absent removes included — must never abort.
func TestSetSoloNeverAborts(t *testing.T) {
	plan := []Op{
		{opAdd, 5}, {opAdd, 3}, {opAdd, 5}, {opHas, 3},
		{opRem, 5}, {opHas, 5}, {opRem, 5}, {opRem, 3},
	}
	for _, name := range []string{"set/cow", "set/harris", "set/hash"} {
		explore(t, name, Program(Lookup(name, 0), nil, [][]Op{plan}, nil))
	}
}

// TestCowSetRandomWalks hammers the copy-on-write abortable set with
// random schedules of a contended plan: every interleaving must stay
// linearizable, with aborted attempts taking no effect.
func TestCowSetRandomWalks(t *testing.T) {
	walk(t, "set/cow", []uint64{10, 20}, [][]Op{
		{{opRem, 10}, {opAdd, 15}, {opHas, 20}},
		{{opAdd, 15}, {opRem, 20}, {opHas, 10}},
	}, 400, 0x5e7)
}

// TestHarrisRandomWalks walks the lock-free list under a plan mixing
// overlapping windows and recycling (removes feeding later adds
// through the per-pid free lists).
func TestHarrisRandomWalks(t *testing.T) {
	walk(t, "set/harris", []uint64{10, 20, 30}, [][]Op{
		{{opRem, 20}, {opAdd, 25}, {opHas, 30}},
		{{opRem, 30}, {opAdd, 20}, {opRem, 10}},
	}, 300, 0xaba5e7)
}

// TestHashRandomWalks walks the split-ordered hash set under a plan
// that mixes same-bucket contention (keys 1, 3, 5 all live in bucket 1
// of the initial 2-bucket table, so splits, adoptions and window CASes
// collide) with cross-bucket traffic and recycling.
func TestHashRandomWalks(t *testing.T) {
	walk(t, "set/hash", []uint64{4, 6}, [][]Op{
		{{opAdd, 1}, {opRem, 6}, {opHas, 3}},
		{{opAdd, 3}, {opRem, 1}, {opAdd, 5}},
	}, 300, 0x5b117)
}

// TestSetBackendNames pins the set targets' names.
func TestSetBackendNames(t *testing.T) {
	kindVariants(t, "set", "cow", "harris", "hash", "adaptive")
}
