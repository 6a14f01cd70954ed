package set

import (
	"fmt"
	"testing"

	"repro/internal/spec"
)

// The cross-backend lockstep fuzzer lives at the repo root now
// (FuzzSetBackendsAgree in the public repro_test package): it iterates
// repro.Catalog() instead of enumerating backends by hand, with
// single-pid pools so every remove's node returns on the very next add
// — maximum same-handle reuse pressure on the next-register tags.
// FuzzHarrisVsSpec and FuzzHashVsSpec stay here for the list engine
// alone and for the split-ordering internals (table doublings,
// sentinel adoption, snapshot shape) the uniform surface cannot reach.

// FuzzHarrisVsSpec runs the pooled Harris list in lockstep with
// spec.Set: byte 2i picks the op and the pid, byte 2i+1 the key over a
// 256-key range. While one pid runs, every removed node goes back on
// the very free list the next Add draws from, so a node returns under
// a new key with its next word's tag still advancing from the old life
// — the engine the hash layer reuses, fuzzed without the bucket
// shortcuts in front. Changing pids moves nodes between free lists.
func FuzzHarrisVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 5, 0, 3, 1, 5, 0, 4, 1, 3, 0, 9, 2, 4, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewHarris(fuzzProcs)
		ref := lockstepVsSpec(t, s, data, func() string { return "" })
		checkSnapshot(t, s.Snapshot(), ref)
	})
}

// FuzzHashVsSpec runs the split-ordered hash set in lockstep with
// spec.Set across table resizes: byte 2i picks the op, byte 2i+1 the
// key over a 256-key range — wide enough that a long input crosses
// several doublings (the load threshold is hashMaxLoad per bucket
// starting from hashInitialBuckets buckets), so answers are checked on
// both sides of every publish, through lazy bucket splits and adopted
// sentinels. The op byte also picks the pid, and with it the count
// stripe an update lands on: the final Snapshot/Size must match the
// reference exactly, so Size's sum across stripes is checked too.
func FuzzHashVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	seed := make([]byte, 0, 128)
	for i := byte(0); i < 64; i++ { // forces at least one resize
		seed = append(seed, 0, i)
	}
	f.Add(seed)
	// pid 1 adds 40 keys (three doublings), pid 2 removes them all: both
	// stripes end far from zero and only their sum is right.
	cross := make([]byte, 0, 160)
	for i := byte(0); i < 40; i++ {
		cross = append(cross, 3, i)
	}
	for i := byte(0); i < 40; i++ {
		cross = append(cross, 7, i)
	}
	f.Add(cross)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewHash(fuzzProcs)
		ref := lockstepVsSpec(t, s, data, func() string {
			return fmt.Sprintf(" (buckets %d, resizes %d)", s.Buckets(), s.Resizes())
		})
		if got, want := s.Size(), ref.Len(); got != want {
			t.Fatalf("Size() = %d, spec %d", got, want)
		}
		checkSnapshot(t, s.Snapshot(), ref)
	})
}

// fuzzProcs is the process count the lockstep fuzzers build their sets
// for.
const fuzzProcs = 3

// lockstepVsSpec applies data's ops to s and a fresh spec.Set, failing
// on the first diverging answer (ctx adds backend state to the
// message), and returns the reference. Op byte b picks the op as b%3
// and the pid as b/3%fuzzProcs, so op bytes 0-2 run pid 0.
func lockstepVsSpec(t *testing.T, s Strong, data []byte, ctx func() string) *spec.Set {
	t.Helper()
	ref := spec.NewSet()
	for i := 0; i+1 < len(data); i += 2 {
		k, pid := uint64(data[i+1]), int(data[i]/3%fuzzProcs)
		var got, want bool
		switch data[i] % 3 {
		case 0:
			got, want = s.Add(pid, k), ref.Add(k)
		case 1:
			got, want = s.Remove(pid, k), ref.Remove(k)
		default:
			got, want = s.Contains(pid, k), ref.Contains(k)
		}
		if got != want {
			t.Fatalf("op %d pid %d key %d: set %v, spec %v%s", i, pid, k, got, want, ctx())
		}
	}
	return ref
}

// checkSnapshot is the bidirectional final-state check: same length
// and strictly ascending makes snapshot ⊆ spec imply snapshot == spec
// (a duplicated key plus a dropped one cannot cancel out).
func checkSnapshot(t *testing.T, snap []uint64, ref *spec.Set) {
	t.Helper()
	if got, want := len(snap), ref.Len(); got != want {
		t.Fatalf("Snapshot has %d keys, spec %d", got, want)
	}
	for i, k := range snap {
		if i > 0 && snap[i-1] >= k {
			t.Fatalf("Snapshot not strictly ascending at %d: %v", i, snap[i-1:i+1])
		}
		if !ref.Contains(k) {
			t.Fatalf("Snapshot holds %d, spec does not", k)
		}
	}
}
