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
// spec.Set: byte 2i picks the op, byte 2i+1 the key over a 256-key
// range. One pid means every removed node goes back on the very free
// list the next Add draws from, so a node returns under a new key
// with its next word's tag still advancing from the old life — the
// engine the hash layer reuses, fuzzed without the bucket shortcuts in
// front.
func FuzzHarrisVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 5, 0, 3, 1, 5, 0, 4, 1, 3, 0, 9, 2, 4, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewHarris(1)
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
// sentinels. The final Snapshot/Size must match the reference exactly.
func FuzzHashVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	seed := make([]byte, 0, 128)
	for i := byte(0); i < 64; i++ { // forces at least one resize
		seed = append(seed, 0, i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewHash(1)
		ref := lockstepVsSpec(t, s, data, func() string {
			return fmt.Sprintf(" (buckets %d, resizes %d)", s.Buckets(), s.Resizes())
		})
		if got, want := s.Size(), ref.Len(); got != want {
			t.Fatalf("Size() = %d, spec %d", got, want)
		}
		checkSnapshot(t, s.Snapshot(), ref)
	})
}

// lockstepVsSpec applies data's ops to s and a fresh spec.Set, failing
// on the first diverging answer (ctx adds backend state to the
// message), and returns the reference.
func lockstepVsSpec(t *testing.T, s Strong, data []byte, ctx func() string) *spec.Set {
	t.Helper()
	ref := spec.NewSet()
	for i := 0; i+1 < len(data); i += 2 {
		k := uint64(data[i+1])
		var got, want bool
		switch data[i] % 3 {
		case 0:
			got, want = s.Add(0, k), ref.Add(k)
		case 1:
			got, want = s.Remove(0, k), ref.Remove(k)
		default:
			got, want = s.Contains(0, k), ref.Contains(k)
		}
		if got != want {
			t.Fatalf("op %d key %d: set %v, spec %v%s", i, k, got, want, ctx())
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
