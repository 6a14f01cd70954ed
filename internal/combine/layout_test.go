package combine

import (
	"reflect"
	"slices"
	"testing"
)

// TestCoreHotWordLayout pins Core's grouping by writer and frequency.
// Blank padding fields split the struct into runs of named fields; the
// runs must be exactly the read-mostly header, the lease/heartbeat pair
// and the per-pass counters, and each run must start at least 64 B
// after the previous run's last word. Fields are word-aligned, so two
// words that far apart never share a 64-byte line at any allocation
// offset. A new field must be placed in one of the groups here, so it
// cannot silently put a written word next to the header again.
func TestCoreHotWordLayout(t *testing.T) {
	want := [][]string{
		{"try", "contention", "obs", "leaseBudget", "leaseTimeout", "slots", "armed"},
		{"lease", "beat"},
		{"combines", "served", "maxBatch", "retries", "steals", "crashes"},
	}
	type group struct {
		names       []string
		first, last uintptr // offsets of the first and last words
	}
	var groups []group
	typ := reflect.TypeFor[Core[int, int]]()
	inRun := false
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			inRun = false
			continue
		}
		if !inRun {
			groups = append(groups, group{first: f.Offset})
			inRun = true
		}
		g := &groups[len(groups)-1]
		g.names = append(g.names, f.Name)
		g.last = f.Offset + f.Type.Size() - 8
	}
	if len(groups) != len(want) {
		t.Fatalf("Core has %d padded groups, want %d: %v", len(groups), len(want), groups)
	}
	for i, g := range groups {
		if !slices.Equal(g.names, want[i]) {
			t.Errorf("Core group %d is %v, want %v", i, g.names, want[i])
		}
		if i > 0 {
			if d := g.first - groups[i-1].last; d < 64 {
				t.Errorf("Core group %v starts %d B after %v's last word, want >= 64", g.names, d, groups[i-1].names)
			}
		}
	}
}
