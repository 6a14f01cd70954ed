package repro_test

import (
	"errors"
	"strconv"
	"testing"

	"repro"
	"repro/internal/spec"
)

// The catalog-driven lockstep fuzzers: one per object kind, running
// EVERY same-kind backend of repro.Catalog() against the sequential
// spec on the same decoded solo op sequence. A backend added to the
// catalog is fuzzed automatically; none is listed here by name. Solo
// runs must agree exactly — weak backends never abort without
// concurrency (the paper's obstruction-freedom obligation, E2), and
// the single-pid pooled backends recycle every retired node on the
// very next operation, keeping maximum same-handle reuse pressure on
// the sequence tags.

// fuzzKind replays data (byte 2i: op code mod ops.N; byte 2i+1:
// value) against one backend's uniform driver and a spec oracle.
// check returns the spec's answer for the op: the expected value (or
// boolean as 1/0) and the sentinel error the backend must report
// (nil for success).
func fuzzKind(t *testing.T, name string, ops repro.Ops, data []byte,
	check func(op int, v uint64) (uint64, error)) {
	t.Helper()
	for i := 0; i+1 < len(data); i += 2 {
		op := int(data[i]) % ops.N
		v := uint64(data[i+1])
		got, err := ops.Do(0, op, v)
		want, wantErr := check(op, v)
		if !errors.Is(err, wantErr) || (err == nil && got != want) {
			t.Fatalf("%s op %d: code %d(%d) = (%d, %v), spec (%d, %v)",
				name, i, op, v, got, err, want, wantErr)
		}
	}
}

func FuzzStackBackendsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 1, 0, 0, 8, 0, 7, 0, 6, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		for _, b := range repro.CatalogByKind(repro.KindStack) {
			opts := append([]repro.Option{repro.WithCapacity(k), repro.WithProcs(1)}, b.LinOpts...)
			variants := []repro.Ops{repro.Drive(b, opts...)}
			if b.Domain == "generic" {
				variants = append(variants, stringStack(t, b.Name, opts))
			}
			cap := k
			if !b.Bounded {
				cap = 1 << 30
			}
			for _, ops := range variants {
				ref := spec.NewStack[uint64](cap)
				fuzzKind(t, b.Name, ops, data, func(op int, v uint64) (uint64, error) {
					if op == 0 {
						if ref.Push(v) {
							return 0, nil
						}
						return 0, repro.ErrStackFull
					}
					if want, ok := ref.Pop(); ok {
						return want, nil
					}
					return 0, repro.ErrStackEmpty
				})
			}
		}
	})
}

// stringStack drives the named generic-domain stack backend at
// T = string, each value travelling as its decimal text: the lockstep
// replay then covers a pointer-carrying T, where a value slot read or
// cleared out of turn shows up as a wrong or empty string.
func stringStack(t *testing.T, name string, opts []repro.Option) repro.Ops {
	s, err := repro.NewStackBackend[string](name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return repro.Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
		if op == 0 {
			return 0, s.Push(pid, strconv.FormatUint(v, 10))
		}
		str, err := s.Pop(pid)
		if err != nil {
			return 0, err
		}
		return strconv.ParseUint(str, 10, 64)
	}}
}

func FuzzQueueBackendsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		for _, b := range repro.CatalogByKind(repro.KindQueue) {
			// LinOpts pin relaxed backends to their sequential shape
			// (the sharded queue striped to K=1 keeps global FIFO).
			ops := repro.Drive(b, append([]repro.Option{
				repro.WithCapacity(k), repro.WithProcs(1)}, b.LinOpts...)...)
			cap := k
			if !b.Bounded {
				cap = 1 << 30
			}
			ref := spec.NewQueue[uint64](cap)
			fuzzKind(t, b.Name, ops, data, func(op int, v uint64) (uint64, error) {
				if op == 0 {
					if ref.Enqueue(v) {
						return 0, nil
					}
					return 0, repro.ErrQueueFull
				}
				if want, ok := ref.Dequeue(); ok {
					return want, nil
				}
				return 0, repro.ErrQueueEmpty
			})
		}
	})
}

func FuzzDequeBackendsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 0})
	f.Add([]byte{1, 9, 1, 8, 1, 7, 3, 0, 3, 0, 0, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 5
		for _, b := range repro.CatalogByKind(repro.KindDeque) {
			ops := repro.Drive(b, repro.WithCapacity(k), repro.WithProcs(1))
			ref := spec.NewDeque[uint32](k)
			fuzzKind(t, b.Name, ops, data, func(op int, v uint64) (uint64, error) {
				switch op {
				case 0:
					if ref.PushLeft(uint32(v)) {
						return 0, nil
					}
					return 0, repro.ErrDequeFull
				case 1:
					if ref.PushRight(uint32(v)) {
						return 0, nil
					}
					return 0, repro.ErrDequeFull
				case 2:
					if want, ok := ref.PopLeft(); ok {
						return uint64(want), nil
					}
					return 0, repro.ErrDequeEmpty
				default:
					if want, ok := ref.PopRight(); ok {
						return uint64(want), nil
					}
					return 0, repro.ErrDequeEmpty
				}
			})
		}
	})
}

// FuzzAdaptiveVsSpec drives the three adaptive meta-backends in
// lockstep with the sequential specs while the op stream forces rung
// migrations in BOTH directions at fuzzer-chosen points: opcode 3
// morphs all three objects to a data-chosen rung, so climbs, descents,
// and no-op self-morphs land between arbitrary op prefixes. Every op
// must agree with the spec exactly as if no migration had happened —
// migration is a representation change, never an abstract-state change
// — and the final drain re-checks the complete contents (order
// included) on whatever rung each object ended.
func FuzzAdaptiveVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 1, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 5, 3, 2, 0, 6, 3, 0, 1, 0, 1, 0, 2, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 3, 1, 1, 0, 1, 0, 3, 2, 0, 7, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		st := repro.NewAdaptiveStack[uint64](k, 1)
		qu := repro.NewAdaptiveQueue[uint64](k, 1, 1) // 1 shard: global FIFO on the top rung
		se := repro.NewAdaptiveSet(1)
		refS := spec.NewStack[uint64](k)
		refQ := spec.NewQueue[uint64](k)
		refSet := spec.NewSet()
		for i := 0; i+1 < len(data); i += 2 {
			op, v := int(data[i])%4, uint64(data[i+1])
			switch op {
			case 0:
				gotErr := st.Push(0, v)
				if wantOK := refS.Push(v); (gotErr == nil) != wantOK {
					t.Fatalf("op %d: stack push(%d) err %v, spec ok %v", i, v, gotErr, wantOK)
				}
				gotErr = qu.Enqueue(0, v)
				if wantOK := refQ.Enqueue(v); (gotErr == nil) != wantOK {
					t.Fatalf("op %d: queue enqueue(%d) err %v, spec ok %v", i, v, gotErr, wantOK)
				}
				if got, want := se.Add(0, v%16), refSet.Add(v%16); got != want {
					t.Fatalf("op %d: set add(%d) = %v, spec %v", i, v%16, got, want)
				}
			case 1:
				got, gotErr := st.Pop(0)
				if want, ok := refS.Pop(); (gotErr == nil) != ok || (ok && got != want) {
					t.Fatalf("op %d: stack pop = (%d, %v), spec (%d, %v)", i, got, gotErr, want, ok)
				}
				got, gotErr = qu.Dequeue(0)
				if want, ok := refQ.Dequeue(); (gotErr == nil) != ok || (ok && got != want) {
					t.Fatalf("op %d: queue dequeue = (%d, %v), spec (%d, %v)", i, got, gotErr, want, ok)
				}
				if got, want := se.Remove(0, v%16), refSet.Remove(v%16); got != want {
					t.Fatalf("op %d: set remove(%d) = %v, spec %v", i, v%16, got, want)
				}
			case 2:
				if got, want := se.Contains(0, v%16), refSet.Contains(v%16); got != want {
					t.Fatalf("op %d: set contains(%d) = %v, spec %v", i, v%16, got, want)
				}
			default:
				// Forced migration: solo, it must always reach its rung.
				if !st.MorphTo(0, int(v)%2) {
					t.Fatalf("op %d: stack MorphTo(%d) failed", i, int(v)%2)
				}
				if !qu.MorphTo(0, int(v)%3) {
					t.Fatalf("op %d: queue MorphTo(%d) failed", i, int(v)%3)
				}
				if !se.MorphTo(0, int(v)%3) {
					t.Fatalf("op %d: set MorphTo(%d) failed", i, int(v)%3)
				}
			}
		}
		// Drain both containers and sweep the key space: the complete
		// remaining contents must match the spec on the final rung.
		for {
			got, gotErr := st.Pop(0)
			want, ok := refS.Pop()
			if (gotErr == nil) != ok || (ok && got != want) {
				t.Fatalf("drain: stack pop = (%d, %v), spec (%d, %v)", got, gotErr, want, ok)
			}
			if !ok {
				break
			}
		}
		for {
			got, gotErr := qu.Dequeue(0)
			want, ok := refQ.Dequeue()
			if (gotErr == nil) != ok || (ok && got != want) {
				t.Fatalf("drain: queue dequeue = (%d, %v), spec (%d, %v)", got, gotErr, want, ok)
			}
			if !ok {
				break
			}
		}
		for key := uint64(0); key < 16; key++ {
			if got, want := se.Contains(0, key), refSet.Contains(key); got != want {
				t.Fatalf("sweep: set contains(%d) = %v, spec %v", key, got, want)
			}
		}
	})
}

func FuzzSetBackendsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 5, 0, 3, 1, 5, 0, 4, 1, 3, 2, 4})
	f.Add([]byte{0, 9, 1, 9, 0, 9, 1, 9, 0, 9, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range repro.CatalogByKind(repro.KindSet) {
			inner := repro.Drive(b, repro.WithProcs(1))
			// Fold keys into a small range so duplicate adds, absent
			// removes, and membership flips all occur.
			ops := repro.Ops{N: inner.N, Do: func(pid, op int, v uint64) (uint64, error) {
				return inner.Do(pid, op, v%16)
			}}
			ref := spec.NewSet()
			fuzzKind(t, b.Name, ops, data, func(op int, v uint64) (uint64, error) {
				k := v % 16
				var want bool
				switch op {
				case 0:
					want = ref.Add(k)
				case 1:
					want = ref.Remove(k)
				default:
					want = ref.Contains(k)
				}
				if want {
					return 1, nil
				}
				return 0, nil
			})
		}
	})
}
