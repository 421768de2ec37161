package metadata

import (
	"fmt"
	"reflect"
	"testing"
)

func TestNewShardedRoundsToPowerOfTwo(t *testing.T) {
	cases := map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16}
	for in, want := range cases {
		if got := NewSharded(in).ShardCount(); got != want {
			t.Errorf("NewSharded(%d).ShardCount() = %d, want %d", in, got, want)
		}
	}
	if got := NewStore().ShardCount(); got != 1 {
		t.Errorf("NewStore().ShardCount() = %d, want 1", got)
	}
}

// fillStore puts the same deterministic population into a store: several
// variables x sources x iterations, enough to spread over every shard.
func fillStore(t *testing.T, s *Store) {
	t.Helper()
	for _, name := range []string{"temperature", "pressure", "u", "v", "w", "qv"} {
		for src := 0; src < 8; src++ {
			for it := int64(0); it < 4; it++ {
				if err := s.Put(inlineEntry(name, it, src, 8)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// keysOf projects entries to their keys (entries are distinct objects per
// store, so identity comparison is useless across stores).
func keysOf(entries []*Entry) []Key {
	out := make([]Key, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

func TestShardedQueriesMatchSingleShard(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			// TakeIteration consumes, so each subtest gets its own reference.
			ref := NewSharded(1)
			fillStore(t, ref)
			s := NewSharded(n)
			fillStore(t, s)
			if s.Len() != ref.Len() {
				t.Fatalf("Len = %d, want %d", s.Len(), ref.Len())
			}
			if got, want := s.Iterations(), ref.Iterations(); !sameIterSet(got, want) {
				t.Fatalf("Iterations = %v, want %v", got, want)
			}
			for it := int64(0); it < 4; it++ {
				if got, want := keysOf(s.Iteration(it)), keysOf(ref.Iteration(it)); !reflect.DeepEqual(got, want) {
					t.Fatalf("Iteration(%d) order differs:\n got %v\nwant %v", it, got, want)
				}
				if got, want := s.TotalBytes(it), ref.TotalBytes(it); got != want {
					t.Fatalf("TotalBytes(%d) = %d, want %d", it, got, want)
				}
			}
			if got, want := keysOf(s.Variable("pressure")), keysOf(ref.Variable("pressure")); !reflect.DeepEqual(got, want) {
				t.Fatalf("Variable order differs:\n got %v\nwant %v", got, want)
			}
			// TakeIteration must hand back the exact same deterministic order
			// regardless of how the entries were spread over shards.
			if got, want := keysOf(s.TakeIteration(2)), keysOf(ref.TakeIteration(2)); !reflect.DeepEqual(got, want) {
				t.Fatalf("TakeIteration order differs:\n got %v\nwant %v", got, want)
			}
			if got := s.Iteration(2); len(got) != 0 {
				t.Fatalf("iteration 2 still has %d entries after TakeIteration", len(got))
			}
		})
	}
}

func sameIterSet(a, b []int64) bool {
	seen := make(map[int64]bool, len(a))
	for _, it := range a {
		seen[it] = true
	}
	if len(seen) != len(b) {
		return false
	}
	for _, it := range b {
		if !seen[it] {
			return false
		}
	}
	return true
}

// BenchmarkTakeIterationResident gates the iteration index: taking one
// iteration must cost O(entries in that iteration), independent of how many
// other iterations are resident, and the routing path must not allocate.
func BenchmarkTakeIterationResident(b *testing.B) {
	for _, resident := range []int{1, 64} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			s := NewSharded(4)
			for it := int64(0); it < int64(resident); it++ {
				for src := 0; src < 16; src++ {
					e := &Entry{Key: Key{Name: "var", Iteration: it, Source: src},
						Inline: make([]byte, 8)}
					if err := s.Put(e); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for src := 0; src < 16; src++ {
					e := &Entry{Key: Key{Name: "var", Iteration: 0, Source: src},
						Inline: make([]byte, 8)}
					if err := s.Put(e); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if got := s.TakeIteration(0); len(got) != 16 {
					b.Fatalf("took %d entries", len(got))
				}
			}
		})
	}
}

// BenchmarkStoreGet gates the shard-routing hot path: a hit must be 0
// allocs/op whatever the shard count.
func BenchmarkStoreGet(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s := NewSharded(n)
			for src := 0; src < 16; src++ {
				if err := s.Put(inlineEntry("temperature", 1, src, 8)); err != nil {
					b.Fatal(err)
				}
			}
			k := Key{"temperature", 1, 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(k); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkTotalBytes gates the O(iteration) byte sum against the old
// O(whole store) scan: cost must track the one iteration, not residency.
func BenchmarkTotalBytes(b *testing.B) {
	s := NewSharded(4)
	for it := int64(0); it < 64; it++ {
		for src := 0; src < 16; src++ {
			e := &Entry{Key: Key{Name: "var", Iteration: it, Source: src},
				Inline: make([]byte, 8)}
			if err := s.Put(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.TotalBytes(3) != 16*8 {
			b.Fatal("wrong sum")
		}
	}
}
