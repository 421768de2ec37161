package main

import (
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/control"
	"damaris/internal/metadata"
)

// shardBudget is the spare-core budget gate, from a deterministic
// ManualClock tuner drive under sustained growth pressure: every decision
// must keep Writers+Encode+Reserved within the budget, and at least one
// growth veto must have fired (the pressure really did push at the limit).
type shardBudget struct {
	Budget    int   `json:"budget"`
	Reserved  int   `json:"reserved"`
	Decisions int64 `json:"decisions"`
	Vetoes    int64 `json:"vetoes"`
	// MaxUsed is the largest Writers+Encode+Reserved seen at any decision.
	MaxUsed   int  `json:"max_used"`
	Respected bool `json:"respected"`
}

// shardMetrics is the shard suite's report.
type shardMetrics struct {
	// RoutingAllocsPerOp is the allocation count of one sharded-store Get —
	// the hash-route + lookup hot path runs on every write notification, so
	// the budget is zero.
	RoutingAllocsPerOp int64 `json:"routing_allocs_per_op"`
	// TakeIteration timing at 1 vs 64 resident iterations: the iteration
	// index makes the cost O(entries in the taken iteration), so the large
	// residency may not cost more than takeIterationScalingGate x the small
	// one (the old full-store scan scaled ~64x here).
	TakeIterationNsSmall float64 `json:"take_iteration_ns_small"`
	TakeIterationNsLarge float64 `json:"take_iteration_ns_large"`
	// Parity: the same workload run with 1, 2 and 4 event-loop shards must
	// leave DSF objects byte-identical to the classic single loop.
	Parity parityResult `json:"parity"`
	Budget shardBudget  `json:"budget"`
}

// takeIterationScalingGate: large-residency TakeIteration may cost at most
// this multiple of the single-resident case. The bound is deliberately loose
// (shard iteration overhead, cache effects) — the regression it guards
// against is the O(whole store) scan, a ~64x blowup at this residency.
const takeIterationScalingGate = 8.0

// benchShardRouting measures one sharded-store Get (hash route + lookup).
func benchShardRouting() int64 {
	r := testing.Benchmark(func(b *testing.B) {
		s := metadata.NewSharded(4)
		for src := 0; src < 16; src++ {
			e := &metadata.Entry{
				Key:    metadata.Key{Name: "temperature", Iteration: 1, Source: src},
				Inline: make([]byte, 8),
			}
			if err := s.Put(e); err != nil {
				b.Fatal(err)
			}
		}
		k := metadata.Key{Name: "temperature", Iteration: 1, Source: 7}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(k); !ok {
				b.Fatal("miss")
			}
		}
	})
	return r.AllocsPerOp()
}

// benchTakeIteration times TakeIteration of one 16-entry iteration with
// `resident` iterations in the store.
func benchTakeIteration(resident int) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		s := metadata.NewSharded(4)
		for it := int64(1); it < int64(resident); it++ {
			for src := 0; src < 16; src++ {
				e := &metadata.Entry{
					Key:    metadata.Key{Name: "var", Iteration: it, Source: src},
					Inline: make([]byte, 8),
				}
				if err := s.Put(e); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for src := 0; src < 16; src++ {
				e := &metadata.Entry{
					Key:    metadata.Key{Name: "var", Iteration: 0, Source: src},
					Inline: make([]byte, 8),
				}
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
	return float64(r.NsPerOp())
}

// runShardBudget drives the tuner deterministically under sustained growth
// pressure — flush latency far above the interval (wants more writers) and
// encode latency above store latency (wants more encoders) — against a
// budget it already fills. Every decision must stay within the budget.
func runShardBudget() (shardBudget, error) {
	const budget, reserved = 5, 2
	clk := control.NewManualClock(time.Unix(0, 0))
	tn, err := control.New(control.Config{
		Mode:     "auto",
		Initial:  control.Sizes{Writers: 2, Window: 2, Encode: 1},
		Limits:   control.Limits{MaxWriters: 8, MaxWindow: 8, MaxEncode: 4},
		Clock:    clk,
		Budget:   budget,
		Reserved: reserved,
	})
	if err != nil {
		return shardBudget{}, err
	}
	sample := control.Sample{
		FlushLatency:  0.05,
		Interval:      0.005,
		QueueDepth:    2,
		EncodeLatency: 0.004,
		StoreLatency:  0.001,
		RingFill:      -1,
	}
	out := shardBudget{Budget: budget, Reserved: reserved, Respected: true}
	for i := 0; i < 40; i++ {
		clk.Advance(control.DefaultInterval)
		sizes, _ := tn.Observe(sample)
		if used := sizes.Writers + sizes.Encode + reserved; used > out.MaxUsed {
			out.MaxUsed = used
		}
		if sizes.Writers+sizes.Encode+reserved > budget {
			out.Respected = false
		}
	}
	st := tn.Stats()
	out.Decisions = st.Decisions
	out.Vetoes = st.BudgetVetoes
	return out, nil
}

func measureShard() (shardMetrics, error) {
	m := shardMetrics{
		RoutingAllocsPerOp:   benchShardRouting(),
		TakeIterationNsSmall: benchTakeIteration(1),
		TakeIterationNsLarge: benchTakeIteration(64),
	}
	// The classic loop against every shard count, under injected store
	// latency (different interleavings by construction).
	const lat = 500 * time.Microsecond
	shards := func(n int) func(*config.Config) {
		return func(c *config.Config) { c.ShardCount = n }
	}
	var err error
	m.Parity, err = parity(deployment{ranks: 4, coresPerNode: 4, dedicated: 1, steps: 8, outputEvery: 1},
		[]storeRun{{nil, lat}, {shards(1), lat}, {shards(2), lat}, {shards(4), lat}})
	if err != nil {
		return m, err
	}
	m.Budget, err = runShardBudget()
	return m, err
}

func shardGates(m shardMetrics) []gate {
	return []gate{
		atMost("routing_allocs_per_op", m.RoutingAllocsPerOp, 0),
		atMost("take_iteration_growth", m.TakeIterationNsLarge/max(m.TakeIterationNsSmall, 1), takeIterationScalingGate),
		isTrue("shard_byte_identical", m.Parity.Identical),
		isTrue("budget_respected", m.Budget.Respected),
		atLeast("budget_vetoes", m.Budget.Vetoes, 1),
	}
}
