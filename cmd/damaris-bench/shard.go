package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/control"
	"damaris/internal/core"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// shardParity is the sharding determinism gate: the same workload run with
// 1, 2 and 4 event-loop shards must leave DSF objects byte-identical to the
// classic single loop.
type shardParity struct {
	Objects   int  `json:"objects"`
	Variants  int  `json:"variants"`
	Identical bool `json:"identical"`
}

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

// shardBenchReport is BENCH_shard.json.
type shardBenchReport struct {
	// RoutingAllocsPerOp is the allocation count of one sharded-store Get —
	// the hash-route + lookup hot path runs on every write notification, so
	// the budget is zero.
	RoutingAllocsPerOp int64 `json:"routing_allocs_per_op"`
	// TakeIteration timing at 1 vs 64 resident iterations: the iteration
	// index makes the cost O(entries in the taken iteration), so the large
	// residency may not cost more than ScalingGate x the small one (the old
	// full-store scan scaled ~64x here).
	TakeIterationNsSmall float64     `json:"take_iteration_ns_small"`
	TakeIterationNsLarge float64     `json:"take_iteration_ns_large"`
	ScalingGate          float64     `json:"scaling_gate"`
	Parity               shardParity `json:"parity"`
	Budget               shardBudget `json:"budget"`
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

// runShardOnce executes one real middleware run (1 node x 4 cores, CM1 write
// pattern) with the given config mutation and injected store latency.
// It returns the output objects and the server's pipeline stats.
func runShardOnce(mut func(*config.Config), lat time.Duration, steps int) (map[string][]byte, core.PipelineStats, error) {
	var zero core.PipelineStats
	dir, err := os.MkdirTemp("", "damaris-shard-bench")
	if err != nil {
		return nil, zero, err
	}
	defer os.RemoveAll(dir)
	var opts store.Options
	if lat > 0 {
		opts.Fault = store.Latency(lat)
	}
	backend, err := store.NewFileStore(dir, opts)
	if err != nil {
		return nil, zero, err
	}
	defer backend.Close()

	const ranks, coresPerNode, outputEvery = 4, 4, 1
	params := cm1.DefaultParams(ranks-1, 1)
	cfg, err := config.ParseString(cm1.ConfigXML(params, 32<<20, "mutex", 1))
	if err != nil {
		return nil, zero, err
	}
	cfg.PersistWorkers = 1
	cfg.PersistQueueDepth = 1
	mut(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, zero, err
	}

	pers := &core.DSFPersister{Backend: backend}
	var mu sync.Mutex
	var firstErr error
	var ps core.PipelineStats
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	err = mpi.Run(ranks, coresPerNode, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil, core.Options{
			Persister: pers, Scheduler: ctlScheduler{},
		})
		if err != nil {
			fail(err)
			return
		}
		if !dep.IsClient() {
			if err := dep.Server.Run(); err != nil {
				fail(err)
			}
			mu.Lock()
			ps = dep.Server.PipelineStats()
			mu.Unlock()
			return
		}
		sim, err := cm1.New(dep.ClientComm, params)
		if err != nil {
			fail(err)
			return
		}
		b := cm1.NewDamarisBackend(dep.Client)
		if _, err := cm1.Run(sim, b, steps, outputEvery); err != nil {
			fail(err)
		}
		if err := b.Close(); err != nil {
			fail(err)
		}
	})
	if err != nil {
		return nil, zero, err
	}
	if firstErr != nil {
		return nil, zero, firstErr
	}

	out := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, zero, err
	}
	for _, e := range ents {
		if e.IsDir() || e.Name()[0] == '.' {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, zero, err
		}
		out[e.Name()] = b
	}
	return out, ps, nil
}

// runShardParity compares the classic loop against every shard-count
// variant under injected store latency (different interleavings by
// construction); all must produce identical bytes.
func runShardParity() (shardParity, error) {
	const steps, lat = 8, 500 * time.Microsecond
	ref, _, err := runShardOnce(func(*config.Config) {}, lat, steps)
	if err != nil {
		return shardParity{}, err
	}
	variants := []func(*config.Config){
		func(c *config.Config) { c.ShardCount = 1 },
		func(c *config.Config) { c.ShardCount = 2 },
		func(c *config.Config) { c.ShardCount = 4 },
	}
	p := shardParity{Objects: len(ref), Variants: len(variants), Identical: len(ref) > 0}
	for _, mut := range variants {
		got, _, err := runShardOnce(mut, lat, steps)
		if err != nil {
			return p, err
		}
		if len(got) != len(ref) {
			p.Identical = false
			continue
		}
		for name, want := range ref {
			if string(got[name]) != string(want) {
				p.Identical = false
			}
		}
	}
	return p, nil
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

// runShardBench runs the event-loop sharding gates — 0-alloc routing,
// O(iteration) TakeIteration scaling, byte-identity across shard counts,
// and the spare-core budget — and writes
// BENCH_shard.json. Any failed gate is an error.
func runShardBench(outPath string) error {
	allocs := benchShardRouting()
	fmt.Printf("routing: %d allocs/op on the sharded-store Get path\n", allocs)

	small := benchTakeIteration(1)
	large := benchTakeIteration(64)
	fmt.Printf("take-iteration: %.0f ns at 1 resident iteration, %.0f ns at 64 (x%.2f)\n",
		small, large, large/small)

	parity, err := runShardParity()
	if err != nil {
		return err
	}
	fmt.Printf("parity: %d objects x %d shard variants, byte-identical=%v\n",
		parity.Objects, parity.Variants, parity.Identical)

	budget, err := runShardBudget()
	if err != nil {
		return err
	}
	fmt.Printf("budget: %d spare cores (%d reserved); max used %d over %d decisions, %d growth vetoes, respected=%v\n",
		budget.Budget, budget.Reserved, budget.MaxUsed, budget.Decisions, budget.Vetoes, budget.Respected)

	out, err := json.MarshalIndent(shardBenchReport{
		RoutingAllocsPerOp:   allocs,
		TakeIterationNsSmall: small,
		TakeIterationNsLarge: large,
		ScalingGate:          takeIterationScalingGate,
		Parity:               parity,
		Budget:               budget,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	if allocs > 0 {
		return fmt.Errorf("sharded-store routing path allocates %d/op, budget is 0 (see %s)", allocs, outPath)
	}
	if large > small*takeIterationScalingGate {
		return fmt.Errorf("TakeIteration scales with residency (%.0f ns -> %.0f ns, gate x%.0f; see %s)",
			small, large, takeIterationScalingGate, outPath)
	}
	if !parity.Identical {
		return fmt.Errorf("sharded output parity failed (see %s)", outPath)
	}
	if !budget.Respected || budget.Vetoes < 1 {
		return fmt.Errorf("spare-core budget gate failed: respected=%v vetoes=%d (see %s)",
			budget.Respected, budget.Vetoes, outPath)
	}
	return nil
}
