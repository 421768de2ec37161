// Command damaris-bench regenerates the paper's tables and figures from the
// simulated platforms, printing paper-reported values next to measured ones.
//
// Usage:
//
//	damaris-bench                  # run every experiment
//	damaris-bench -experiment fig2 # one experiment
//	damaris-bench -list            # list experiment IDs
//	damaris-bench -seed 7          # change the deterministic seed
//	damaris-bench -persist-bench   # benchmark the DSF persist hot path and
//	                               # emit BENCH_persist.json (MB/s, allocs/op)
//	damaris-bench -store-bench     # benchmark the storage backends and emit
//	                               # BENCH_store.json (allocs + determinism,
//	                               # dedupe and byte-identity checks)
//	damaris-bench -gateway-bench   # benchmark the read gateway and emit
//	                               # BENCH_gateway.json (cold/warm latency
//	                               # ratio, warm allocs/op, cache hit rates)
//	damaris-bench -resilience-bench # run the overload-resilience gates
//	                               # (scratch spill under brownout, hedged
//	                               # puts over a hung primary) and emit
//	                               # BENCH_resilience.json
//	damaris-bench -obs-bench       # run the telemetry-plane gates (0-alloc
//	                               # observe paths, byte-stable exposition,
//	                               # live scraped brownout run) plus the
//	                               # fleet gates (federation merge allocs and
//	                               # scrape-order byte identity, live two-node
//	                               # /fleet/metrics counter-sum check, epoch
//	                               # critical-path attribution of a browned-
//	                               # out persist stage) and emit BENCH_obs.json
//	damaris-bench -shard-bench     # run the event-loop sharding gates (0-alloc
//	                               # shard routing, O(iteration) TakeIteration
//	                               # scaling, byte identity across shard
//	                               # counts, spare-core budget) and emit
//	                               # BENCH_shard.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"damaris/internal/experiment"
)

func main() {
	var (
		id           = flag.String("experiment", "all", "experiment ID to run, or 'all'")
		seed         = flag.Int64("seed", 42, "deterministic seed for all experiments")
		list         = flag.Bool("list", false, "list experiment IDs and exit")
		persistBench = flag.Bool("persist-bench", false,
			"benchmark the DSF persist path across encode worker counts and emit a JSON report")
		benchOut   = flag.String("bench-out", "BENCH_persist.json", "output path for -persist-bench")
		storeBench = flag.Bool("store-bench", false,
			"benchmark the storage backends (file + content-addressed object store) and emit a JSON report with determinism checks")
		storeOut       = flag.String("store-out", "BENCH_store.json", "output path for -store-bench")
		aggregateBench = flag.Bool("aggregate-bench", false,
			"benchmark the aggregation layer (merge allocs, arrival-order determinism, off-mode store parity, platform throughput curves) and emit a JSON report")
		aggregateOut = flag.String("aggregate-out", "BENCH_aggregate.json", "output path for -aggregate-bench")
		controlBench = flag.Bool("control-bench", false,
			"benchmark the adaptive control plane (simulated convergence curves, observe-path allocs, static-vs-auto byte parity) and emit a JSON report")
		controlOut   = flag.String("control-out", "BENCH_control.json", "output path for -control-bench")
		gatewayBench = flag.Bool("gateway-bench", false,
			"benchmark the read gateway (cold vs warm full-object reads, warm-path allocs, cache hit rates, zero-backend-Gets warm gate) and emit a JSON report")
		gatewayOut      = flag.String("gateway-out", "BENCH_gateway.json", "output path for -gateway-bench")
		resilienceBench = flag.Bool("resilience-bench", false,
			"run the overload-resilience gates (spill under brownout with byte-identity and bounded stall, hedged puts over a hung primary) and emit a JSON report")
		resilienceOut = flag.String("resilience-out", "BENCH_resilience.json", "output path for -resilience-bench")
		obsBench      = flag.Bool("obs-bench", false,
			"run the telemetry-plane and fleet gates (0-alloc observe paths, byte-stable exposition, federation merge determinism, live /fleet/metrics counter-sum and epoch critical-path attribution runs) and emit a JSON report")
		obsOut     = flag.String("obs-out", "BENCH_obs.json", "output path for -obs-bench")
		shardBench = flag.Bool("shard-bench", false,
			"run the event-loop sharding gates (0-alloc shard routing, O(iteration) TakeIteration scaling, byte identity across shard counts, spare-core budget) and emit a JSON report")
		shardOut = flag.String("shard-out", "BENCH_shard.json", "output path for -shard-bench")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiment.IDs(), "\n"))
		return
	}

	if *persistBench {
		if err := runPersistBench(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *storeBench {
		if err := runStoreBench(*storeOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *aggregateBench {
		if err := runAggregateBench(*aggregateOut, *storeOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *controlBench {
		if err := runControlBench(*controlOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *gatewayBench {
		if err := runGatewayBench(*gatewayOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *resilienceBench {
		if err := runResilienceBench(*resilienceOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *obsBench {
		if err := runObsBench(*obsOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *shardBench {
		if err := runShardBench(*shardOut); err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *id == "all" {
		tables, err := experiment.RunAll(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "damaris-bench:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		return
	}

	t, err := experiment.Run(*id, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "damaris-bench:", err)
		os.Exit(1)
	}
	fmt.Println(t.Render())
}
