// Command damaris-bench regenerates the paper's tables and figures from the
// simulated platforms, printing paper-reported values next to measured ones,
// and runs the gated bench suites.
//
// Usage:
//
//	damaris-bench                  # run every experiment
//	damaris-bench -experiment fig2 # one experiment
//	damaris-bench -list            # list experiment IDs
//	damaris-bench -seed 7          # change the deterministic seed
//	damaris-bench -suite all       # run every bench suite
//	damaris-bench -suite store,obs -out-dir out
//
// Each suite writes <out-dir>/BENCH_<suite>.json in one schema,
// {suite, metrics, gates: [{name, value, bound, ok}]}, and prints one line
// per gate; the command exits 1 naming every failed gate. The suites, in run
// order:
//
//	store       persist figures for the file and object backends; manifests
//	            are deterministic, re-uploads dedupe every part, restores are
//	            byte-identical across backends
//	aggregate   merge-path figures; merged objects are byte-identical across
//	            fan-in arrival orders, one per epoch; the aggregation-off
//	            persist allocs stay within 25% + 16 of the store baseline;
//	            simulated throughput curves over the paper's platforms
//	control     simulated convergence inside the bounds; 0-alloc observe
//	            path; static and auto control store identical bytes
//	gateway     warm full-object reads make no backend Gets and match the
//	            store's serial reader byte for byte
//	resilience  a brownout engages the scratch spill, the tuner vetoes growth
//	            while it drains, the backlog replays byte-identically, client
//	            stalls stay bounded; hedged puts win over a hung primary
//	obs         0-alloc observe paths, byte-stable exposition, bounded
//	            tracing cost on the persist path, a live scraped brownout
//	            run, federation merge cost and order stability, a live
//	            two-node fleet run, epoch critical-path attribution
//	shard       0-alloc shard routing, O(iteration) TakeIteration, byte
//	            identity across shard counts, the spare-core budget
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"damaris/internal/experiment"
)

func main() {
	var (
		id     = flag.String("experiment", "all", "experiment ID to run, or 'all'")
		seed   = flag.Int64("seed", 42, "deterministic seed for all experiments")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
		suite  = flag.String("suite", "", "comma-separated bench suites to run, or 'all' (one of: "+strings.Join(suiteNames(), ", ")+")")
		outDir = flag.String("out-dir", ".", "directory the suites write BENCH_<suite>.json into")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiment.IDs(), "\n"))
		return
	}

	if *suite != "" {
		run, err := selectSuites(*suite)
		if err == nil {
			err = runSuites(run, *outDir)
		}
		if err != nil {
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

// suite is one gated bench: run measures, and returns the figures for the
// report and the gates they must pass. An error means the suite could not
// measure at all.
type suite struct {
	name string
	run  func() (metrics any, gates []gate, err error)
}

// suites is the registry, in run order.
var suites = []suite{
	suiteOf("store", measureStore, storeGates),
	suiteOf("aggregate", measureAggregate, aggregateGates),
	suiteOf("control", measureControl, controlGates),
	suiteOf("gateway", measureGateway, gatewayGates),
	suiteOf("resilience", measureResilience, resilienceGates),
	suiteOf("obs", measureObs, obsGates),
	suiteOf("shard", measureShard, shardGates),
}

// suiteOf pairs a measurement with the gates its figures must pass.
func suiteOf[M any](name string, measure func() (M, error), gates func(M) []gate) suite {
	return suite{name: name, run: func() (any, []gate, error) {
		m, err := measure()
		if err != nil {
			return nil, nil, err
		}
		return m, gates(m), nil
	}}
}

func suiteNames() []string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return names
}

// selectSuites resolves a -suite value to registry entries, in table order.
func selectSuites(spec string) ([]suite, error) {
	if spec == "all" {
		return suites, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []suite
	for _, s := range suites {
		if want[s.name] {
			out = append(out, s)
			delete(want, s.name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown suite %q (valid: all, %s)", name, strings.Join(suiteNames(), ", "))
	}
	return out, nil
}

// runSuites runs each suite, writes its report, prints its gates, and
// returns an error naming every suite that failed to measure and every
// failed gate.
func runSuites(list []suite, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var errs []error
	for _, s := range list {
		metrics, gates, err := s.run()
		if err != nil {
			errs = append(errs, fmt.Errorf("suite %s: %w", s.name, err))
			continue
		}
		out, err := json.MarshalIndent(struct {
			Suite   string `json:"suite"`
			Metrics any    `json:"metrics"`
			Gates   []gate `json:"gates"`
		}{s.name, metrics, gates}, "", "  ")
		if err != nil {
			errs = append(errs, fmt.Errorf("suite %s: %w", s.name, err))
			continue
		}
		path := filepath.Join(outDir, "BENCH_"+s.name+".json")
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			errs = append(errs, err)
			continue
		}
		for _, g := range gates {
			status := "ok  "
			if !g.OK {
				status = "FAIL"
			}
			fmt.Printf("%s %-46s value=%-12.6g bound=%g\n", status, s.name+"/"+g.Name, g.Value, g.Bound)
		}
		fmt.Println("wrote", path)
		if err := checkGates(gates); err != nil {
			errs = append(errs, fmt.Errorf("suite %s: %w", s.name, err))
		}
	}
	return errors.Join(errs...)
}

// gate is one pass/fail check of a suite's figures, recorded in its report.
type gate struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

type number interface{ ~int | ~int64 | ~float64 }

func atMost[T number](name string, v, bound T) gate {
	return gate{name, float64(v), float64(bound), v <= bound}
}

func atLeast[T number](name string, v, bound T) gate {
	return gate{name, float64(v), float64(bound), v >= bound}
}

func equal[T number](name string, v, want T) gate {
	return gate{name, float64(v), float64(want), v == want}
}

// isTrue records a boolean check as value 1 (true) or 0 against bound 1.
func isTrue(name string, ok bool) gate {
	g := gate{Name: name, Bound: 1, OK: ok}
	if ok {
		g.Value = 1
	}
	return g
}

// checkGates returns an error naming every failed gate, or nil.
func checkGates(gates []gate) error {
	var failed []string
	for _, g := range gates {
		if !g.OK {
			failed = append(failed, fmt.Sprintf("%s (value %g, bound %g)", g.Name, g.Value, g.Bound))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed gates: %s", strings.Join(failed, ", "))
	}
	return nil
}
