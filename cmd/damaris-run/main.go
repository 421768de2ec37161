// Command damaris-run executes the real middleware pipeline: the CM1-like
// mini-app on an in-process MPI world with one dedicated I/O core per node,
// writing DSF files through Damaris — or through the file-per-process /
// collective baselines for comparison.
//
// Usage:
//
//	damaris-run -ranks 12 -cores-per-node 4 -steps 20 -output-every 5 -out /tmp/out
//	damaris-run -backend fpp ...
//	damaris-run -backend collective ...
//	damaris-run -persist-backend obj:///tmp/objects -store-part-size 1048576
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
	"damaris/internal/transform"
)

// options are damaris-run's command-line knobs, one field per flag.
type options struct {
	ranks, coresPerNode, steps, outputEvery int
	outDir, backend                         string
	compress                                bool
	bufMB                                   int64
	allocator                               string

	persistWork, persistQueue, encodeWork, gzipLevel int
	persistBackend                                   string
	storePartSize                                    int64
	storePutWorkers, storePutTimeout                 int
	spillDir                                         string
	spillAfter                                       int
	aggregate                                        string
	aggregateRing                                    int

	controlMode                                                            string
	controlInterval, controlMaxWorkers, controlMaxWindow, controlMaxEncode int
	shards                                                                 int
	shardsMode                                                             string
	shardsBudget                                                           int

	metricsAddr, traceOut string
	traceRing             int
}

// bindFlags registers every flag on fs, bound to the returned options.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.ranks, "ranks", 12, "total ranks (cores) in the world")
	fs.IntVar(&o.coresPerNode, "cores-per-node", 4, "SMP node width")
	fs.IntVar(&o.steps, "steps", 20, "simulation timesteps")
	fs.IntVar(&o.outputEvery, "output-every", 5, "write phase every K steps")
	fs.StringVar(&o.outDir, "out", "damaris-out", "output directory")
	fs.StringVar(&o.backend, "backend", "damaris", "damaris | fpp | collective")
	fs.BoolVar(&o.compress, "compress", false, "gzip chunks (damaris and fpp)")
	fs.Int64Var(&o.bufMB, "buffer-mb", 64, "per-node shared buffer (MiB)")
	fs.StringVar(&o.allocator, "allocator", "mutex", "shared-memory allocator: mutex | lockfree")
	fs.IntVar(&o.persistWork, "persist-workers", config.DefaultPersistWorkers,
		"write-behind persist workers per dedicated core (0 = synchronous baseline)")
	fs.IntVar(&o.persistQueue, "persist-queue", config.DefaultPersistQueueDepth,
		"in-flight iteration queue depth (also the client flow window when async)")
	fs.IntVar(&o.encodeWork, "encode-workers", config.DefaultEncodeWorkers,
		"parallel chunk-encode workers per dedicated core (0 = serial encoding)")
	fs.IntVar(&o.gzipLevel, "gzip-level", config.DefaultPersistGzipLevel,
		"gzip level for compressed chunks, full compress/gzip range -2 (HuffmanOnly) to 9")
	fs.StringVar(&o.persistBackend, "persist-backend", "",
		"storage backend URL for the damaris persistency layer (file://dir | obj://dir; empty = DSF files in -out)")
	fs.Int64Var(&o.storePartSize, "store-part-size", 0,
		"object-store multipart split in bytes (0 = backend default)")
	fs.IntVar(&o.storePutTimeout, "store-put-timeout", 0,
		"per-part put deadline in milliseconds; a hung target converts to a retryable timeout (0 = no deadline)")
	fs.StringVar(&o.spillDir, "spill-dir", "",
		"local scratch directory for degraded-mode spill; empty disables (see docs/resilience.md)")
	fs.IntVar(&o.spillAfter, "spill-after", config.DefaultSpillAfter,
		"consecutive backpressured iterations before the event loop spills to scratch")
	fs.IntVar(&o.storePutWorkers, "store-put-workers", 0,
		"bounded parallel part-upload pool size (0 = backend default)")
	fs.StringVar(&o.aggregate, "aggregate", "off",
		"aggregation tier in front of the storage backend: off (one DSF stream per dedicated core) | core (one object per node per epoch) | node (Damaris 2: one object per epoch via a dedicated aggregator node)")
	fs.IntVar(&o.aggregateRing, "aggregate-ring", 0,
		"fan-in ring depth between sibling dedicated cores and the aggregation leader (0 = default)")
	fs.StringVar(&o.controlMode, "control", "static",
		"adaptive control plane: static (the sizing knobs above are final) | auto (feedback-tune persist workers, flow window and encode pool from observed latency; the knobs become the starting point)")
	fs.IntVar(&o.controlInterval, "control-interval-ms", 0,
		"minimum milliseconds between controller decisions (0 = default)")
	fs.IntVar(&o.controlMaxWorkers, "control-max-workers", 0,
		"auto-control upper bound on persist workers (0 = default)")
	fs.IntVar(&o.controlMaxWindow, "control-max-window", 0,
		"auto-control upper bound on the flow-window depth (0 = default)")
	fs.IntVar(&o.controlMaxEncode, "control-max-encode", 0,
		"auto-control upper bound on encode workers (0 = default)")
	fs.IntVar(&o.shards, "shards", 0,
		"event-loop shards per dedicated core (0 or 1 = the classic single loop)")
	fs.StringVar(&o.shardsMode, "shards-mode", "",
		"shard sizing: static (the -shards count is final; default) | auto (derive the count from the node spare-core budget, capped by -shards when set)")
	fs.IntVar(&o.shardsBudget, "shards-budget", 0,
		"node spare-core budget shared by shard loops, persist writers and encode workers; setting it engages budget enforcement (0 = GOMAXPROCS-clients, engaged only in auto mode)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve live telemetry over HTTP on this address (/metrics Prometheus text, /metrics.json, /trace, /jitter, /debug/pprof); empty disables")
	fs.StringVar(&o.traceOut, "trace-out", "",
		"write the retained lifecycle spans as JSONL to this file at exit (read back with dsf-inspect -trace)")
	fs.IntVar(&o.traceRing, "trace-ring", 0,
		"lifecycle-trace ring capacity in spans, rounded up to a power of two (0 = default)")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*o, obs.NewPlane(o.traceRing), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "damaris-run:", err)
		os.Exit(1)
	}
}

// run executes one world and writes its report to out. Every dedicated core
// records spans and registers its collectors on plane, so a live scrape and
// the end-of-run report read one registry.
func run(o options, plane *obs.Plane, out io.Writer) error {
	if o.ranks%o.coresPerNode != 0 {
		return fmt.Errorf("ranks %d not a multiple of cores-per-node %d", o.ranks, o.coresPerNode)
	}
	nodes := o.ranks / o.coresPerNode

	// /fleet/metrics shows each dedicated core's slice of the same
	// registry as its own source, the way a multi-process fleet exposes
	// one registry per rank; a fleet scrape gathers the registry once.
	fleet := obs.NewFederator()
	fleet.AddSplitRegistry(serverLabel, plane.Registry())
	plane.SetFederator(fleet)
	if o.metricsAddr != "" {
		ln, lerr := net.Listen("tcp", o.metricsAddr)
		if lerr != nil {
			return fmt.Errorf("metrics listener: %w", lerr)
		}
		srv := &http.Server{Handler: plane.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: http://%s/metrics (also /metrics.json /fleet/metrics /epochs /trace /jitter /readyz /debug/pprof)\n", ln.Addr())
	}
	computeRanks := o.ranks
	if o.backend == "damaris" {
		computeRanks = o.ranks - nodes // one dedicated core per node
	}
	params := cm1.DefaultParams(computeRanks, 1)

	codec := dsf.None
	if o.compress {
		codec = dsf.ShuffleGzip
	}

	var mu sync.Mutex
	var phaseTimes []float64

	var cfg *config.Config
	var sharedStore store.Backend
	if o.backend == "damaris" {
		var err error
		cfg, err = config.ParseString(cm1.ConfigXML(params, o.bufMB<<20, o.allocator, 1))
		if err != nil {
			return err
		}
		if o.persistWork < 0 || o.persistQueue < 1 || o.encodeWork < 0 {
			return fmt.Errorf("invalid pipeline knobs: workers=%d queue=%d encode=%d",
				o.persistWork, o.persistQueue, o.encodeWork)
		}
		if !transform.ValidGzipLevel(o.gzipLevel) {
			return fmt.Errorf("invalid gzip level %d (want -2..9)", o.gzipLevel)
		}
		cfg.PersistWorkers = o.persistWork
		cfg.PersistQueueDepth = o.persistQueue
		cfg.EncodeWorkers = o.encodeWork
		cfg.PersistGzipLevel = o.gzipLevel
		cfg.PersistBackend = o.persistBackend
		cfg.StorePartSize = o.storePartSize
		cfg.StorePutWorkers = o.storePutWorkers
		cfg.StorePutTimeoutMS = o.storePutTimeout
		cfg.SpillDir = o.spillDir
		cfg.SpillAfter = o.spillAfter
		cfg.AggregateMode = o.aggregate
		cfg.AggregateRingDepth = o.aggregateRing
		cfg.ControlMode = o.controlMode
		cfg.ControlIntervalMS = o.controlInterval
		cfg.ControlMaxWriters = o.controlMaxWorkers
		cfg.ControlMaxWindow = o.controlMaxWindow
		cfg.ControlMaxEncode = o.controlMaxEncode
		cfg.ShardCount = o.shards
		cfg.ShardMode = o.shardsMode
		cfg.ShardBudget = o.shardsBudget
		if err := cfg.Validate(); err != nil {
			return err
		}
		if o.persistBackend != "" {
			// One backend instance shared by every dedicated core, so the
			// run's store metrics (and the object store's dedupe) span the
			// whole node set — mirroring a real shared storage service. The
			// servers did not open it, so it registers its figures here,
			// once.
			sharedStore, err = store.OpenWith(o.persistBackend, store.Options{
				PartSize:   o.storePartSize,
				PutWorkers: o.storePutWorkers,
				PutTimeout: time.Duration(o.storePutTimeout) * time.Millisecond,
			})
			if err != nil {
				return err
			}
			defer sharedStore.Close()
			plane.Registry().Collect(func(e *obs.Emitter) { sharedStore.Stats().Emit(e) })
		}
	}

	err := mpi.Run(o.ranks, o.coresPerNode, func(comm *mpi.Comm) {
		var b cm1.Backend
		var computeComm *mpi.Comm

		switch o.backend {
		case "damaris":
			pers := &core.DSFPersister{Dir: o.outDir, Backend: sharedStore, Codec: codec,
				GzipLevel: o.gzipLevel, Node: comm.Node(), ServerID: comm.Rank()}
			pers.SetTracer(plane.Tracer())
			dep, err := core.Deploy(comm, cfg, nil, core.Options{OutputDir: o.outDir, Persister: pers, Obs: plane})
			if err != nil {
				panic(err)
			}
			if !dep.IsClient() {
				// This rank's persister is private to this server, so the
				// server rank owns the encode pool lifecycle (the server
				// only auto-wires pools and tracers for persisters it
				// creates itself).
				pool := dsf.NewEncodePool(o.encodeWork)
				pool.SetTracer(plane.Tracer(), comm.Rank())
				pers.SetEncodePool(pool)
				defer pool.Close()
				if err := dep.Server.Run(); err != nil {
					panic(err)
				}
				return
			}
			computeComm = dep.ClientComm
			b = cm1.NewDamarisBackend(dep.Client)
		case "fpp":
			computeComm = comm
			b = cm1.NewFPPBackend(o.outDir, codec, comm.Rank())
		case "collective":
			computeComm = comm
			b = cm1.NewCollectiveBackend(o.outDir, comm)
		default:
			panic(fmt.Sprintf("unknown backend %q", o.backend))
		}

		sim, err := cm1.New(computeComm, params)
		if err != nil {
			panic(err)
		}
		rep, err := cm1.Run(sim, b, o.steps, o.outputEvery)
		if err != nil {
			panic(err)
		}
		if err := b.Close(); err != nil {
			panic(err)
		}
		mu.Lock()
		phaseTimes = append(phaseTimes, rep.WriteSeconds...)
		mu.Unlock()
	})
	if err != nil {
		return err
	}

	ps := stats.Summarize(phaseTimes)
	fmt.Fprintf(out, "backend=%s ranks=%d nodes=%d steps=%d\n", o.backend, o.ranks, nodes, o.steps)
	fmt.Fprintf(out, "client write phases: n=%d mean=%.2gs min=%.2gs max=%.2gs (spread %.2gs)\n",
		ps.N, ps.Mean, ps.Min, ps.Max, ps.Spread())
	if o.backend == "damaris" {
		// The world has quiesced: one gather is the final scrape.
		if err := obs.WriteSamples(out, coreReport(plane.Registry().Gather())); err != nil {
			return err
		}
		writeJitter(out, plane)
	}
	if o.traceOut != "" {
		if err := writeTrace(out, plane, o.traceOut); err != nil {
			return err
		}
	}
	if sharedStore != nil {
		fmt.Fprintf(out, "output in backend %s\n", o.persistBackend)
	} else {
		fmt.Fprintf(out, "output in %s\n", o.outDir)
	}
	return nil
}

// serverLabel is the label every dedicated core's collector puts on its
// series (core.Server.RegisterObs).
const serverLabel = "server"

// coreReport is the dedicated-core block: the gathered samples rolled up
// across dedicated cores (obs.Rollup on the server label), with zero values
// and histogram buckets left out.
func coreReport(samples []obs.Sample) []obs.Sample {
	var out []obs.Sample
	for _, s := range obs.Rollup(samples, serverLabel) {
		if s.Value != 0 && !strings.HasSuffix(s.Name, "_bucket") {
			out = append(out, s)
		}
	}
	return out
}

// writeJitter prints the per-stage lifecycle jitter over the retained
// spans. It goes through the same Plane.JitterReport the HTTP /jitter route
// serves, so a live scrape and this report always agree.
func writeJitter(out io.Writer, plane *obs.Plane) {
	for _, j := range plane.JitterReport() {
		window := ""
		if j.Truncated {
			// The ring overwrote older spans: these percentiles describe
			// only the most recent n of the stage's total spans.
			window = fmt.Sprintf(" (ring kept last %d of %d spans)", j.Count, j.Total)
		}
		fmt.Fprintf(out, "jitter[%s]: n=%d mean=%.2gs p50=%.2gs p95=%.2gs p99=%.2gs spread=%.2gs%s\n",
			j.Stage, j.Count, j.Mean, j.P50, j.P95, j.P99, j.Spread, window)
	}
}

// writeTrace dumps the retained lifecycle spans as JSONL for offline
// analysis with dsf-inspect -trace.
func writeTrace(out io.Writer, plane *obs.Plane, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := plane.Tracer().WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	tr := plane.Tracer()
	fmt.Fprintf(out, "trace: %d spans retained in %s (%d recorded, %d overwritten by the ring)\n",
		tr.Total()-tr.Dropped(), path, tr.Total(), tr.Dropped())
	return nil
}
