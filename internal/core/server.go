package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/control"
	"damaris/internal/dsf"
	"damaris/internal/event"
	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// Scheduler delays a server's persistence to its assigned slot, the paper's
// communication-free data-transfer scheduling (§IV-D): "each dedicated core
// computes an estimation of the computation time of an iteration […] divided
// into as many slots as dedicated cores. Each dedicated core then waits for
// its slot before writing."
type Scheduler interface {
	// WaitTurn blocks until this server's slot for the iteration opens.
	WaitTurn(iteration int64)
}

// BatchScheduler is an optional Scheduler extension the write-behind
// pipeline probes for: a scheduler that understands batch-sized slots keeps
// multi-iteration batching enabled (one wait per batch, covering the
// batch's combined slot span) instead of forcing one-slot-per-iteration
// writes. schedule.SlotScheduler implements it.
type BatchScheduler interface {
	Scheduler
	// WaitTurnBatch blocks until this server's slot for a batch covering
	// iterations [first,last] opens.
	WaitTurnBatch(first, last int64)
}

// Server is the dedicated-core side of Damaris: it pulls events from the
// shared queue, maintains the metadata catalog through the EPE, and hands
// each completed iteration to the write-behind persistence pipeline, so
// that I/O overlaps the clients' next compute phase and a slow persister
// never stalls event draining. With PersistWorkers=0 the pipeline has no
// writers and the event loop persists each iteration itself — the coupled
// baseline the paper's dedicated-core design eliminates, kept for
// comparison runs.
type Server struct {
	cfg       *config.Config
	eng       *event.Engine // shard 0's engine (they share the store and tally)
	queue     *event.Queue  // shard 0's queue (where Inject routes)
	shards    []*shardLoop  // the event-loop shards; len 1 = the classic single loop
	started   time.Time     // server construction instant (wall base for busy fractions)
	stoppedAt time.Time     // set when the shard loops exit; freezes the busy-fraction wall clock so post-run expositions are byte-stable
	seg       segmentCloser
	fc        *flow
	id        int // world rank of this dedicated core
	node      int
	group     int // dedicated-core index within the node
	persister Persister
	scheduler Scheduler
	pipe      *pipeline       // write-behind pipeline (zero writers in the synchronous baseline)
	scratch   *scratch        // degraded-mode spill file; nil when disabled
	encPool   *dsf.EncodePool // nil when encode_workers is 0
	ownStore  store.Backend   // backend this server opened (and must close)
	agg       *serverAgg      // aggregation-layer state; nil when disabled
	tuner     *control.Tuner  // nil under static control
	budget    int             // spare-core budget (0 = budgeting off)
	reserved  int             // budget cores reserved for shard loops
	clock     control.Clock   // decision clock
	tuneEvery time.Duration   // decision interval (heavy-sample rate limit)
	lastIter  time.Time       // previous iteration-completion instant (event loop only)
	lastHeavy time.Time       // previous encode/store/ring sampling instant (event loop only)

	// tracer records iteration-lifecycle spans (nil = tracing off);
	// iterFirst tracks each open iteration's first client event so the
	// StageWrite span covers the whole server-side write phase. Guarded by
	// mu — with several shard loops any of them may open an iteration.
	tracer    *obs.Tracer
	iterFirst map[int64]time.Time

	closeOnce sync.Once

	mu           sync.Mutex
	shardWS      control.WorkerSet // per-shard-loop busy bookkeeping (one slot per shard)
	writeDurs    []float64         // seconds spent persisting, per iteration
	spareDur     float64           // seconds spent idle waiting for events
	busyDur      float64           // seconds handling events (incl. persisting only in the sync baseline)
	bytesWritten int64
	iterations   []int64
	handleErrs   []error
	flushErr     error // first persistence error, surfaced by Run/Close
	running      bool
}

// segmentCloser is the part of shm.Segment the server needs at shutdown.
type segmentCloser interface {
	Close()
	Size() int64
	FreeBytes() int64
}

// newServer builds a dedicated-core server over one engine+queue pair per
// event-loop shard (len 1 = the classic single loop; all engines must share
// one metadata store and one event.Tally). windowCap, when positive, bounds
// the control plane's flow-window range to what the shared buffer can hold
// (Deploy derives it from the segment size and the estimated write-phase
// volume); 0 means no buffer-derived cap. clients is the number of compute
// cores this server serves — the spare-core budget's other half.
func newServer(cfg *config.Config, engines []*event.Engine, queues []*event.Queue, seg segmentCloser,
	fc *flow, worldRank, node, group, clients int, opts Options, sagg *serverAgg, windowCap int) (*Server, error) {
	if len(engines) == 0 || len(engines) != len(queues) {
		return nil, fmt.Errorf("core: server %d: %d engines for %d queues", worldRank, len(engines), len(queues))
	}
	s := &Server{
		cfg:       cfg,
		eng:       engines[0],
		queue:     queues[0],
		started:   time.Now(),
		seg:       seg,
		fc:        fc,
		id:        worldRank,
		node:      node,
		group:     group,
		persister: opts.Persister,
		scheduler: opts.Scheduler,
		tracer:    opts.Obs.Tracer(),
		iterFirst: make(map[int64]time.Time),
	}
	for i := range engines {
		s.shards = append(s.shards, &shardLoop{idx: i, queue: queues[i], eng: engines[i]})
	}
	// One WorkerSet slot per shard loop: the same busy bookkeeping the
	// writer and encode pools use, so per-shard utilization is computed the
	// same way (Σbusy/(peak×wall)).
	s.shardWS.Resize(len(engines), func(int, chan struct{}) {})
	// Spare-core budget: engaged only when sharding auto mode (or an
	// explicit budget) opts in; the shard loops' reservation comes off the
	// top and the tuner divides the rest between writers and encoders.
	budget, reserved := 0, 0
	if shardBudgeted(cfg) {
		budget = nodeSpareBudget(cfg, clients)
		reserved = len(engines)
	}
	s.budget, s.reserved = budget, reserved
	if sagg != nil {
		// Aggregation layer on: this server persists through its member
		// handle — Persist returns only once the node's (or node group's)
		// merged object is durable, so chunk release and the flow window
		// track merged durability. The leader's server adopts the epoch
		// writer's resources (encode pool, backend) it created.
		s.agg = sagg
		s.persister = newAggPersister(sagg)
		s.encPool = sagg.pool
		s.ownStore = sagg.ownStore
	} else if s.persister == nil {
		// The encode pool is shared by every persist writer of this
		// dedicated core: chunk compression fans out across encode_workers
		// goroutines while each writer streams its file in deterministic
		// order. The server only installs (and owns) a pool on the default
		// persister it creates here — an externally provided persister may
		// be shared across servers, where per-server pool installation
		// would race and the first server to close would tear the pool out
		// from under the others; such persisters wire their own pool (see
		// DSFPersister.SetEncodePool).
		p := &DSFPersister{Dir: opts.OutputDir, Node: node, ServerID: worldRank,
			GzipLevel: cfg.PersistGzipLevel}
		if cfg.PersistBackend != "" {
			// The config names a storage backend; this server owns the
			// instance it opens (siblings on other dedicated cores open
			// their own over the same target, which is how object-store
			// deployments work — dedupe composes across instances).
			b, err := store.OpenWith(cfg.PersistBackend, store.Options{
				PartSize:   cfg.StorePartSize,
				PutWorkers: cfg.StorePutWorkers,
				PutTimeout: time.Duration(cfg.StorePutTimeoutMS) * time.Millisecond,
			})
			if err != nil {
				return nil, fmt.Errorf("core: server %d: persist backend: %w", worldRank, err)
			}
			p.Backend = b
			s.ownStore = b
		}
		if cfg.EncodeWorkers > 0 {
			s.encPool = dsf.NewEncodePool(cfg.EncodeWorkers)
			p.SetEncodePool(s.encPool)
		}
		p.SetTracer(s.tracer)
		s.persister = p
	}
	// The pools and persisters the server owns trace under its rank; shared
	// external ones wire their own tracer (see DSFPersister.SetTracer), the
	// same ownership rule the encode pool follows.
	s.encPool.SetTracer(s.tracer, worldRank)
	if cfg.ControlAuto() {
		// Adaptive control plane: the configured knobs become the starting
		// point of a feedback-tuned range. Config.Validate has already
		// rejected auto mode without an asynchronous pipeline. The wall
		// clock is the only sensible clock here — every latency in the
		// sample is wall-time; deterministic convergence is tested at the
		// Tuner level (internal/control, iostrat.SimulateControl), where
		// the whole sample is synthetic.
		s.clock = control.RealClock()
		// Unset bounds default to the package defaults, widened to cover the
		// configured starting sizes (an explicit max_* attribute instead
		// clamps them — the user asked for that bound).
		maxWriters := cfg.ControlMaxWriters
		if maxWriters == 0 {
			maxWriters = control.DefaultMaxWriters
			if cfg.PersistWorkers > maxWriters {
				maxWriters = cfg.PersistWorkers
			}
		}
		maxWindow := cfg.ControlMaxWindow
		if maxWindow == 0 {
			maxWindow = control.DefaultMaxWindow
			if cfg.PersistQueueDepth > maxWindow {
				maxWindow = cfg.PersistQueueDepth
			}
		}
		// The encode dimension covers only the pool this server owns (the
		// one it created, or the aggregation leader's adopted pool): an
		// externally attached pool may be shared across servers, where
		// several controllers issuing conflicting Resize targets would
		// thrash it — the same cross-server interference reason the server
		// never installs pools on external persisters. Servers without an
		// owned pool run with the encode dimension off (Encode 0).
		ownEncode := s.encPool.Workers()
		maxEncode := cfg.ControlMaxEncode
		if maxEncode == 0 {
			maxEncode = control.DefaultMaxEncode
			if ownEncode > maxEncode {
				maxEncode = ownEncode
			}
		}
		if windowCap > 0 && maxWindow > windowCap {
			// The buffer-derived bound wins: opening the window past what the
			// shared segment can pin would deadlock clients, not hide latency.
			maxWindow = windowCap
		}
		t, err := control.New(control.Config{
			Mode: "auto",
			Initial: control.Sizes{
				Writers: cfg.PersistWorkers,
				Window:  cfg.PersistQueueDepth,
				Encode:  ownEncode,
			},
			Limits: control.Limits{
				MaxWriters: maxWriters,
				MaxWindow:  maxWindow,
				MaxEncode:  maxEncode,
			},
			Interval: time.Duration(cfg.ControlIntervalMS) * time.Millisecond,
			Clock:    s.clock,
			Budget:   budget,
			Reserved: reserved,
		})
		if err != nil {
			return nil, fmt.Errorf("core: server %d: %w", worldRank, err)
		}
		s.tuner = t
		s.tuneEvery = time.Duration(cfg.ControlIntervalMS) * time.Millisecond
		if s.tuneEvery == 0 {
			s.tuneEvery = control.DefaultInterval
		}
		// The clamped initial sizes are the effective starting configuration.
		if fc != nil {
			fc.setWindow(int64(t.Sizes().Window))
		}
	}
	workers, depth := cfg.PersistWorkers, cfg.PersistQueueDepth
	if s.tuner != nil {
		workers = s.tuner.Sizes().Writers
		// The queue must be able to carry the widest window the tuner may
		// open; the effective backpressure point is the flow window, which
		// the tuner moves inside [1, MaxWindow]. With a scratch file
		// configured the configured depth stays authoritative instead:
		// sustained overflow spills to local disk (bounded memory), and
		// the tuner's degraded mode vetoes window growth while the
		// backlog replays.
		if lim := s.tuner.Limits(); cfg.SpillDir == "" && lim.MaxWindow > depth {
			depth = lim.MaxWindow
		}
	}
	s.pipe = newPipeline(s.persister, s.scheduler, workers, depth, s.iterationDurable)
	s.pipe.attachTracer(s.tracer, worldRank)
	if cfg.SpillDir != "" {
		// Degraded-mode scratch file, one per dedicated core. Opening it
		// also performs crash recovery: frames a previous run left behind
		// are handed straight to the drainer, which replays them through
		// this server's normal persist path. Config.Validate has already
		// rejected spill with aggregation (spilled chunks are released
		// early, which the shared merge ring cannot tolerate) and spill
		// without an asynchronous pipeline.
		path := fmt.Sprintf("%s/node%04d_srv%04d.spill", cfg.SpillDir, node, worldRank)
		sc, err := openScratch(path, cfg.SpillAfter, s.persister)
		if err != nil {
			return nil, fmt.Errorf("core: server %d: %w", worldRank, err)
		}
		s.scratch = sc
		s.pipe.attachScratch(sc)
	}
	for i, eng := range engines {
		shard := i
		eng.OnIterationEnd = func(it int64) error {
			s.flushIterationFrom(shard, it)
			return nil
		}
		// The last ClientExit (counted node-wide on the shared tally) closes
		// every shard queue so all loops drain and exit.
		eng.OnAllExited = func() error {
			for _, q := range queues {
				q.Close()
			}
			return nil
		}
	}
	if reg := opts.Obs.Registry(); reg != nil {
		s.RegisterObs(reg)
	}
	// Readiness, distinct from liveness: a server that is replaying a
	// spill backlog or whose tuner is in degraded mode is alive but should
	// not be considered ready (e.g. for admitting more load).
	if sc := s.scratch; sc != nil {
		opts.Obs.AddReadiness(fmt.Sprintf("server-%d-spill", worldRank), func() error {
			if pending := sc.stats().Pending; pending > 0 {
				return fmt.Errorf("spill backlog draining: %d iterations pending", pending)
			}
			return nil
		})
	}
	if tn := s.tuner; tn != nil {
		opts.Obs.AddReadiness(fmt.Sprintf("server-%d-control", worldRank), func() error {
			if tn.Stats().Degraded {
				return fmt.Errorf("control plane degraded")
			}
			return nil
		})
	}
	return s, nil
}

// RegisterObs registers this server's live metric collectors on a registry.
// Live scrapes read the exact snapshot functions the end-of-run report
// prints — the two can never disagree. newServer calls it for the shared
// plane; damaris-run calls it again with per-rank registries so the
// federator can expose a rank-by-rank fleet view.
func (s *Server) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(func(e *obs.Emitter) {
		s.PipelineStats().Emit(e, "server", fmt.Sprint(s.id))
		s.emitServer(e, "server", fmt.Sprint(s.id))
	})
}

// ID returns the server's world rank.
func (s *Server) ID() int { return s.id }

// Node returns the SMP node the server runs on.
func (s *Server) Node() int { return s.node }

// Engine exposes the EPE (for tools that inject events, e.g. external
// steering per §III-A "events sent either by the simulation or by external
// tools").
func (s *Server) Engine() *event.Engine { return s.eng }

// Inject queues an event as an external tool would (onto shard 0's queue).
func (s *Server) Inject(ev event.Event) { s.queue.Push(ev) }

// ShardCount returns the number of event-loop shards this server runs
// (1 = the classic single loop).
func (s *Server) ShardCount() int { return len(s.shards) }

// SpareBudget reports the node spare-core budget the control plane enforces
// and the cores of it reserved for shard loops. Both are 0 when budgeting is
// off (neither shards auto mode nor an explicit budget engaged it).
func (s *Server) SpareBudget() (budget, reserved int) { return s.budget, s.reserved }

// Run executes the dedicated-core loop(s) until every client has finalized
// and all shard queues have drained. With one shard it runs the loop inline
// (the classic behavior); with several it runs one goroutine per shard and
// waits for all of them. It returns the first persistence error, if any;
// per-event handling errors (unknown variables, failing actions) are
// collected and available through HandleErrors, matching a long-running
// service that logs and continues.
func (s *Server) Run() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("core: server already running")
	}
	s.running = true
	s.mu.Unlock()

	if len(s.shards) == 1 {
		s.runShard(s.shards[0])
	} else {
		var wg sync.WaitGroup
		for _, sl := range s.shards {
			wg.Add(1)
			go func(sl *shardLoop) {
				defer wg.Done()
				s.runShard(sl)
			}(sl)
		}
		wg.Wait()
	}
	s.mu.Lock()
	s.stoppedAt = time.Now()
	s.mu.Unlock()
	// Flush anything left behind (clients that exited without ending their
	// last iteration); -1 marks the flush as not shard-attributed.
	leftover := s.eng.Store().Iterations()
	sort.Slice(leftover, func(i, j int) bool { return leftover[i] < leftover[j] })
	for _, it := range leftover {
		s.flushIterationFrom(-1, it)
	}
	return s.Close()
}

// Close drains the persistence pipeline (every submitted iteration becomes
// durable or definitively fails), closes the shared segment, releases flow
// waiters, and returns the first persistence error observed over the
// server's lifetime. Run calls it on the way out; calling it again is a
// cheap no-op returning the same error. Close must not be called while
// clients are still producing events.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.pipe.close()
		// The scratch drainer gets one final attempt at any spill backlog; a
		// frame it cannot replay stays in the scratch file (recovered on the
		// next start) and is surfaced as the close error.
		if s.scratch != nil {
			if err := s.scratch.close(); err != nil {
				s.mu.Lock()
				if s.flushErr == nil {
					s.flushErr = fmt.Errorf("core: server %d: %w", s.id, err)
				}
				s.mu.Unlock()
			}
		}
		// Aggregation teardown: every contribution of this member is acked
		// (the pipeline drained), so declare it done; the leader then waits
		// for its siblings and drains the merge (and, on the aggregator
		// host, the cross-node receiver and the global tier).
		if s.agg != nil {
			s.agg.agg.MemberDone(s.agg.memberID)
			if err := s.agg.close(); err != nil {
				s.mu.Lock()
				if s.flushErr == nil {
					s.flushErr = fmt.Errorf("core: server %d: close aggregator: %w", s.id, err)
				}
				s.mu.Unlock()
			}
		}
		// Encode workers stop only after every persist writer drained: a
		// writer mid-WriteChunks still needs them.
		s.encPool.Close()
		// Likewise the storage backend: every committed object is durable
		// by now, so tearing it down cannot lose data.
		if s.ownStore != nil {
			if err := s.ownStore.Close(); err != nil {
				s.mu.Lock()
				if s.flushErr == nil {
					s.flushErr = fmt.Errorf("core: server %d: close backend: %w", s.id, err)
				}
				s.mu.Unlock()
			}
		}
		s.seg.Close()
		if s.fc != nil {
			s.fc.close()
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushErr
}

// flushIterationFrom hands one completed iteration to the persistence path.
// It is the engine's OnIterationEnd hook, so it runs on the dedicated core —
// the simulation never waits for it; with several shard loops the engine's
// tally has already serialized flushes into ascending-iteration order, so at
// most one flush runs at a time (the pipeline's single-submitter contract).
// `shard` is the loop that counted the iteration's last EndIteration (-1 =
// not shard-attributed). With writers the hand-off is a bounded-queue send
// (blocking only when the pipeline is `persist_queue_depth` iterations
// behind — the backpressure point); the event loop then resumes draining
// client events while writers persist. With zero writers (the synchronous
// baseline) the submit persists on the event loop before returning.
// Entries leave the metadata catalog here but their shared-memory chunks
// stay pinned until the iteration is durable. Persist errors reach Run and
// HandleErrors through iterationDurable.
func (s *Server) flushIterationFrom(shard int, it int64) {
	entries := s.eng.Store().TakeIteration(it)
	if s.tracer != nil {
		// StageWrite: first client write notification → iteration complete,
		// the server-side view of the write phase the paper measures,
		// attributed to the shard that completed the iteration.
		s.mu.Lock()
		t0, ok := s.iterFirst[it]
		if ok {
			delete(s.iterFirst, it)
		}
		s.mu.Unlock()
		if ok {
			var bytes int64
			for _, e := range entries {
				bytes += e.Size()
			}
			s.tracer.RecordShard(obs.StageWrite, s.id, shard, it, t0, time.Since(t0), bytes, false)
		}
	}
	// Aggregation on: contribute to the node's merge here, from the event
	// loop, so this member's epochs enter the fan-in ring in ascending order
	// (the property the leader's in-order emission — and the cross-node
	// lockstep in "node" mode — is built on). The pipeline writer then only
	// waits for the merged object's durability ack before releasing chunks.
	if ap, ok := s.persister.(*aggPersister); ok {
		ap.submit(it, entries)
	}
	s.pipe.submit(it, entries)
	// Control plane: observe this iteration boundary and, at most once per
	// decision interval, re-size the writer pool, flow window and encode
	// pool. Resizing happens here — between iterations, on the event loop —
	// never mid-write.
	s.tune()
}

// tune feeds one telemetry sample to the control plane and applies any
// decision it returns. Called from the event loop at iteration boundaries
// only; a nil tuner (static mode) makes it a no-op.
func (s *Server) tune() {
	if s.tuner == nil {
		return
	}
	now := s.clock.Now()
	var gap float64
	if !s.lastIter.IsZero() {
		gap = now.Sub(s.lastIter).Seconds()
	}
	s.lastIter = now

	recentLat, depth := s.pipe.tuneSample()
	sample := control.Sample{
		FlushLatency: recentLat,
		Interval:     gap,
		QueueDepth:   depth,
		RingFill:     -1, // no ring sample this iteration
		SpillActive:  s.pipe.spillActive(),
	}
	// The encode/store/ring figures require full stats snapshots (summary
	// construction under their mutexes) — too heavy for every iteration of
	// the event loop. They change slowly, so sample them at the decision
	// cadence; in between, zero fields mean "no signal" and leave the
	// tuner's smoothed state untouched.
	if s.lastHeavy.IsZero() || now.Sub(s.lastHeavy) >= s.tuneEvery {
		s.lastHeavy = now
		if s.encPool != nil {
			sample.EncodeLatency = s.encPool.Stats().Latency.Mean
		}
		if ss, ok := s.persister.(StoreStatser); ok {
			sample.StoreLatency = ss.StoreStats().PutLatency.Mean
		}
		if s.agg != nil {
			sample.RingFill = s.agg.agg.RingOccupancy()
		}
	}

	sizes, changed := s.tuner.Observe(sample)
	if !changed {
		return
	}
	s.pipe.resize(sizes.Writers)
	if s.fc != nil {
		s.fc.setWindow(int64(sizes.Window))
	}
	if sizes.Encode > 0 {
		// Only the pool this server owns is ever resized (see the Encode
		// dimension note in newServer); sizes.Encode stays 0 otherwise.
		s.encPool.Resize(sizes.Encode)
	}
}

// iterationDurable records one iteration's durability and advances the
// client flow-control window. The pipeline invokes it in submission (ack)
// order once the iteration and all earlier ones are durable.
func (s *Server) iterationDurable(it int64, persistDur, latency float64, bytes int64, err error) {
	s.mu.Lock()
	s.writeDurs = append(s.writeDurs, persistDur)
	s.iterations = append(s.iterations, it)
	if err == nil {
		s.bytesWritten += bytes
	} else {
		// Persist errors never travel through Engine.Handle, so record them
		// here for HandleErrors/Run.
		werr := fmt.Errorf("core: server %d: persist iteration %d: %w", s.id, it, err)
		s.handleErrs = append(s.handleErrs, werr)
		if s.flushErr == nil {
			s.flushErr = werr
		}
	}
	s.mu.Unlock()
	if s.fc != nil {
		// Unblock clients waiting at the flow-control window; on persist
		// error the data is gone either way, so liveness wins.
		s.fc.setFlushed(it)
	}
}

// WriteTimes returns the seconds each iteration flush took on the dedicated
// core (the paper's Figure 5 "Write time").
func (s *Server) WriteTimes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.writeDurs...)
}

// SpareSeconds returns the total time the dedicated core spent idle — the
// paper's "spare time […] dedicated cores are not performing any task",
// which §IV-C2 reports as 75%–99% of their time.
func (s *Server) SpareSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spareDur
}

// BusySeconds returns the total time spent handling events and persisting.
func (s *Server) BusySeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyDur
}

// BytesWritten returns the total payload bytes successfully persisted.
func (s *Server) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

// Iterations returns the iterations flushed, in completion order.
func (s *Server) Iterations() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.iterations...)
}

// iterationCount is len(Iterations()) without the copy — what a scrape
// reads, so its cost does not grow with the run.
func (s *Server) iterationCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.iterations)
}

// HandleErrors returns the per-event errors collected during Run.
func (s *Server) HandleErrors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.handleErrs...)
}

// WriteStats summarizes the dedicated core's per-iteration write times.
func (s *Server) WriteStats() stats.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stats.Summarize(s.writeDurs)
}

// PipelineStats snapshots the write-behind pipeline's per-stage metrics
// (queue depth, flush latency, batch size, writer utilization, encode-stage
// latency and pool utilization). The synchronous baseline reports Workers=0
// and Window=1.
func (s *Server) PipelineStats() PipelineStats {
	ps := s.pipe.snapshot(s.cfg.PersistQueueDepth)
	ps.Window = s.window()
	ps.Shards = s.shardStats()
	ps.Control = s.tuner.Stats()
	ps.Encode = s.encodePool().Stats()
	// Storage-backend metrics, when the persister exposes them (the DSF
	// persister always does once it has written).
	if ss, ok := s.persister.(StoreStatser); ok {
		ps.Store = ss.StoreStats()
	}
	// Aggregation metrics: the node leader reports its tier (and the
	// aggregator host the global one), siblings stay zero so per-run sums
	// count every node once.
	if s.agg != nil && s.agg.leader {
		ps.Aggregate = s.agg.agg.Stats()
		if s.agg.global != nil {
			ps.AggregateGlobal = s.agg.global.Stats()
		}
		if s.agg.fwd != nil {
			ps.AggregateForwarded = s.agg.fwd.Forwarded()
		}
	}
	return ps
}

// EffectiveSizes reports the live (possibly auto-tuned) concurrency
// configuration: persist writers (0 = synchronous baseline), client
// flow-window depth and encode workers. Under static control these are
// exactly the configured knobs; under auto control they are wherever the
// tuner currently sits — what damaris-run's report lines print.
func (s *Server) EffectiveSizes() (writers, window, encode int) {
	return s.pipe.workers(), s.window(), s.encodePool().Workers()
}

// window is the effective client flow-window depth: the flow controller's
// live size (1 in the synchronous baseline, the tuner's choice under auto
// control), or the configured depth for a server without one.
func (s *Server) window() int {
	if s.fc != nil {
		return int(s.fc.windowSize())
	}
	return s.cfg.PersistQueueDepth
}

// encodePool is whatever pool actually encodes for this server — the one it
// owns, or one carried by an external persister (never resized by the
// control plane, but its size is still the effective one). Nil pools yield
// zero stats and sizes.
func (s *Server) encodePool() *dsf.EncodePool {
	if s.encPool != nil {
		return s.encPool
	}
	if pp, ok := s.persister.(interface{ EncodePool() *dsf.EncodePool }); ok {
		return pp.EncodePool()
	}
	return nil
}

// Persister is the persistency layer invoked once per completed iteration
// with that iteration's catalogued entries (paper §III-C: "our
// implementation of Damaris interfaces with HDF5 by using a custom
// persistency layer embedded in a plugin").
type Persister interface {
	Persist(iteration int64, entries []*metadata.Entry) error
}
