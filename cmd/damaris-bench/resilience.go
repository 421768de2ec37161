package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// resilienceRun is one middleware run's degraded-mode telemetry in
// BENCH_resilience.json.
type resilienceRun struct {
	Scenario string `json:"scenario"`
	// Iterations is the per-client output-phase count; iteration seconds
	// summarize the client-visible write-phase durations across all clients.
	Iterations      int     `json:"iterations"`
	MaxIterSeconds  float64 `json:"max_iter_seconds"`
	MeanIterSeconds float64 `json:"mean_iter_seconds"`
	// Spill telemetry after the run fully drained.
	Spilled  int64 `json:"spilled"`
	Replayed int64 `json:"replayed"`
	Pending  int   `json:"pending"`
	Stranded int   `json:"stranded"`
	// DegradedDecisions counts controller decisions taken while the spill
	// backlog was live (window growth vetoed).
	DegradedDecisions int64 `json:"degraded_decisions"`
	// Store-side absorption of the injected faults.
	StoreRetries  int64 `json:"store_retries"`
	StoreBackoffs int64 `json:"store_backoffs"`
	// Window is the effective (post-tune) flow-window depth at the end of
	// the run; MaxInFlight the pipeline's high-water mark.
	Window      int `json:"window"`
	MaxInFlight int `json:"max_in_flight"`
}

// hedgeResult is the hung-primary part of BENCH_resilience.json: with the
// primary target hung forever on every write-plane op, hedged puts to the
// replica must keep the middleware's durability watermark advancing.
type hedgeResult struct {
	Completed      bool  `json:"completed"`
	Iterations     int64 `json:"iterations_durable"`
	Failures       int64 `json:"iteration_failures"`
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedge_wins"`
	PutTimeouts    int64 `json:"put_timeouts"`
	DurableObjects int   `json:"durable_objects"`
}

// resilienceReport is BENCH_resilience.json.
type resilienceReport struct {
	Healthy  resilienceRun `json:"healthy"`
	Brownout resilienceRun `json:"brownout"`
	// StallFactor is the worst brownout write phase over the healthy
	// baseline (floored — see stallBase); the gate bounds it.
	StallFactor float64 `json:"stall_factor"`
	StallBound  float64 `json:"stall_bound"`
	// BytesIdentical: after the spill backlog drained, the brownout run's
	// object store (blobs and manifests) is byte-identical to the healthy
	// run's — degraded mode loses and reorders nothing.
	BytesIdentical bool        `json:"bytes_identical"`
	StoredFiles    int         `json:"stored_files"`
	Hedge          hedgeResult `json:"hedge"`
}

// stallBase floors the healthy baseline so the stall factor is not inflated
// by a near-zero denominator on an idle machine.
const stallBase = 5e-3 // seconds

// resilienceSteps/outputEvery size the CM1 workload: one output phase per
// step keeps the pipeline under continuous pressure.
const (
	resilienceSteps  = 36
	resilienceRanks  = 4 // 1 node x 4 cores: 3 clients + 1 dedicated core
	hedgeBenchSteps  = 8
	hedgeBenchBudget = 2 * time.Minute
)

// runResilienceOnce executes one real middleware run (CM1 write pattern,
// write-behind pipeline with scratch spill, auto control) against an obj://
// backend wrapped in the given fault, and returns its telemetry plus the
// backend's stored bytes (blobs/ and manifests/ trees). A non-nil plane
// attaches the telemetry registry and lifecycle tracer (the obs bench scrapes
// it live); nil runs untraced.
func runResilienceOnce(scenario string, fault store.Fault, plane *obs.Plane) (resilienceRun, map[string][]byte, error) {
	run := resilienceRun{Scenario: scenario, Iterations: resilienceSteps}
	backendDir, err := os.MkdirTemp("", "damaris-resilience-store")
	if err != nil {
		return run, nil, err
	}
	defer os.RemoveAll(backendDir)
	spillDir, err := os.MkdirTemp("", "damaris-resilience-spill")
	if err != nil {
		return run, nil, err
	}
	defer os.RemoveAll(spillDir)

	backend, err := store.NewObjStore(backendDir, store.Options{
		Fault:       fault,
		PutAttempts: 10, // the brownout's error rate must be absorbable
	})
	if err != nil {
		return run, nil, err
	}
	defer backend.Close()

	params := cm1.DefaultParams(resilienceRanks-1, 1)
	cfg, err := config.ParseString(cm1.ConfigXML(params, 32<<20, "mutex", 1))
	if err != nil {
		return run, nil, err
	}
	// A 1-deep queue with a wider window bound: under backend latency the
	// auto controller opens the flow window past the queue, the event loop
	// overflows, and the scratch spill engages — then degraded mode vetoes
	// further growth until the backlog replays.
	cfg.PersistWorkers = 1
	cfg.PersistQueueDepth = 1
	cfg.ControlMode = "auto"
	cfg.ControlIntervalMS = 1
	cfg.ControlMaxWriters = 1 // keep one writer so queue pressure is real
	cfg.ControlMaxWindow = 8
	cfg.SpillDir = spillDir
	cfg.SpillAfter = 2
	if err := cfg.Validate(); err != nil {
		return run, nil, err
	}

	pers := &core.DSFPersister{Backend: backend}
	pers.SetTracer(plane.Tracer())
	var mu sync.Mutex
	var firstErr error
	var iterTimes []float64
	var pipeStats []core.PipelineStats
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	err = mpi.Run(resilienceRanks, resilienceRanks, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil, core.Options{
			Persister: pers, Scheduler: ctlScheduler{}, Obs: plane,
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
			pipeStats = append(pipeStats, dep.Server.PipelineStats())
			mu.Unlock()
			return
		}
		sim, err := cm1.New(dep.ClientComm, params)
		if err != nil {
			fail(err)
			return
		}
		b := cm1.NewDamarisBackend(dep.Client)
		rep, err := cm1.Run(sim, b, resilienceSteps, 1)
		if err != nil {
			fail(err)
		}
		if err := b.Close(); err != nil {
			fail(err)
		}
		mu.Lock()
		iterTimes = append(iterTimes, rep.WriteSeconds...)
		mu.Unlock()
	})
	if err != nil {
		return run, nil, err
	}
	if firstErr != nil {
		return run, nil, firstErr
	}

	var sum float64
	for _, s := range iterTimes {
		sum += s
		if s > run.MaxIterSeconds {
			run.MaxIterSeconds = s
		}
	}
	if len(iterTimes) > 0 {
		run.MeanIterSeconds = sum / float64(len(iterTimes))
	}
	for _, ps := range pipeStats {
		run.Spilled += ps.Spill.Spilled
		run.Replayed += ps.Spill.Replayed
		run.Pending += ps.Spill.Pending
		run.Stranded += ps.Spill.Stranded
		run.DegradedDecisions += ps.Control.DegradedDecisions
		if ps.Window > run.Window {
			run.Window = ps.Window
		}
		if ps.MaxInFlight > run.MaxInFlight {
			run.MaxInFlight = ps.MaxInFlight
		}
	}
	st := backend.Stats()
	run.StoreRetries = st.Retries
	run.StoreBackoffs = st.Backoffs

	tree, err := readStoreTree(backendDir)
	if err != nil {
		return run, nil, err
	}
	return run, tree, nil
}

// readStoreTree reads the durable planes of an obj:// root — blobs/ and
// manifests/ — into a path→bytes map for byte-identity comparison. The tmp/
// staging area is deliberately excluded.
func readStoreTree(root string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, plane := range []string{"blobs", "manifests"} {
		base := filepath.Join(root, plane)
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out[rel] = b
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func treesIdentical(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}

// runHedgeBench runs the middleware against an object store whose primary
// target hangs forever on every write-plane op, with a healthy replica,
// per-put deadlines and hedged puts enabled. The run must complete inside
// the budget with every iteration durable — the hedge path, not the hung
// primary, carries the watermark.
func runHedgeBench() (hedgeResult, error) {
	var res hedgeResult
	primary, err := os.MkdirTemp("", "damaris-hedge-primary")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(primary)
	replica, err := os.MkdirTemp("", "damaris-hedge-replica")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(replica)

	done := make(chan struct{})
	hung := map[string]bool{store.OpPut: true, store.OpPutRename: true, store.OpCommit: true}
	hang := store.FaultFunc(func(op, name string) error {
		if hung[op] {
			<-done
		}
		return nil
	})
	backend, err := store.NewObjStore(primary, store.Options{
		Replicas:   []string{filepath.Join(replica, "objects")},
		HedgeAfter: 10 * time.Millisecond,
		PutTimeout: 250 * time.Millisecond,
		Fault:      hang,
	})
	if err != nil {
		return res, err
	}
	defer func() {
		// Unpark the attempts stuck in the hung primary, then let the
		// backend's owner join them.
		close(done)
		backend.Close()
	}()

	params := cm1.DefaultParams(resilienceRanks-1, 1)
	cfg, err := config.ParseString(cm1.ConfigXML(params, 32<<20, "mutex", 1))
	if err != nil {
		return res, err
	}
	cfg.PersistWorkers = 1
	cfg.PersistQueueDepth = 2
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	pers := &core.DSFPersister{Backend: backend}

	var mu sync.Mutex
	var firstErr error
	var pipeStats []core.PipelineStats
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	runErr := make(chan error, 1)
	go func() {
		runErr <- mpi.Run(resilienceRanks, resilienceRanks, func(comm *mpi.Comm) {
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
				pipeStats = append(pipeStats, dep.Server.PipelineStats())
				mu.Unlock()
				return
			}
			sim, err := cm1.New(dep.ClientComm, params)
			if err != nil {
				fail(err)
				return
			}
			b := cm1.NewDamarisBackend(dep.Client)
			if _, err := cm1.Run(sim, b, hedgeBenchSteps, 1); err != nil {
				fail(err)
			}
			if err := b.Close(); err != nil {
				fail(err)
			}
		})
	}()
	select {
	case err := <-runErr:
		if err != nil {
			return res, err
		}
	case <-time.After(hedgeBenchBudget):
		// The hung primary stalled the run — exactly what hedging exists to
		// prevent. Report the failure; the stuck world is abandoned.
		return res, fmt.Errorf("hedge run did not complete within %v: hung primary stalled the durability watermark", hedgeBenchBudget)
	}
	if firstErr != nil {
		return res, firstErr
	}
	res.Completed = true
	for _, ps := range pipeStats {
		res.Iterations += ps.Completed
		res.Failures += ps.Failures
	}
	st := backend.Stats()
	res.Hedges = st.Hedges
	res.HedgeWins = st.HedgeWins
	res.PutTimeouts = st.PutTimeouts
	objs, err := backend.Objects()
	if err != nil {
		return res, err
	}
	res.DurableObjects = len(objs)
	return res, nil
}

// runResilienceBench executes the overload-resilience gates end to end —
// healthy vs brownout spill runs with byte-identity and bounded stall, then
// the hung-primary hedge run — and writes BENCH_resilience.json. Any failed
// gate is an error: the bench doubles as the regression harness for
// degraded-mode persistence.
func runResilienceBench(outPath string) error {
	// Healthy baseline: a constant put latency the write-behind pipeline
	// absorbs. It is deliberately comparable to the client compute phase so
	// the 5x brownout genuinely outruns the client cadence and forces
	// sustained backpressure.
	const baseLat = 10 * time.Millisecond
	healthy, healthyTree, err := runResilienceOnce("healthy", store.Latency(baseLat, store.OpPut), nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s iter mean=%.2gs max=%.2gs spilled=%d replayed=%d retries=%d\n",
		healthy.Scenario, healthy.MeanIterSeconds, healthy.MaxIterSeconds,
		healthy.Spilled, healthy.Replayed, healthy.StoreRetries)

	// Brownout: 5x the baseline latency plus a 20% deterministic put error
	// rate, at peak intensity from the start of the run (the ramp's midpoint
	// is placed at t0).
	brownFault := store.Chain(
		store.Latency(baseLat, store.OpPut),
		store.Brownout(time.Now().Add(-15*time.Second), 30*time.Second,
			5*baseLat, 0.2, store.OpPut),
	)
	brownout, brownTree, err := runResilienceOnce("brownout", brownFault, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s iter mean=%.2gs max=%.2gs spilled=%d replayed=%d degraded=%d retries=%d backoffs=%d window=%d depth=%d\n",
		brownout.Scenario, brownout.MeanIterSeconds, brownout.MaxIterSeconds,
		brownout.Spilled, brownout.Replayed, brownout.DegradedDecisions,
		brownout.StoreRetries, brownout.StoreBackoffs, brownout.Window, brownout.MaxInFlight)

	base := healthy.MaxIterSeconds
	if base < stallBase {
		base = stallBase
	}
	rep := resilienceReport{
		Healthy:        healthy,
		Brownout:       brownout,
		StallFactor:    brownout.MaxIterSeconds / base,
		StallBound:     25,
		BytesIdentical: treesIdentical(healthyTree, brownTree) && len(healthyTree) > 0,
		StoredFiles:    len(brownTree),
	}
	fmt.Printf("stall factor %.1fx (bound %.0fx); %d stored files byte-identical=%v\n",
		rep.StallFactor, rep.StallBound, rep.StoredFiles, rep.BytesIdentical)

	hedge, err := runHedgeBench()
	if err != nil {
		return err
	}
	rep.Hedge = hedge
	fmt.Printf("hedge: %d iterations durable, %d hedges (%d wins), %d put timeouts, %d objects\n",
		hedge.Iterations, hedge.Hedges, hedge.HedgeWins, hedge.PutTimeouts, hedge.DurableObjects)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	// Gates.
	if brownout.Spilled == 0 {
		return fmt.Errorf("brownout never engaged the scratch spill (see %s)", outPath)
	}
	if brownout.Replayed != brownout.Spilled || brownout.Pending != 0 || brownout.Stranded != 0 {
		return fmt.Errorf("spill backlog not fully replayed: spilled=%d replayed=%d pending=%d stranded=%d (see %s)",
			brownout.Spilled, brownout.Replayed, brownout.Pending, brownout.Stranded, outPath)
	}
	if brownout.DegradedDecisions == 0 {
		return fmt.Errorf("tuner never entered degraded mode while the spill backlog drained (see %s)", outPath)
	}
	if rep.StallFactor > rep.StallBound {
		return fmt.Errorf("brownout stall factor %.1fx exceeds bound %.0fx (see %s)",
			rep.StallFactor, rep.StallBound, outPath)
	}
	if !rep.BytesIdentical {
		return fmt.Errorf("brownout run's stored bytes differ from the healthy run's (see %s)", outPath)
	}
	if !hedge.Completed || hedge.Failures > 0 {
		return fmt.Errorf("hedge run failed: completed=%v failures=%d (see %s)",
			hedge.Completed, hedge.Failures, outPath)
	}
	if hedge.HedgeWins == 0 {
		return fmt.Errorf("hung primary produced no hedge wins (see %s)", outPath)
	}
	return nil
}
