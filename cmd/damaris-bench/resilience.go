package main

import (
	"os"
	"path/filepath"
	"time"

	"damaris/internal/config"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// spillRun is one spill run's degraded-mode telemetry.
type spillRun struct {
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

// hedgeResult is the hung-primary run: with the primary target hung forever
// on every write-plane op, hedged puts to the replica must keep the
// middleware's durability watermark advancing.
type hedgeResult struct {
	Iterations     int64 `json:"iterations_durable"`
	Failures       int64 `json:"iteration_failures"`
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedge_wins"`
	PutTimeouts    int64 `json:"put_timeouts"`
	DurableObjects int   `json:"durable_objects"`
}

// resilienceMetrics is the resilience suite's report.
type resilienceMetrics struct {
	Healthy  spillRun `json:"healthy"`
	Brownout spillRun `json:"brownout"`
	// StallFactor is the worst brownout write phase over the healthy
	// baseline (floored — see stallBase).
	StallFactor float64 `json:"stall_factor"`
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

// spillSteps sizes the CM1 workload: one output phase per step keeps the
// pipeline under continuous pressure.
const spillSteps = 36

// baseLat is the healthy put latency: a constant the write-behind pipeline
// absorbs, deliberately comparable to the client compute phase so a 5x
// brownout genuinely outruns the client cadence and forces sustained
// backpressure.
const baseLat = 10 * time.Millisecond

// brownoutFault is 5x the baseline latency plus a 20% deterministic put
// error rate, at peak intensity from the start of the run (the ramp's
// midpoint is placed at t0).
func brownoutFault() store.Fault {
	return store.Chain(
		store.Latency(baseLat, store.OpPut),
		store.Brownout(time.Now().Add(-15*time.Second), 30*time.Second,
			5*baseLat, 0.2, store.OpPut),
	)
}

// runSpill executes one real middleware run (1 node x 4 cores, write-behind
// pipeline with scratch spill, auto control) against an obj:// backend
// wrapped in the given fault, and returns its telemetry plus the backend's
// stored bytes. A non-nil plane attaches the telemetry registry and
// lifecycle tracer.
func runSpill(fault store.Fault, plane *obs.Plane) (spillRun, map[string][]byte, error) {
	run := spillRun{Iterations: spillSteps}
	dir, err := os.MkdirTemp("", "damaris-spill")
	if err != nil {
		return run, nil, err
	}
	defer os.RemoveAll(dir)
	storeDir, spillDir := filepath.Join(dir, "store"), filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		return run, nil, err
	}
	backend, err := store.NewObjStore(storeDir, store.Options{
		Fault:       fault,
		PutAttempts: 10, // the brownout's error rate must be absorbable
	})
	if err != nil {
		return run, nil, err
	}
	defer backend.Close()

	pipes, secs, err := deployment{
		ranks: 4, coresPerNode: 4, dedicated: 1, steps: spillSteps, outputEvery: 1,
		backend: backend, plane: plane,
		// A 1-deep queue with a wider window bound: under backend latency
		// the auto controller opens the flow window past the queue, the
		// event loop overflows, and the scratch spill engages — then
		// degraded mode vetoes further growth until the backlog replays.
		mutate: func(cfg *config.Config) {
			cfg.ControlMode = "auto"
			cfg.ControlIntervalMS = 1
			cfg.ControlMaxWriters = 1 // keep one writer so queue pressure is real
			cfg.ControlMaxWindow = 8
			cfg.SpillDir = spillDir
			cfg.SpillAfter = 2
		},
	}.run()
	if err != nil {
		return run, nil, err
	}

	var sum float64
	for _, s := range secs {
		sum += s
		run.MaxIterSeconds = max(run.MaxIterSeconds, s)
	}
	if len(secs) > 0 {
		run.MeanIterSeconds = sum / float64(len(secs))
	}
	for _, ps := range pipes {
		run.Spilled += ps.Spill.Spilled
		run.Replayed += ps.Spill.Replayed
		run.Pending += ps.Spill.Pending
		run.Stranded += ps.Spill.Stranded
		run.DegradedDecisions += ps.Control.DegradedDecisions
		run.Window = max(run.Window, ps.Window)
		run.MaxInFlight = max(run.MaxInFlight, ps.MaxInFlight)
	}
	st := backend.Stats()
	run.StoreRetries = st.Retries
	run.StoreBackoffs = st.Backoffs

	tree, err := readTree(storeDir)
	return run, tree, err
}

// runHedge runs the middleware against an object store whose primary
// target hangs forever on every write-plane op, with a healthy replica,
// per-put deadlines and hedged puts enabled. The run must finish inside
// runBudget with every iteration durable — the hedge path, not the hung
// primary, carries the watermark.
func runHedge() (hedgeResult, error) {
	var res hedgeResult
	dir, err := os.MkdirTemp("", "damaris-hedge")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	done := make(chan struct{})
	hung := map[string]bool{store.OpPut: true, store.OpPutRename: true, store.OpCommit: true}
	hang := store.FaultFunc(func(op, name string) error {
		if hung[op] {
			<-done
		}
		return nil
	})
	backend, err := store.NewObjStore(filepath.Join(dir, "primary"), store.Options{
		Replicas:   []string{filepath.Join(dir, "replica", "objects")},
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

	pipes, _, err := deployment{
		ranks: 4, coresPerNode: 4, dedicated: 1, steps: 8, outputEvery: 1,
		backend: backend,
		mutate:  func(cfg *config.Config) { cfg.PersistQueueDepth = 2 },
	}.run()
	if err != nil {
		return res, err
	}
	for _, ps := range pipes {
		res.Iterations += ps.Completed
		res.Failures += ps.Failures
	}
	st := backend.Stats()
	res.Hedges = st.Hedges
	res.HedgeWins = st.HedgeWins
	res.PutTimeouts = st.PutTimeouts
	objs, err := backend.Objects()
	res.DurableObjects = len(objs)
	return res, err
}

func measureResilience() (resilienceMetrics, error) {
	var m resilienceMetrics
	healthy, healthyTree, err := runSpill(store.Latency(baseLat, store.OpPut), nil)
	if err != nil {
		return m, err
	}
	brownout, brownTree, err := runSpill(brownoutFault(), nil)
	if err != nil {
		return m, err
	}
	m.Healthy, m.Brownout = healthy, brownout
	m.StallFactor = brownout.MaxIterSeconds / max(healthy.MaxIterSeconds, stallBase)
	m.BytesIdentical = sameTree(healthyTree, brownTree)
	m.StoredFiles = len(brownTree)
	m.Hedge, err = runHedge()
	return m, err
}

// stallBound bounds the brownout's worst client write phase, as a multiple
// of the healthy run's.
const stallBound = 25.0

func resilienceGates(m resilienceMetrics) []gate {
	b := m.Brownout
	return []gate{
		atLeast("brownout_spilled", b.Spilled, 1),
		equal("spill_replayed", b.Replayed, b.Spilled),
		atMost("spill_pending", b.Pending, 0),
		atMost("spill_stranded", b.Stranded, 0),
		atLeast("degraded_decisions", b.DegradedDecisions, 1),
		atMost("stall_factor", m.StallFactor, stallBound),
		isTrue("bytes_identical", m.BytesIdentical),
		atMost("hedge_iteration_failures", m.Hedge.Failures, 0),
		atLeast("hedge_wins", m.Hedge.HedgeWins, 1),
	}
}
