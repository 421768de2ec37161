package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// deployment is one run on the real middleware path, in the paper's shape:
// CM1 ranks write every output phase through shared memory to the dedicated
// cores of their node, which persist it to backend.
type deployment struct {
	ranks, coresPerNode, dedicated int
	steps, outputEvery             int
	backend                        store.Backend
	// plane, when non-nil, receives the servers' telemetry and the
	// persisters' lifecycle spans.
	plane *obs.Plane
	// mutate adjusts the configuration before validation; the defaults are
	// one writer and a one-iteration queue.
	mutate func(*config.Config)
	// onServer, when non-nil, runs on each dedicated core before its event
	// loop starts.
	onServer func(rank int, srv *core.Server)
	// pause, when positive, idles the clients and lines them up on a
	// barrier before every write phase.
	pause time.Duration
}

// runBudget bounds one deployment. A run that outlives it has hung (a
// stalled durability watermark, say) and fails its suite instead of
// stalling the harness; its goroutines are abandoned.
const runBudget = 2 * time.Minute

// iterScheduler has no transfer slots, and since it is not batch-aware it
// pins the pipeline to one iteration per persist call: a run's object
// layout is then deterministic, and parity checks can compare whole stores.
type iterScheduler struct{}

func (iterScheduler) WaitTurn(int64) {}

// run executes the deployment and returns every server's pipeline stats, the
// clients' write-phase durations in seconds, and the first error any rank
// hit.
func (d deployment) run() ([]core.PipelineStats, []float64, error) {
	clients := d.ranks - d.dedicated*(d.ranks/d.coresPerNode)
	params := cm1.DefaultParams(clients, 1)
	cfg, err := config.ParseString(cm1.ConfigXML(params, 32<<20, "mutex", d.dedicated))
	if err != nil {
		return nil, nil, err
	}
	cfg.PersistWorkers = 1
	cfg.PersistQueueDepth = 1
	if d.mutate != nil {
		d.mutate(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}

	var (
		mu       sync.Mutex
		firstErr error
		pipes    []core.PipelineStats
		secs     []float64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(d.ranks, d.coresPerNode, func(comm *mpi.Comm) {
			me := comm.Rank()
			pers := &core.DSFPersister{Backend: d.backend, Node: me / d.coresPerNode, ServerID: me}
			pers.SetTracer(d.plane.Tracer())
			dep, err := core.Deploy(comm, cfg, nil, core.Options{
				Persister: pers, Scheduler: iterScheduler{}, Obs: d.plane,
			})
			if err != nil {
				fail(err)
				return
			}
			if !dep.IsClient() {
				if d.onServer != nil {
					d.onServer(me, dep.Server)
				}
				if err := dep.Server.Run(); err != nil {
					fail(err)
				}
				mu.Lock()
				pipes = append(pipes, dep.Server.PipelineStats())
				mu.Unlock()
				return
			}
			sim, err := cm1.New(dep.ClientComm, params)
			if err != nil {
				fail(err)
				return
			}
			var b cm1.Backend = cm1.NewDamarisBackend(dep.Client)
			if d.pause > 0 {
				b = pacedBackend{b, d.pause, dep.ClientComm}
			}
			rep, err := cm1.Run(sim, b, d.steps, d.outputEvery)
			if err != nil {
				fail(err)
			}
			if err := b.Close(); err != nil {
				fail(err)
			}
			mu.Lock()
			secs = append(secs, rep.WriteSeconds...)
			mu.Unlock()
		})
	}()
	timer := time.NewTimer(runBudget)
	defer timer.Stop()
	select {
	case err := <-done:
		if err != nil {
			return nil, nil, err
		}
	case <-timer.C:
		return nil, nil, fmt.Errorf("deployment did not finish within %v", runBudget)
	}
	return pipes, secs, firstErr
}

// pacedBackend idles every client for pause, then lines them up on a
// barrier, before each write phase.
type pacedBackend struct {
	cm1.Backend
	pause time.Duration
	comm  *mpi.Comm
}

func (b pacedBackend) WritePhase(s *cm1.Sim, it int64) error {
	time.Sleep(b.pause)
	b.comm.Barrier()
	return b.Backend.WritePhase(s, it)
}

// storeRun is one parity variant: a config mutation and an injected put
// latency.
type storeRun struct {
	mutate func(*config.Config)
	lat    time.Duration
}

// parityResult is a byte-identity gate's figures: the reference run's
// object count and whether every variant stored the same bytes.
type parityResult struct {
	Objects   int  `json:"objects"`
	Variants  int  `json:"variants"`
	Identical bool `json:"identical"`
}

// parity runs d once per variant and compares every stored tree with the
// first variant's.
func parity(d deployment, variants []storeRun) (parityResult, error) {
	p := parityResult{Variants: len(variants) - 1, Identical: true}
	var ref map[string][]byte
	for _, v := range variants {
		tree, err := d.storedTree(v)
		if err != nil {
			return p, err
		}
		if ref == nil {
			ref, p.Objects = tree, len(tree)
		}
		p.Identical = p.Identical && sameTree(ref, tree)
	}
	return p, nil
}

// storedTree runs d with v's mutation over a fresh file store with v's put
// latency and returns the files it stored.
func (d deployment) storedTree(v storeRun) (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "damaris-parity")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	backend, err := store.NewFileStore(dir, store.Options{Fault: store.Latency(v.lat)})
	if err != nil {
		return nil, err
	}
	defer backend.Close()
	d.backend, d.mutate = backend, v.mutate
	if _, _, err := d.run(); err != nil {
		return nil, err
	}
	return readTree(dir)
}

// readTree reads every durable file under a store root into a path→bytes
// map. It skips the object store's tmp/ staging area and dot-named
// temporaries, which hold nothing durable.
func readTree(root string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.IsDir() && d.Name() == "tmp") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			return nil
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
	return out, err
}

// sameTree reports whether two trees hold the same files with the same
// bytes; an empty tree proves nothing and never matches.
func sameTree(a, b map[string][]byte) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}
