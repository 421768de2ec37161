package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/store"
)

// The in-process MPI world every workload runs on: 2 SMP nodes of 4 cores,
// one dedicated core per node, so 6 CM1 ranks on a 3x2 process grid.
const (
	worldRanks   = 8
	coresPerNode = 4
	clientRanks  = worldRanks - worldRanks/coresPerNode
	gridX, gridY = 3, 2
	bufferBytes  = 32 << 20 // shared segment per node
)

// workload is one benchmark configuration. Everything here is fixed per
// workload; the seed only varies the CM1 physics constants (and so the
// field values and their compressibility) and the injected storage faults.
type workload struct {
	name, why   string
	nz, work    int // CM1 levels per rank and stencil sweeps per step
	outputEvery int // CM1 steps per output phase (one Damaris iteration)

	scheme         string // "file" or "obj"
	codec          dsf.Codec
	encodeWorkers  int // encode pool attached to each persister (0 = serial)
	persistWorkers int // 0 = synchronous persist on the event loop
	queueDepth     int
	shards         int
	partSize       int64
	control        string

	// Slow and flaky storage (cm1-slowstore only).
	faulty      bool
	putTimeout  time.Duration
	putAttempts int
	spill       bool
}

var workloads = []workload{
	{
		name: "cm1-paper",
		why: "the paper's design: compute-bound CM1, output every 4 steps, synchronous persist on the " +
			"dedicated core's event loop to DSF files; stresses the client shm path and the event loop",
		nz: 40, work: 2, outputEvery: 4,
		scheme: "file", codec: dsf.None, persistWorkers: 0, queueDepth: 1, shards: 1, control: "static",
	},
	{
		name: "cm1-drain",
		why: "I/O-bound: output every step, gzip on a 2-worker encode pool, obj:// multipart puts, 2 writers x " +
			"window 4, 2 stealing event shards; encode -> store -> ack backpressure reaches the clients",
		nz: 10, work: 1, outputEvery: 1,
		scheme: "obj", codec: dsf.ShuffleGzip, encodeWorkers: 2, persistWorkers: 2, queueDepth: 4, shards: 2,
		partSize: 256 << 10, control: "static",
	},
	{
		name: "cm1-slowstore",
		why: "latency-bound storage: uncompressed output every step to an obj:// primary with seeded heavy-tail " +
			"put latency and failures, put timeout, retries, scratch spill and the auto tuner",
		nz: 20, work: 1, outputEvery: 1,
		scheme: "obj", codec: dsf.None, persistWorkers: 2, queueDepth: 4, shards: 1,
		partSize: 256 << 10, control: "auto",
		faulty: true, putTimeout: 60 * time.Millisecond, putAttempts: 4, spill: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params builds the CM1 parameters for a seed: a 44x44xNZ subdomain per
// rank, with the timestep and diffusivity jittered by up to ±2%.
func (w workload) params(seed uint64) cm1.Params {
	p := cm1.DefaultParams(gridX, gridY)
	p.GlobalNX, p.GlobalNY, p.NZ = gridX*44, gridY*44, w.nz
	p.WorkFactor = w.work
	r := rand.New(rand.NewPCG(seed, 0x6d31))
	p.DT *= 1 + 0.04*(r.Float64()-0.5)
	p.Kappa *= 1 + 0.04*(r.Float64()-0.5)
	return p
}

// config builds the Damaris configuration the dedicated cores deploy with.
func (w workload) config(p cm1.Params, spillDir string) (*config.Config, error) {
	cfg, err := config.ParseString(cm1.ConfigXML(p, bufferBytes, "mutex", 1))
	if err != nil {
		return nil, err
	}
	cfg.PersistWorkers = w.persistWorkers
	cfg.PersistQueueDepth = w.queueDepth
	cfg.EncodeWorkers = w.encodeWorkers
	cfg.ShardCount = w.shards
	cfg.ControlMode = w.control
	if w.spill {
		cfg.SpillDir = spillDir
	}
	return cfg, cfg.Validate()
}

// gzipLevel is the level compressed workloads encode at.
func (w workload) gzipLevel() int {
	if w.codec == dsf.None {
		return 0
	}
	return config.DefaultPersistGzipLevel
}

// openStore opens the backend both dedicated cores share.
func (w workload) openStore(dir string, seed uint64) (store.Backend, error) {
	opts := store.Options{PartSize: w.partSize, PutTimeout: w.putTimeout, PutAttempts: w.putAttempts}
	if w.faulty {
		opts.Fault = newSlowFault(seed)
	}
	return store.OpenWith(w.scheme+"://"+dir, opts)
}

// errInjected is the failure the slow-store fault injects.
var errInjected = fmt.Errorf("injected put failure")

// slowFault models a slow, flaky object-store target. A blob's first put
// attempt sleeps a heavy-tailed (Pareto) latency drawn from a hash of the
// seed and the blob's name, and one blob in failEvery has its first attempt
// fail outright. Retries see only the base latency and never fail, so with
// bounded put attempts every put eventually lands and no iteration is lost.
// Draws depend on names, not call order, so the same inputs see the same
// faults whatever the interleaving.
type slowFault struct {
	seed     uint64
	mu       sync.Mutex
	attempts map[string]int
}

const (
	faultBase      = 1 * time.Millisecond
	faultScale     = 1 * time.Millisecond // Pareto x_m
	faultAlpha     = 1.3
	faultCap       = 150 * time.Millisecond
	faultFailEvery = 12
)

func newSlowFault(seed uint64) *slowFault {
	return &slowFault{seed: seed, attempts: make(map[string]int)}
}

func (f *slowFault) Op(op, name string) error {
	if op != store.OpPut {
		return nil
	}
	f.mu.Lock()
	f.attempts[name]++
	first := f.attempts[name] == 1
	f.mu.Unlock()
	if !first {
		time.Sleep(faultBase)
		return nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", f.seed, name)
	r := rand.New(rand.NewPCG(h.Sum64(), f.seed))
	if r.IntN(faultFailEvery) == 0 {
		return errInjected
	}
	d := faultBase + time.Duration(float64(faultScale)*(math.Pow(1-r.Float64(), -1/faultAlpha)-1))
	if d > faultCap {
		d = faultCap
	}
	time.Sleep(d)
	return nil
}
