package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// repOpts selects what one repetition does.
type repOpts struct {
	seed    uint64
	seconds float64 // length of the timed region
	warm    int     // output iterations before the timed region starts
	traced  bool    // record client and store spans
	dry     bool    // stop right after set-up (a set-up time sample)
	dir     string  // this repetition's storage and spill directory
}

// chunkKey names one (variable, iteration, source) chunk.
type chunkKey struct {
	name string
	it   int64
	src  int
}

// chunkSum is the checksum of the bytes a client handed to WriteBlock.
type chunkSum struct {
	crc uint32
	n   int
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// clientRec is what one CM1 rank records; only its own goroutine writes it.
type clientRec struct {
	rank     int
	server   int     // the dedicated core serving this client
	phase    []int64 // per iteration: ns inside WriteBlock x5 + EndIteration
	endAt    []int64 // per iteration: EndIteration call start
	extract  []int64 // per iteration: Field + Float32sToBytes ns (traced only)
	spans    []span  // traced only
	calls    int64
	errs     int64
	firstErr error
	sums     map[chunkKey]chunkSum
}

// serverRec is what one dedicated core reports after Run.
type serverRec struct {
	rank  int
	stats core.PipelineStats
	err   error
}

// repResult is everything one repetition measured.
type repResult struct {
	clock
	setupNs    int64
	warm       int   // warm-up iterations
	iters      int   // iterations written in total
	tStart     int64 // timed region start (rank 0, before the first timed step)
	tEnd       int64 // timed region end (rank 0, after the last timed phase)
	timedSteps int
	iterBytes  int64 // payload bytes per iteration, all clients
	clients    []*clientRec
	servers    []serverRec
	spans      []span // persist calls, plus store calls when traced
	storeStats store.Stats
	rssMB      float64
	url        string // storage URL the output check reads back
}

// runRep runs one repetition of workload w: deploy Damaris on a fresh
// in-process world, run CM1 through the timed region, shut down.
func runRep(w workload, o repOpts) (*repResult, error) {
	// Every repetition starts from a collected heap with its free memory
	// returned to the OS, as a fresh process would, so one repetition's
	// garbage and page reuse do not land on the next one's clock.
	debug.FreeOSMemory()
	res := &repResult{clock: clock{base: time.Now()}, warm: o.warm}
	rec := &recorder{clock: res.clock}
	p := w.params(o.seed)
	spillDir := filepath.Join(o.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	cfg, err := w.config(p, spillDir)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.dir, "data")
	shared, err := w.openStore(dataDir, o.seed)
	if err != nil {
		return nil, err
	}
	res.url = w.scheme + "://" + dataDir
	res.iterBytes = p.BytesPerRankPerOutput() * clientRanks

	var mu sync.Mutex
	var lead struct { // what client rank 0 records
		tStart, tEnd, setup int64
		lastIt              int
	}
	plane := obs.NewPlane(0)

	err = mpi.Run(worldRanks, coresPerNode, func(comm *mpi.Comm) {
		rank := comm.Rank()
		var b store.Backend = shared
		if o.traced {
			b = &timedBackend{Backend: b, server: rank, rec: rec}
		}
		pers := &core.DSFPersister{Backend: b, Codec: w.codec, GzipLevel: w.gzipLevel(),
			Node: comm.Node(), ServerID: rank}
		pers.SetTracer(plane.Tracer())
		persister := &timedPersister{inner: pers, server: rank, rec: rec}
		dep, err := core.Deploy(comm, cfg, nil, core.Options{OutputDir: dataDir, Persister: persister, Obs: plane})
		if err != nil {
			panic(err)
		}
		if !dep.IsClient() {
			if w.encodeWorkers > 0 {
				pool := dsf.NewEncodePool(w.encodeWorkers)
				pool.SetTracer(plane.Tracer(), rank)
				pers.SetEncodePool(pool)
				defer pool.Close()
			}
			runErr := dep.Server.Run()
			sr := serverRec{rank: rank, stats: dep.Server.PipelineStats(), err: runErr}
			mu.Lock()
			res.servers = append(res.servers, sr)
			mu.Unlock()
			return
		}

		cc := dep.ClientComm
		cr := &clientRec{rank: rank, server: (rank/coresPerNode+1)*coresPerNode - 1,
			sums: make(map[chunkKey]chunkSum)}
		mu.Lock()
		res.clients = append(res.clients, cr)
		mu.Unlock()
		sim, err := cm1.New(cc, p)
		if err != nil {
			panic(err)
		}
		cc.Barrier()
		if cc.Rank() == 0 {
			lead.setup = res.now()
		}
		if !o.dry {
			lastIt := runClient(res, o, w, cc, dep.Client, sim, cr, &lead.tStart, &lead.tEnd)
			if cc.Rank() == 0 {
				lead.lastIt = lastIt
			}
		}
		cr.calls++
		if err := dep.Client.Finalize(); err != nil {
			cr.fail(err)
		}
	})
	closeErr := shared.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, fmt.Errorf("close store: %w", closeErr)
	}
	res.setupNs = lead.setup
	res.tStart, res.tEnd = lead.tStart, lead.tEnd
	res.iters = lead.lastIt + 1
	if o.dry {
		res.iters = 0
	}
	if timed := res.iters - res.warm; timed > 0 {
		res.timedSteps = timed * w.outputEvery
	}
	res.spans = rec.snapshot()
	if len(res.servers) > 0 {
		res.storeStats = res.servers[0].stats.Store
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// iterate runs body for output iterations 0, 1, … on every CM1 rank.
// Client rank 0 opens the timed region at iteration o.warm and decides when
// it ends; an all-reduce at every iteration boundary makes every rank stop
// after the same iteration. It returns the last iteration run.
func iterate(c clock, cc *mpi.Comm, o repOpts, tStart, tEnd *int64, body func(it int)) int {
	lead := cc.Rank() == 0
	for it := 0; ; it++ {
		stop := 0.0
		if lead {
			now := c.now()
			if it == o.warm {
				*tStart = now
			}
			if it > o.warm && float64(now-*tStart) >= o.seconds*1e9 {
				stop = 1
			}
		}
		if cc.AllreduceFloat64(stop, mpi.OpMax) > 0 {
			return it - 1
		}
		body(it)
		if lead {
			*tEnd = c.now()
		}
	}
}

// runClient is one CM1 rank's loop. It makes the same middleware calls
// cm1.DamarisBackend makes, timing only the calls themselves: the field
// extraction and float-to-byte conversion are the simulation's own cost.
// It returns the last iteration written.
func runClient(res *repResult, o repOpts, w workload, cc *mpi.Comm, cli *core.Client, sim *cm1.Sim,
	cr *clientRec, tStart, tEnd *int64) int {
	x0, y0 := sim.GlobalOffset()
	nz, ny, nx := sim.LocalShape()
	global := layout.Block{
		Start: []int64{0, int64(y0), int64(x0)},
		Count: []int64{int64(nz), int64(ny), int64(nx)},
	}
	return iterate(res.clock, cc, o, tStart, tEnd, func(it int) {
		for k := 0; k < w.outputEvery; k++ {
			t0 := res.now()
			sim.Step()
			if o.traced {
				cr.spans = append(cr.spans, span{Kind: kindStep, Rank: cr.rank, Server: cr.server,
					It: int64(it), Start: t0, End: res.now()})
			}
		}
		var phase, extract int64
		for _, name := range cm1.VariableNames {
			e0 := res.now()
			xs, err := sim.Field(name)
			if err != nil {
				cr.fail(err)
				continue
			}
			data := mpi.Float32sToBytes(xs)
			extract += res.now() - e0
			cr.sums[chunkKey{name, int64(it), cr.rank}] = chunkSum{crc32.Checksum(data, crcTable), len(data)}
			t0 := res.now()
			err = cli.WriteBlock(name, int64(it), data, global)
			t1 := res.now()
			cr.calls++
			phase += t1 - t0
			if err != nil {
				cr.fail(err)
			}
			if o.traced {
				cr.spans = append(cr.spans, span{Kind: kindWrite, Rank: cr.rank, Server: cr.server,
					It: int64(it), Start: t0, End: t1, Bytes: int64(len(data))})
			}
		}
		t0 := res.now()
		err := cli.EndIteration(int64(it))
		t1 := res.now()
		cr.calls++
		if err != nil {
			cr.fail(err)
		}
		if o.traced {
			cr.spans = append(cr.spans, span{Kind: kindEnd, Rank: cr.rank, Server: cr.server,
				It: int64(it), Start: t0, End: t1})
			cr.extract = append(cr.extract, extract)
		}
		cr.phase = append(cr.phase, phase+t1-t0)
		cr.endAt = append(cr.endAt, t0)
	})
}

func (c *clientRec) fail(err error) {
	c.errs++
	if c.firstErr == nil {
		c.firstErr = err
	}
}
