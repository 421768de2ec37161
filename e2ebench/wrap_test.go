package main

import (
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// gateBackend holds a dedicated core's first Create until released, so the
// test decides which iterations are queued when the writer batches.
type gateBackend struct {
	store.Backend
	once    sync.Once
	entered chan<- struct{}
	release <-chan struct{}
}

func (g *gateBackend) Create(object string) (store.ObjectWriter, error) {
	first := false
	g.once.Do(func() { first = true })
	if first {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Backend.Create(object)
}

// observed is everything the timing wrappers could change if they failed
// to forward an interface the server probes: the stored bytes, each
// dedicated core's batch sizes (BatchPersister), the encode stats it reads
// through EncodePool(), the backend it sees through StoreStatser, and the
// store's put count once the run is over.
type observed struct {
	Objects map[string][]byte
	Batches map[int]stats.Summary
	Encode  map[int][2]int64 // chunks, stored bytes
	Scheme  map[int]string
	Puts    int64
}

const fidelityIters = 5

// fidelityRun deploys cm1-drain's configuration with one writer and runs
// fidelityIters scripted iterations. Each dedicated core's writer takes
// iteration 0 alone and is held in its first Create until iterations 1..4
// are all queued, so it then persists them as one batch of 4 whatever the
// timing: the batches are [0] and [1 2 3 4] on every run.
func fidelityRun(t *testing.T, dir string, wrapped bool) observed {
	t.Helper()
	w, _ := workloadByName("cm1-drain")
	w.persistWorkers = 1
	const seed = 7
	p := w.params(seed)
	cfg, err := w.config(p, filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "data")
	shared, err := w.openStore(dataDir, seed)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{clock: clock{base: time.Now()}}
	plane := obs.NewPlane(0)

	var mu sync.Mutex
	servers := map[int]*core.Server{}
	out := observed{Batches: map[int]stats.Summary{}, Encode: map[int][2]int64{}, Scheme: map[int]string{}}
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	resume := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(worldRanks, coresPerNode, func(comm *mpi.Comm) {
			rank := comm.Rank()
			var b store.Backend = &gateBackend{Backend: shared, entered: entered, release: release}
			if wrapped {
				b = &timedBackend{Backend: b, server: rank, rec: rec}
			}
			pers := &core.DSFPersister{Backend: b, Codec: w.codec, GzipLevel: w.gzipLevel(),
				Node: comm.Node(), ServerID: rank}
			pers.SetTracer(plane.Tracer())
			var persister core.Persister = pers
			if wrapped {
				persister = &timedPersister{inner: pers, server: rank, rec: rec}
			}
			dep, err := core.Deploy(comm, cfg, nil, core.Options{OutputDir: dataDir, Persister: persister, Obs: plane})
			if err != nil {
				panic(err)
			}
			if !dep.IsClient() {
				pool := dsf.NewEncodePool(w.encodeWorkers)
				defer pool.Close()
				pers.SetEncodePool(pool)
				mu.Lock()
				servers[rank] = dep.Server
				mu.Unlock()
				if err := dep.Server.Run(); err != nil {
					panic(err)
				}
				ps := dep.Server.PipelineStats()
				mu.Lock()
				out.Batches[rank] = ps.BatchSize
				out.Encode[rank] = [2]int64{ps.Encode.Chunks, ps.Encode.StoredBytes}
				out.Scheme[rank] = ps.Store.Scheme
				mu.Unlock()
				return
			}
			sim, err := cm1.New(dep.ClientComm, p)
			if err != nil {
				panic(err)
			}
			x0, y0 := sim.GlobalOffset()
			nz, ny, nx := sim.LocalShape()
			global := layout.Block{Start: []int64{0, int64(y0), int64(x0)},
				Count: []int64{int64(nz), int64(ny), int64(nx)}}
			for it := int64(0); it < fidelityIters; it++ {
				if it == 1 {
					<-resume
				}
				sim.Step()
				for _, name := range cm1.VariableNames {
					xs, err := sim.Field(name)
					if err != nil {
						panic(err)
					}
					if err := dep.Client.WriteBlock(name, it, mpi.Float32sToBytes(xs), global); err != nil {
						panic(err)
					}
				}
				if err := dep.Client.EndIteration(it); err != nil {
					panic(err)
				}
			}
			if err := dep.Client.Finalize(); err != nil {
				panic(err)
			}
		})
	}()

	// Both writers hold iteration 0 in the gate; let the clients queue the
	// rest, then open the gates once every iteration is queued.
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("run ended before the writers reached the gate: %v", err)
		}
	}
	close(resume)
	deadline := time.Now().Add(30 * time.Second)
	for {
		queued := 0
		mu.Lock()
		for _, s := range servers {
			if s.PipelineStats().Enqueued == fidelityIters {
				queued++
			}
		}
		mu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("iterations never all queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out.Puts = shared.Stats().Puts
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}
	out.Objects = readObjects(t, w.scheme+"://"+dataDir)
	if wrapped {
		var calls int
		for _, s := range rec.snapshot() {
			if s.Kind == kindPersist {
				calls++
			}
		}
		if calls != 4 {
			t.Errorf("wrapper recorded %d persist calls, want 4 (2 per dedicated core)", calls)
		}
	}
	return out
}

func readObjects(t *testing.T, url string) map[string][]byte {
	t.Helper()
	b, err := store.Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	objs, err := b.Objects()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, o := range objs {
		r, err := b.Open(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(io.NewSectionReader(r, 0, r.Size()))
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[o.Name] = data
	}
	return out
}

// TestWrappersPreserveBehaviour runs the same scripted workload with and
// without the timing wrappers: the stored objects must be byte-identical,
// and the batch sizes, encode stats, store view and put count must match.
func TestWrappersPreserveBehaviour(t *testing.T) {
	raw := fidelityRun(t, t.TempDir(), false)
	timed := fidelityRun(t, t.TempDir(), true)

	if len(raw.Objects) != 4 {
		t.Fatalf("raw run stored %d objects, want 4 (2 batches x 2 dedicated cores)", len(raw.Objects))
	}
	for srv, b := range raw.Batches {
		if b.N != 2 || b.Max != 4 {
			t.Errorf("dedicated core %d batches: n=%d max=%v, want [1 4]", srv, b.N, b.Max)
		}
	}
	for srv, e := range raw.Encode {
		if e[0] == 0 || raw.Scheme[srv] != "obj" {
			t.Errorf("dedicated core %d reports encoded chunks %d, store scheme %q", srv, e[0], raw.Scheme[srv])
		}
	}
	for name, data := range raw.Objects {
		if got, ok := timed.Objects[name]; !ok {
			t.Errorf("object %s missing with wrappers", name)
		} else if string(got) != string(data) {
			t.Errorf("object %s differs with wrappers", name)
		}
	}
	if len(timed.Objects) != len(raw.Objects) {
		t.Errorf("%d objects with wrappers, %d without", len(timed.Objects), len(raw.Objects))
	}
	for _, c := range []struct {
		name     string
		raw, got any
	}{
		{"batch sizes", raw.Batches, timed.Batches},
		{"encode stats", raw.Encode, timed.Encode},
		{"store schemes", raw.Scheme, timed.Scheme},
		{"store puts", raw.Puts, timed.Puts},
	} {
		if !reflect.DeepEqual(c.raw, c.got) {
			t.Errorf("%s differ: without wrappers %v, with %v", c.name, c.raw, c.got)
		}
	}
}
