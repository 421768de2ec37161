package core

import (
	"runtime"
	"sync"
	"testing"

	"damaris/internal/leakcheck"
	"damaris/internal/mpi"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// Two servers over one caller-supplied obj:// backend: the backend's figures
// belong to whoever opened it, so the servers' scrape must not carry them
// once per server. PipelineStats.Store still reads the shared totals.
func TestSharedBackendStoreMetricsCountedOnce(t *testing.T) {
	leakcheck.Check(t)
	backend, err := store.NewObjStore(t.TempDir(), store.Options{PartSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	plane := obs.NewPlane(0)
	// The test opened the backend, so it registers the backend's figures.
	plane.Registry().Collect(func(e *obs.Emitter) { backend.Stats().Emit(e) })
	cfg := testCfg(t, "mutex", 1)

	var mu sync.Mutex
	var servers []*Server
	err = mpi.Run(4, 2, func(comm *mpi.Comm) {
		pers := &DSFPersister{Backend: backend, Node: comm.Node(), ServerID: comm.Rank()}
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers, Obs: plane})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			if err := dep.Server.Run(); err != nil {
				t.Error(err)
			}
			mu.Lock()
			servers = append(servers, dep.Server)
			mu.Unlock()
			return
		}
		for it := int64(0); it < 3; it++ {
			_ = dep.Client.WriteFloat32s("temp", it, fieldData(dep.Client.Source()))
			_ = dep.Client.EndIteration(it)
		}
		_ = dep.Client.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 {
		t.Fatalf("%d servers ran, want 2", len(servers))
	}

	want := backend.Stats().Puts
	if want == 0 {
		t.Fatal("backend recorded no puts")
	}
	var puts float64
	for _, s := range plane.Registry().Gather() {
		if s.Name == "damaris_store_puts_total" {
			puts += s.Value
		}
	}
	if puts != float64(want) {
		t.Errorf("summed damaris_store_puts_total = %v, want the backend's %d", puts, want)
	}
	for _, srv := range servers {
		if got := srv.PipelineStats().Store.Puts; got != want {
			t.Errorf("server %d PipelineStats.Store.Puts = %d, want the shared %d", srv.ID(), got, want)
		}
	}
}

// The server collector's cost must not grow with the run: a scrape after
// 10,000 flushes allocates what one after 10 does.
func TestServerCollectorCostIndependentOfRunLength(t *testing.T) {
	leakcheck.Check(t)
	cfg := testCfg(t, "mutex", 1)
	var srv *Server
	err := mpi.Run(2, 2, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: &NullPersister{}})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			_ = dep.Client.Finalize()
			return
		}
		srv = dep.Server
		_ = dep.Server.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.RegisterObs(reg)

	flushed := int64(0)
	flush := func(n int) {
		for i := 0; i < n; i++ {
			srv.iterationDurable(flushed, 0.001*float64(i%7+1), 0.002, 64, nil)
			flushed++
		}
	}
	// scrape reports allocations and bytes per Gather, averaged over a
	// benchmark's worth of gathers so stray allocations elsewhere in the
	// process wash out.
	scrape := func() (allocs, bytes int64) {
		runtime.GC()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reg.Gather()
			}
		})
		return r.AllocsPerOp(), r.AllocedBytesPerOp()
	}

	flush(10)
	shortAllocs, shortBytes := scrape()
	flush(10_000 - 10)
	longAllocs, longBytes := scrape()
	if shortAllocs != longAllocs {
		t.Errorf("collector allocs/op = %v after 10 flushes, %v after 10,000", shortAllocs, longAllocs)
	}
	// A copy of the write-time history would add 80 KB per scrape here;
	// allow a little slack for allocations outside the collector.
	if longBytes > shortBytes+512 {
		t.Errorf("collector bytes/op = %v after 10 flushes, %v after 10,000", shortBytes, longBytes)
	}
	if n := srv.WriteStats().N; n != 10_000 {
		t.Errorf("WriteStats().N = %d, want 10000", n)
	}
}

// An engaged spare-core budget shows in the scrape under static control
// too: with no tuner to echo it, the server does.
func TestStaticControlExportsSpareBudget(t *testing.T) {
	leakcheck.Check(t)
	cfg := shardCfg(t, 1, 2, `<shards count="2" budget="6"/>`)
	ps, srv := runControl(t, cfg, Options{Persister: &MemPersister{}}, 2)
	if ps.Control.Mode != "" || ps.Control.Budget != 6 || ps.Control.Reserved != 2 {
		t.Fatalf("static control stats = %+v, want budget 6 reserved 2", ps.Control)
	}
	reg := obs.NewRegistry()
	srv.RegisterObs(reg)
	got := map[string]float64{}
	for _, s := range reg.Gather() {
		got[s.Name] = s.Value
	}
	if got["damaris_control_budget"] != 6 || got["damaris_control_reserved"] != 2 {
		t.Errorf("damaris_control_budget = %v, _reserved = %v, want 6 and 2",
			got["damaris_control_budget"], got["damaris_control_reserved"])
	}
}
