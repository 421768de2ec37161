package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// shardCfg builds a config with the given pipeline knobs and an optional
// <shards> element (empty = the pre-sharding classic loop).
func shardCfg(t *testing.T, workers, queue int, shardsXML string) *config.Config {
	t.Helper()
	xml := fmt.Sprintf(`
<simulation>
  <buffer size="8388608" cores="1"/>
  <pipeline workers="%d" queue="%d"/>
  %s
  <layout name="l" type="real" dimensions="16,4"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
</simulation>`, workers, queue, shardsXML)
	cfg, err := config.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestEffectiveShards(t *testing.T) {
	cases := []struct {
		shardsXML string
		clients   int
		want      int
	}{
		{"", 4, 1},                                            // no element: classic loop
		{`<shards count="1"/>`, 4, 1},                         // explicit single
		{`<shards count="4"/>`, 4, 4},                         // static count
		{`<shards count="8"/>`, 3, 3},                         // clamped to clients
		{`<shards mode="auto" budget="8"/>`, 16, 4},           // budget/2
		{`<shards count="2" mode="auto" budget="8"/>`, 16, 2}, // auto capped by count
		{`<shards count="6" budget="4"/>`, 16, 4},             // explicit budget clamps static too
	}
	for _, c := range cases {
		cfg := shardCfg(t, 1, 1, c.shardsXML)
		if got := effectiveShards(cfg, c.clients); got != c.want {
			t.Errorf("effectiveShards(%q, %d clients) = %d, want %d", c.shardsXML, c.clients, got, c.want)
		}
	}
}

// The tentpole invariant: sharding the event loop may only change *when*
// work overlaps, never output bytes. Every shard count x persist-worker
// count must leave a DSF directory byte-identical to the pre-sharding
// classic loop.
func TestShardedOutputByteIdentical(t *testing.T) {
	const iters = 10
	run := func(workers int, shardsXML string) map[string][]byte {
		dir := t.TempDir()
		backend, err := store.NewFileStore(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		pers := &DSFPersister{Backend: backend}
		cfg := shardCfg(t, workers, 2, shardsXML)
		// A non-batch-aware scheduler forces one-iteration batches so the
		// async pipeline's object names are deterministic (see the control
		// golden test).
		runControl(t, cfg, Options{Persister: pers, Scheduler: perIterScheduler{}}, iters)
		return readDir(t, dir)
	}

	for _, workers := range []int{0, 4} {
		ref := run(workers, "")
		if len(ref) != iters {
			t.Fatalf("workers=%d: classic loop produced %d objects, want %d", workers, len(ref), iters)
		}
		for _, shardsXML := range []string{
			`<shards count="1"/>`,
			`<shards count="2"/>`,
			`<shards count="4"/>`,
		} {
			variant := run(workers, shardsXML)
			if len(variant) != len(ref) {
				t.Errorf("workers=%d %s: %d objects, want %d", workers, shardsXML, len(variant), len(ref))
				continue
			}
			for obj, want := range ref {
				got, ok := variant[obj]
				if !ok {
					t.Errorf("workers=%d %s: object %s missing", workers, shardsXML, obj)
					continue
				}
				if string(got) != string(want) {
					t.Errorf("workers=%d %s: object %s differs from the classic loop", workers, shardsXML, obj)
				}
			}
		}
	}
}

// slowFailPersister persists into memory with an injected per-iteration
// delay and deterministic failures — backlog plus faults, the combination
// the sharded event loops must survive.
type slowFailPersister struct {
	mem      MemPersister
	delay    time.Duration
	boom     error
	failures atomic.Int64
}

func (p *slowFailPersister) Persist(it int64, entries []*metadata.Entry) error {
	time.Sleep(p.delay)
	if it%7 == 3 {
		p.failures.Add(1)
		return p.boom
	}
	return p.mem.Persist(it, entries)
}

// Several shard loops over the synchronous baseline with injected persist
// failures, under -race in CI: a slow failing persister runs inside the
// shard loop that won the flush ticket, backing up that shard's queue while
// its siblings keep handling their own clients. Every client event must
// still be handled exactly once, Run must return the persist error, and
// all surviving iterations must be complete in the store.
func TestShardsSyncPersistFailures(t *testing.T) {
	boom := errors.New("injected persist failure")
	pers := &slowFailPersister{delay: 2 * time.Millisecond, boom: boom}
	// Synchronous baseline (workers=0): the flush persists on the event
	// loop through the pipeline's writerless path.
	cfg := shardCfg(t, 0, 1, `<shards count="4"/>`)
	const iters = 40

	var srv *Server
	err := mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: pers})
		if err != nil {
			t.Error(err)
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			defer cli.Finalize()
			for it := int64(0); it < iters; it++ {
				for _, name := range []string{"a", "b"} {
					if err := cli.WriteFloat32s(name, it, fieldData(cli.Source())); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cli.EndIteration(it); err != nil {
					t.Error(err)
					return
				}
			}
			return
		}
		srv = dep.Server
		if err := dep.Server.Run(); err == nil {
			t.Error("Run returned nil despite injected persist failures")
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := srv.ShardCount(); got != 3 {
		t.Fatalf("ShardCount = %d, want 3 (count 4 clamped to 3 clients)", got)
	}
	ps := srv.PipelineStats()
	var events int64
	for _, sh := range ps.Shards {
		events += sh.Events
	}
	// 3 clients x (2 writes + 1 end) x iters + 3 exits: every event handled
	// exactly once.
	if want := int64(3*(2+1))*iters + 3; events != want {
		t.Fatalf("shards handled %d events, want %d", events, want)
	}
	if pers.failures.Load() == 0 {
		t.Fatal("no persist failure ever injected")
	}
	// Every iteration that survived its persist is complete: both variables
	// from all 3 clients (a write that was lost or double-applied would
	// break this).
	for it := int64(0); it < iters; it++ {
		if it%7 == 3 {
			continue
		}
		for _, name := range []string{"a", "b"} {
			for src := 0; src < 3; src++ {
				if _, ok := pers.mem.Get(metadata.Key{Name: name, Iteration: it, Source: src}); !ok {
					t.Fatalf("iteration %d missing %s from client %d", it, name, src)
				}
			}
		}
	}
}
