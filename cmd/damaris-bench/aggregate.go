package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"damaris/internal/aggregate"
	"damaris/internal/cluster"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/iostrat"
	"damaris/internal/metadata"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// aggMetrics is the aggregate suite's report.
type aggMetrics struct {
	Benchmarks []benchRow `json:"benchmarks"`
	// DeterministicObjects: merged objects are byte-identical across
	// ArrivalOrders fan-in interleavings; OneObjectPerEpoch: each epoch
	// commits exactly one object.
	DeterministicObjects bool `json:"deterministic_objects"`
	OneObjectPerEpoch    bool `json:"one_object_per_epoch"`
	ArrivalOrders        int  `json:"arrival_orders"`
	// The aggregation-off guard: with the tier disabled, the persist path's
	// allocations must sit within noise of the store suite's
	// persist_filestore figure, measured here by the same call.
	StoreAllocsPerOp int64         `json:"store_allocs_per_op"`
	OffAllocsPerOp   int64         `json:"off_allocs_per_op"`
	SimCurves        []aggSimCurve `json:"sim_curves"`
}

// aggSimCurve is one point of the aggregation-aware throughput curves over
// the paper's three platforms.
type aggSimCurve struct {
	Platform      string  `json:"platform"`
	Mode          string  `json:"mode"`
	Cores         int     `json:"cores"`
	MeanBps       float64 `json:"mean_bps"`
	ClientSeconds float64 `json:"client_seconds"`
}

// splitWorkload splits the shared persist workload across members.
func splitWorkload(members int) ([][]*metadata.Entry, int64) {
	entries, total := persistWorkload()
	per := len(entries) / members
	out := make([][]*metadata.Entry, members)
	for m := 0; m < members; m++ {
		out[m] = entries[m*per : (m+1)*per]
	}
	return out, total
}

// newCoreAggregator builds a core-mode aggregator over members 0..n-1 that
// commits one node-0 object per epoch to backend.
func newCoreAggregator(backend store.Backend, members int) (*aggregate.Aggregator, error) {
	ids := make([]int, members)
	for i := range ids {
		ids[i] = i
	}
	return aggregate.New(aggregate.Config{
		Mode:    "core",
		Members: ids,
		Sink: &aggregate.StoreSink{
			Writer:     &core.DSFPersister{Backend: backend, Codec: dsf.None},
			ObjectName: func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e%64) },
			MemberAttr: "servers",
			Mode:       "core",
		},
	})
}

// benchMerge measures one merged epoch end to end: every member submits its
// contribution and the epoch commits through a file backend.
func benchMerge(members int) (benchRow, error) {
	parts, total := splitWorkload(members)
	return measure(fmt.Sprintf("aggregate_merge_m%d", members), total, func(b *testing.B) error {
		dir, err := os.MkdirTemp("", "damaris-agg-bench")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		backend, err := openFileStore(dir)
		if err != nil {
			return err
		}
		agg, err := newCoreAggregator(backend, members)
		if err != nil {
			return err
		}
		b.ResetTimer()
		chans := make([]<-chan error, members)
		for i := 0; i < b.N; i++ {
			for m := 0; m < members; m++ {
				chans[m] = agg.Submit(m, int64(i), parts[m])
			}
			for _, ch := range chans {
				if err := <-ch; err != nil {
					return err
				}
			}
		}
		b.StopTimer()
		for m := 0; m < members; m++ {
			agg.MemberDone(m)
		}
		return agg.Close()
	})
}

// mergeOnce submits epochs for every member concurrently, releasing the
// members in the given order, and returns the committed objects. The
// interleaving the fan-in ring sees varies with the order.
func mergeOnce(parts [][]*metadata.Entry, epochs int64, order []int) (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "damaris-agg-checks")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	backend, err := openFileStore(dir)
	if err != nil {
		return nil, err
	}
	agg, err := newCoreAggregator(backend, len(parts))
	if err != nil {
		return nil, err
	}
	starts := make([]chan struct{}, len(parts))
	for i := range starts {
		starts[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for m := range parts {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			<-starts[m]
			for e := int64(0); e < epochs; e++ {
				if err := <-agg.Submit(m, e, parts[m]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			agg.MemberDone(m)
		}(m)
	}
	for _, m := range order {
		close(starts[m])
	}
	wg.Wait()
	if err := agg.Close(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return readTree(dir)
}

// runAggSimCurves produces the aggregation-aware throughput curves over the
// paper's three simulated platforms.
func runAggSimCurves() ([]aggSimCurve, error) {
	var out []aggSimCurve
	for _, plat := range cluster.All() {
		for _, scale := range []int{8, 32} {
			cores := scale * plat.CoresPerNode
			if cores > plat.MaxCores {
				continue
			}
			for _, mode := range []string{"off", "core", "node"} {
				rs, err := iostrat.Phases("damaris", plat, iostrat.Options{
					Cores:            cores,
					Seed:             42,
					DedicatedPerNode: 2,
					AggregateMode:    mode,
				}, 3)
				if err != nil {
					return nil, err
				}
				out = append(out, aggSimCurve{
					Platform:      plat.Name,
					Mode:          mode,
					Cores:         cores,
					MeanBps:       stats.Mean(iostrat.AggregateBps(rs)),
					ClientSeconds: stats.Mean(iostrat.ClientSeconds(rs)),
				})
			}
		}
	}
	return out, nil
}

func measureAggregate() (aggMetrics, error) {
	var m aggMetrics
	for _, members := range []int{1, 2, 4} {
		r, err := benchMerge(members)
		if err != nil {
			return m, err
		}
		m.Benchmarks = append(m.Benchmarks, r)
	}

	// Arrival-order determinism on the real merge path: the same
	// contributions under different interleavings must commit byte-identical
	// objects, exactly one per epoch.
	const epochs = 3
	parts, _ := splitWorkload(4)
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	m.ArrivalOrders = len(orders)
	m.DeterministicObjects, m.OneObjectPerEpoch = true, true
	var ref map[string][]byte
	for _, order := range orders {
		objs, err := mergeOnce(parts, epochs, order)
		if err != nil {
			return m, err
		}
		m.OneObjectPerEpoch = m.OneObjectPerEpoch && len(objs) == epochs
		if ref == nil {
			ref = objs
		}
		for name, b := range ref {
			if !bytes.Equal(objs[name], b) {
				m.DeterministicObjects = false
			}
		}
	}

	base, err := benchPersist("persist_filestore", openFileStore)
	if err != nil {
		return m, err
	}
	off, err := benchPersist("persist_filestore_aggoff", openFileStore)
	if err != nil {
		return m, err
	}
	m.StoreAllocsPerOp, m.OffAllocsPerOp = base.AllocsPerOp, off.AllocsPerOp

	m.SimCurves, err = runAggSimCurves()
	return m, err
}

func aggregateGates(m aggMetrics) []gate {
	drift := m.OffAllocsPerOp - m.StoreAllocsPerOp
	if drift < 0 {
		drift = -drift
	}
	return []gate{
		isTrue("deterministic_objects", m.DeterministicObjects),
		isTrue("one_object_per_epoch", m.OneObjectPerEpoch),
		// 25% of the baseline plus 16 allocs of slack.
		atMost("aggregate_off_alloc_drift", drift, int64(float64(m.StoreAllocsPerOp)*0.25)+16),
	}
}
