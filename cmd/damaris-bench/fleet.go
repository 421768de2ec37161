package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/obs"
	"damaris/internal/store"
)

// obsFederation is the pure-merge half of the fleet gates: Federate over a
// fixed source set must be cheap (bounded allocs per output sample), byte
// deterministic under shuffled source order, and exposition-clean.
type obsFederation struct {
	Sources              int     `json:"sources"`
	Samples              int     `json:"samples"`
	MergeAllocsPerOp     float64 `json:"merge_allocs_per_op"`
	MergeAllocsPerSample float64 `json:"merge_allocs_per_sample"`
	OrderStable          bool    `json:"order_stable"`
	CheckClean           bool    `json:"check_clean"`
}

// obsFleet is the live aggregated-run half: a two-node mode="node" run whose
// shared plane serves /fleet/metrics, /epochs and /readyz while per-rank
// registries federate in-process.
type obsFleet struct {
	Epochs         int  `json:"epochs"`
	FleetBytes     int  `json:"fleet_bytes"`
	OrderStable    bool `json:"order_stable"`
	CheckClean     bool `json:"check_clean"`
	CounterSamples int  `json:"counter_samples"`
	CountersSummed bool `json:"counters_summed"`
	EpochsComplete bool `json:"epochs_complete"`
	ForwardSpans   int  `json:"forward_spans"`
	FanAckSpans    int  `json:"fanack_spans"`
	CrossRankOrig  bool `json:"cross_rank_origins"`
	Ready          bool `json:"ready_after_quiesce"`
}

// obsBrownout is the critical-path attribution gate: a mode="core" run with
// one node's object commits browned out; /epochs must blame the persist
// stage and a dedicated core of the browned node for every epoch.
type obsBrownout struct {
	Epochs          int            `json:"epochs"`
	BrownedServers  []int          `json:"browned_servers"`
	DominantStages  map[string]int `json:"dominant_stages"`
	SlowestOrigins  map[string]int `json:"slowest_origins"`
	PersistDominant bool           `json:"persist_dominant"`
	SlowestBrowned  bool           `json:"slowest_on_browned"`
}

// federationAllocsPerSampleBound bounds the merge path. Federate is a
// per-scrape string-keyed fold over every input sample (label keys, fold
// map, per-rank label copies), so the budget is per output sample and well
// above zero — ~17 measured; the gate catches the merge going accidentally
// quadratic or per-byte, not a missing fast path. The record paths stay
// 0-alloc; only rendering pays this.
const federationAllocsPerSampleBound = 24.0

// Fleet-run topology: two nodes of (1 client + 1 dedicated core), cross-node
// aggregation. Servers are world ranks 1 and 3; the lowest node's leader
// (rank 1) hosts the global tier.
const (
	fleetRanks     = 4
	fleetCoresPer  = 2
	fleetSteps     = 8
	fleetGlobal    = 1
	fleetForwarder = 3
)

// Brownout-run topology: two nodes of (2 clients + 2 dedicated cores),
// core-mode aggregation — each node's leader (ranks 2 and 6) commits one
// node%04d object per epoch. Node 1's commits are delayed, so its dedicated
// cores (6, 7) must surface as the critical path.
const (
	brownRanks    = 8
	brownCoresPer = 4
	brownSteps    = 6
	// Large enough that scheduler jitter (worker pickup latency under the
	// race detector on a loaded box can reach tens of ms) cannot rival the
	// injected delay in any epoch's stage totals.
	brownDelay = 150 * time.Millisecond
)

var brownedServers = []int{6, 7}

// fedBenchSources builds a deterministic multi-rank source set exercising
// every merge op: shared and disjoint counters, per-rank gauges, a shared
// histogram, so the alloc figure covers sum, min/max rollup and per-rank
// labeling paths.
func fedBenchSources(ranks int) []obs.FedSource {
	out := make([]obs.FedSource, ranks)
	for r := 0; r < ranks; r++ {
		reg := obs.NewRegistry()
		reg.Counter("fleet_bench_events_total").Add(int64(100 * (r + 1)))
		reg.Counter("fleet_bench_rank_total", "server", fmt.Sprint(r)).Add(int64(r + 1))
		reg.Gauge("fleet_bench_depth").Set(int64(r + 3))
		h := reg.Histogram("fleet_bench_seconds", obs.DefaultDurationBuckets())
		for i := 0; i < 100; i++ {
			h.Observe(1e-5 * float64(1+(i*7+r)%200))
		}
		out[r] = obs.FedSource{Rank: fmt.Sprint(r), Samples: reg.Gather()}
	}
	return out
}

// benchFederation measures and checks the pure merge. measureAllocs is off
// under the race detector, whose instrumentation would inflate the figure.
func benchFederation(measureAllocs bool) obsFederation {
	const ranks = 6
	sources := fedBenchSources(ranks)
	merged := obs.Federate(sources)
	fd := obsFederation{
		Sources:    ranks,
		Samples:    len(merged),
		CheckClean: obs.CheckSamples(merged) == nil,
	}
	if measureAllocs && len(merged) > 0 {
		fd.MergeAllocsPerOp = testing.AllocsPerRun(200, func() {
			obs.Federate(sources)
		})
		fd.MergeAllocsPerSample = fd.MergeAllocsPerOp / float64(len(merged))
	}

	// Byte determinism under shuffled scrape arrival: render the canonical
	// order against a handful of deterministic permutations.
	var canon bytes.Buffer
	if err := obs.WriteSamples(&canon, merged); err != nil {
		return fd
	}
	fd.OrderStable = true
	perm := append([]obs.FedSource(nil), sources...)
	for trial := 0; trial < 5; trial++ {
		for i := range perm {
			j := (i*(trial+3) + trial) % len(perm)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var buf bytes.Buffer
		if err := obs.WriteSamples(&buf, obs.Federate(perm)); err != nil ||
			!bytes.Equal(buf.Bytes(), canon.Bytes()) {
			fd.OrderStable = false
		}
	}
	return fd
}

func gateFederation(fd obsFederation) []gate {
	return []gate{
		atMost("federation_allocs_per_sample", fd.MergeAllocsPerSample, federationAllocsPerSampleBound),
		isTrue("federation_order_stable", fd.OrderStable),
		isTrue("federation_check_clean", fd.CheckClean),
	}
}

// runObsFleet executes the two-node aggregated run and scrapes its fleet
// view: per-rank registries federate in-process on the shared plane, and the
// gates below hold the merged exposition to the per-rank scrapes.
func runObsFleet() (obsFleet, error) {
	var fl obsFleet
	plane := obs.NewPlane(1 << 16)
	fleet := obs.NewFederator()
	plane.SetFederator(fleet)

	backendDir, err := os.MkdirTemp("", "damaris-fleet-store")
	if err != nil {
		return fl, err
	}
	defer os.RemoveAll(backendDir)
	backend, err := store.NewObjStore(backendDir, store.Options{})
	if err != nil {
		return fl, err
	}
	defer backend.Close()

	rankRegs := map[int]*obs.Registry{}
	var mu sync.Mutex
	_, _, err = deployment{
		ranks: fleetRanks, coresPerNode: fleetCoresPer, dedicated: 1,
		steps: fleetSteps, outputEvery: 1, backend: backend, plane: plane,
		mutate: func(cfg *config.Config) {
			cfg.AggregateMode = "node"
			cfg.PersistQueueDepth = 2
		},
		onServer: func(rank int, srv *core.Server) {
			reg := obs.NewRegistry()
			srv.RegisterObs(reg)
			mu.Lock()
			rankRegs[rank] = reg
			mu.Unlock()
			fleet.AddRegistry(fmt.Sprint(rank), reg)
		},
	}.run()
	if err != nil {
		return fl, err
	}
	fl.Epochs = fleetSteps

	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	fleetProm, err := fetch(srv.URL, "/fleet/metrics")
	if err != nil {
		return fl, err
	}
	fl.FleetBytes = len(fleetProm)
	fl.CheckClean = obs.CheckSamples(fleet.Gather()) == nil

	// A second federator over the same quiesced registries, sources added in
	// the opposite order: the rendering must not care which scrape arrived
	// first.
	serverRanks := make([]int, 0, len(rankRegs))
	for r := range rankRegs {
		serverRanks = append(serverRanks, r)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(serverRanks)))
	rev := obs.NewFederator()
	for _, r := range serverRanks {
		rev.AddRegistry(fmt.Sprint(r), rankRegs[r])
	}
	var revBuf bytes.Buffer
	if err := rev.WritePrometheus(&revBuf); err != nil {
		return fl, err
	}
	fl.OrderStable = bytes.Equal(revBuf.Bytes(), fleetProm)

	// Fleet counters must equal the sum of the per-rank scrapes byte for
	// byte (formatted the way the exposition formats them).
	body, err := fetch(srv.URL, "/fleet/metrics.json")
	if err != nil {
		return fl, err
	}
	var fleetDoc obs.MetricsDoc
	if err := json.Unmarshal(body, &fleetDoc); err != nil {
		return fl, fmt.Errorf("fleet JSON: %w", err)
	}
	rankDocs := make([][]obs.MetricJSON, 0, len(rankRegs))
	for _, reg := range rankRegs {
		rankDocs = append(rankDocs, reg.GatherJSON())
	}
	fl.CountersSummed = true
	for _, m := range fleetDoc.Metrics {
		if m.Kind != "counter" {
			continue
		}
		fl.CounterSamples++
		var sum float64
		for _, doc := range rankDocs {
			for _, rm := range doc {
				if rm.Name == m.Name && reflect.DeepEqual(rm.Labels, m.Labels) {
					sum += rm.Value
				}
			}
		}
		if strconv.FormatFloat(sum, 'g', -1, 64) != strconv.FormatFloat(m.Value, 'g', -1, 64) {
			fl.CountersSummed = false
		}
	}

	// /epochs names a dominant stage and a slowest origin for every epoch.
	body, err = fetch(srv.URL, "/epochs")
	if err != nil {
		return fl, err
	}
	var reports []obs.EpochReport
	if err := json.Unmarshal(body, &reports); err != nil {
		return fl, fmt.Errorf("epochs JSON: %w", err)
	}
	seen := map[int64]bool{}
	fl.EpochsComplete = true
	for _, r := range reports {
		if r.DominantStage == "" || r.SlowestOrigin < 0 {
			fl.EpochsComplete = false
		}
		seen[r.Epoch] = true
	}
	for e := int64(0); e < fleetSteps; e++ {
		if !seen[e] {
			fl.EpochsComplete = false
		}
	}

	// Cross-rank wire legs: one forward per remote leader per epoch on the
	// global host, one fanack back on the forwarder.
	fl.CrossRankOrig = true
	for _, sp := range plane.Tracer().Snapshot() {
		switch sp.Stage {
		case obs.StageForward:
			fl.ForwardSpans++
			if sp.Server != fleetGlobal || sp.Origin != fleetForwarder {
				fl.CrossRankOrig = false
			}
		case obs.StageFanAck:
			fl.FanAckSpans++
			if sp.Server != fleetForwarder || sp.Origin != fleetGlobal {
				fl.CrossRankOrig = false
			}
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		return fl, err
	}
	resp.Body.Close()
	fl.Ready = resp.StatusCode == 200
	return fl, nil
}

func gateFleet(fl obsFleet) []gate {
	return []gate{
		isTrue("fleet_order_stable", fl.OrderStable),
		isTrue("fleet_check_clean", fl.CheckClean),
		isTrue("fleet_counters_summed", fl.CountersSummed),
		atLeast("fleet_counter_samples", fl.CounterSamples, 1),
		isTrue("fleet_epochs_complete", fl.EpochsComplete),
		equal("fleet_forward_spans", fl.ForwardSpans, fleetSteps),
		equal("fleet_fanack_spans", fl.FanAckSpans, fleetSteps),
		isTrue("fleet_cross_rank_origins", fl.CrossRankOrig),
		isTrue("fleet_ready_after_quiesce", fl.Ready),
	}
}

// runObsBrownout executes the core-mode run with node 1's object commits
// delayed and asks the epoch analyzer who is slow. The delay rides the
// commit hook of node0001_* objects only, so the answer is deterministic:
// the persist stage, on node 1's dedicated cores.
func runObsBrownout() (obsBrownout, error) {
	br := obsBrownout{
		BrownedServers: brownedServers,
		DominantStages: map[string]int{},
		SlowestOrigins: map[string]int{},
	}
	plane := obs.NewPlane(1 << 16)

	backendDir, err := os.MkdirTemp("", "damaris-brownout-store")
	if err != nil {
		return br, err
	}
	defer os.RemoveAll(backendDir)
	fault := store.FaultFunc(func(op, name string) error {
		if op == store.OpCommit && strings.HasPrefix(name, "node0001") {
			time.Sleep(brownDelay)
		}
		return nil
	})
	backend, err := store.NewObjStore(backendDir, store.Options{Fault: fault})
	if err != nil {
		return br, err
	}
	defer backend.Close()

	_, _, err = deployment{
		ranks: brownRanks, coresPerNode: brownCoresPer, dedicated: 2,
		steps: brownSteps, outputEvery: 1, backend: backend, plane: plane,
		// The queue keeps the runner's depth of 1, so the flow window is one
		// iteration: with a deeper queue the commit delay shows up as queue
		// wait on the *next* epoch and the attribution smears across
		// stages; at depth 1 every browned epoch's time sits squarely in
		// persist.
		mutate: func(cfg *config.Config) { cfg.AggregateMode = "core" },
		// A compute phase longer than the injected commit delay: iteration
		// N+1 then never queues behind N's browned commit, so each epoch's
		// delay lands in its own persist stage instead of smearing into the
		// next epoch's queue wait. The barrier keeps the clients in
		// lockstep: the write-stage span measures first-write-arrival to
		// iteration-complete, and without it the pauses drift apart until
		// client skew rivals brownDelay.
		pause: 2 * brownDelay,
	}.run()
	if err != nil {
		return br, err
	}

	reports := obs.AnalyzeEpochs(plane.Tracer().Snapshot())
	br.Epochs = len(reports)
	browned := map[int]bool{}
	for _, r := range brownedServers {
		browned[r] = true
	}
	br.PersistDominant = len(reports) > 0
	br.SlowestBrowned = len(reports) > 0
	for _, r := range reports {
		br.DominantStages[r.DominantStage]++
		br.SlowestOrigins[strconv.Itoa(r.SlowestOrigin)]++
		if r.DominantStage != "persist" {
			br.PersistDominant = false
		}
		if !browned[r.SlowestOrigin] {
			br.SlowestBrowned = false
		}
	}
	return br, nil
}

func gateBrownout(br obsBrownout) []gate {
	return []gate{
		atLeast("brownout_epochs", br.Epochs, brownSteps),
		isTrue("brownout_persist_dominant", br.PersistDominant),
		isTrue("brownout_slowest_on_browned", br.SlowestBrowned),
	}
}
