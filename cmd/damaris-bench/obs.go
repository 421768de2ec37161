package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/obs"
)

// obsAllocs are the observe-path allocation figures BENCH_obs.json gates on:
// every one of them must be zero, or telemetry is perturbing the pipeline it
// measures.
type obsAllocs struct {
	CounterIncPerOp   float64 `json:"counter_inc_allocs_per_op"`
	GaugeSetPerOp     float64 `json:"gauge_set_allocs_per_op"`
	HistogramObsPerOp float64 `json:"histogram_observe_allocs_per_op"`
	TracerRecordPerOp float64 `json:"tracer_record_allocs_per_op"`
}

// obsPersistOverhead compares the DSF persist hot path with tracing off and
// on; the ratio gate bounds the cost of the span instrumentation.
type obsPersistOverhead struct {
	AllocsOff  int64   `json:"allocs_per_op_off"`
	AllocsOn   int64   `json:"allocs_per_op_on"`
	AllocRatio float64 `json:"alloc_ratio"`
	NsPerOpOff int64   `json:"ns_per_op_off"`
	NsPerOpOn  int64   `json:"ns_per_op_on"`
}

// obsLive is the end-to-end half of the report: a real brownout+spill run
// scraped over HTTP while its telemetry plane is attached.
type obsLive struct {
	Spilled            int64 `json:"spilled"`
	DegradedDecisions  int64 `json:"degraded_decisions"`
	ExpositionClean    bool  `json:"exposition_clean"`
	PrometheusBytes    int   `json:"prometheus_bytes"`
	PrometheusStable   bool  `json:"prometheus_stable"`
	PrometheusFamilies bool  `json:"prometheus_families"`
	JSONMetrics        int   `json:"json_metrics"`
	SpillMetricLive    bool  `json:"spill_metric_live"`
	TraceSpans         int   `json:"trace_spans"`
	SpillSpans         int   `json:"spill_spans"`
	PersistSpans       int   `json:"persist_spans"`
	ChromeEvents       int   `json:"chrome_events"`
	JitterStages       int   `json:"jitter_stages"`
	JitterExact        bool  `json:"jitter_exact"`
}

// obsMetrics is the obs suite's report.
type obsMetrics struct {
	Allocs           obsAllocs          `json:"allocs"`
	ExpositionStable bool               `json:"exposition_stable"`
	ExpositionBytes  int                `json:"exposition_bytes"`
	Persist          obsPersistOverhead `json:"persist_overhead"`
	Live             obsLive            `json:"live"`
	Federation       obsFederation      `json:"federation"`
	Fleet            obsFleet           `json:"fleet"`
	Brownout         obsBrownout        `json:"brownout_attribution"`
}

// persistAllocRatioBound bounds the tracing-on persist allocation overhead.
const persistAllocRatioBound = 1.10

// benchObsAllocs measures the observe paths with testing.AllocsPerRun.
func benchObsAllocs() obsAllocs {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_events_total")
	g := reg.Gauge("bench_depth")
	h := obs.NewHistogram(obs.DefaultDurationBuckets())
	tr := obs.NewTracer(1 << 10)
	start := time.Now()
	x := 1e-4
	return obsAllocs{
		CounterIncPerOp: testing.AllocsPerRun(1000, func() { c.Inc() }),
		GaugeSetPerOp:   testing.AllocsPerRun(1000, func() { g.Set(7) }),
		HistogramObsPerOp: testing.AllocsPerRun(1000, func() {
			h.Observe(x)
			x += 1e-6
		}),
		TracerRecordPerOp: testing.AllocsPerRun(1000, func() {
			tr.Record(obs.StagePersist, 3, 42, start, time.Millisecond, 4096, false)
		}),
	}
}

// obsExpositionFeed drives one registry with a fixed observation multiset
// under a seed-dependent shard assignment and interleaving. Two feeds with
// different seeds produce wildly different schedules over the same multiset;
// the fixed-point histogram sums make the rendered bytes identical anyway.
func obsExpositionFeed(reg *obs.Registry, seed int64) {
	const n = 20000
	const workers = 8
	h := reg.Histogram("bench_latency_seconds", obs.DefaultDurationBuckets())
	c := reg.Counter("bench_samples_total")
	// The permutation decides which goroutine observes which sample, and in
	// what order — seed-dependent scheduling over a seed-independent multiset.
	order := rand.New(rand.NewSource(seed)).Perm(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < n; j += workers {
				h.Observe(1e-6 * float64(1+order[j]))
				c.Inc()
			}
		}()
	}
	wg.Wait()
}

// checkExpositionStable renders two independently-built, differently
// interleaved registries and compares bytes.
func checkExpositionStable() (bool, int) {
	var bufs [2]bytes.Buffer
	for i, seed := range []int64{1, 99} {
		reg := obs.NewRegistry()
		obsExpositionFeed(reg, seed)
		reg.WritePrometheus(&bufs[i])
	}
	return bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()), bufs[0].Len()
}

// benchPersistOverhead runs the DSF persist benchmark workload with the
// lifecycle tracer detached and attached.
func benchPersistOverhead() (obsPersistOverhead, error) {
	entries, total := persistWorkload()
	run := func(tr *obs.Tracer) (benchRow, error) {
		return measure("persist_shufflegzip", total, func(b *testing.B) error {
			dir, err := os.MkdirTemp("", "damaris-obs-bench")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			pers := &core.DSFPersister{Dir: dir, Codec: dsf.ShuffleGzip, GzipLevel: dsf.DefaultGzipLevel}
			pers.SetTracer(tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pers.Persist(int64(i%64), entries); err != nil {
					return err
				}
			}
			return nil
		})
	}
	off, err := run(nil)
	if err != nil {
		return obsPersistOverhead{}, err
	}
	on, err := run(obs.NewTracer(1 << 12))
	if err != nil {
		return obsPersistOverhead{}, err
	}
	res := obsPersistOverhead{
		AllocsOff:  off.AllocsPerOp,
		AllocsOn:   on.AllocsPerOp,
		NsPerOpOff: off.NsPerOp,
		NsPerOpOn:  on.NsPerOp,
	}
	if off.AllocsPerOp > 0 {
		res.AllocRatio = float64(on.AllocsPerOp) / float64(off.AllocsPerOp)
	} else if on.AllocsPerOp == 0 {
		res.AllocRatio = 1
	} else {
		res.AllocRatio = float64(on.AllocsPerOp)
	}
	return res, nil
}

// fetch GETs one path off the live server.
func fetch(base, path string) ([]byte, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// runObsLive repeats the resilience suite's brownout run with a telemetry
// plane attached and scrapes it over HTTP after the run quiesces:
// Prometheus text (twice — the bytes must repeat), the JSON exposition, the
// lifecycle trace in JSONL and Chrome forms, and the jitter document, which
// must match a direct JitterReport call exactly.
func runObsLive() (obsLive, error) {
	var live obsLive
	plane := obs.NewPlane(1 << 16)
	run, _, err := runSpill(brownoutFault(), plane)
	if err != nil {
		return live, err
	}
	live.Spilled = run.Spilled
	live.DegradedDecisions = run.DegradedDecisions

	// A scraper rejects the whole page on a duplicate series or a split
	// TYPE block, so a colliding family name must fail the bench, not the
	// first real scrape.
	live.ExpositionClean = plane.Registry().CheckExposition() == nil

	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	prom1, err := fetch(srv.URL, "/metrics")
	if err != nil {
		return live, err
	}
	prom2, err := fetch(srv.URL, "/metrics")
	if err != nil {
		return live, err
	}
	live.PrometheusBytes = len(prom1)
	live.PrometheusStable = bytes.Equal(prom1, prom2)
	live.PrometheusFamilies = bytes.Contains(prom1, []byte("damaris_spill_spilled_total")) &&
		bytes.Contains(prom1, []byte("damaris_stage_seconds_bucket"))

	body, err := fetch(srv.URL, "/v1/metrics")
	if err != nil {
		return live, err
	}
	var doc obs.MetricsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return live, fmt.Errorf("metrics JSON: %w", err)
	}
	live.JSONMetrics = len(doc.Metrics)
	var spilledScraped float64
	for _, m := range doc.Metrics {
		if m.Name == "damaris_spill_spilled_total" {
			spilledScraped += m.Value
		}
	}
	live.SpillMetricLive = int64(spilledScraped) == run.Spilled && run.Spilled > 0

	body, err = fetch(srv.URL, "/trace")
	if err != nil {
		return live, err
	}
	spans, err := obs.ReadSpansJSONL(bytes.NewReader(body))
	if err != nil {
		return live, fmt.Errorf("trace JSONL: %w", err)
	}
	live.TraceSpans = len(spans)
	for _, sp := range spans {
		switch sp.Stage {
		case obs.StageSpill:
			live.SpillSpans++
		case obs.StagePersist:
			live.PersistSpans++
		}
	}

	body, err = fetch(srv.URL, "/trace?format=chrome")
	if err != nil {
		return live, err
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		return live, fmt.Errorf("chrome trace: %w", err)
	}
	live.ChromeEvents = len(chrome.TraceEvents)

	body, err = fetch(srv.URL, "/jitter")
	if err != nil {
		return live, err
	}
	var scraped []obs.StageJitter
	if err := json.Unmarshal(body, &scraped); err != nil {
		return live, fmt.Errorf("jitter: %w", err)
	}
	direct := plane.JitterReport()
	live.JitterStages = len(scraped)
	live.JitterExact = reflect.DeepEqual(scraped, direct)
	return live, nil
}

// measureObs runs the telemetry-plane half — 0-alloc observe paths,
// byte-stable exposition under concurrency, bounded persist-path tracing
// overhead, a live scraped brownout run — and the fleet half: federation
// merge cost and scrape-order byte identity, a live two-node aggregated run
// whose /fleet/metrics counters must equal the sum of the per-rank scrapes,
// and a browned-out run the epoch analyzer must pin on the browned node.
func measureObs() (obsMetrics, error) {
	m := obsMetrics{Allocs: benchObsAllocs()}
	m.ExpositionStable, m.ExpositionBytes = checkExpositionStable()
	var err error
	if m.Persist, err = benchPersistOverhead(); err != nil {
		return m, err
	}
	if m.Live, err = runObsLive(); err != nil {
		return m, err
	}
	m.Federation = benchFederation(true)
	if m.Fleet, err = runObsFleet(); err != nil {
		return m, err
	}
	m.Brownout, err = runObsBrownout()
	return m, err
}

func obsGates(m obsMetrics) []gate {
	a, l := m.Allocs, m.Live
	gates := []gate{
		atMost("counter_inc_allocs_per_op", a.CounterIncPerOp, 0),
		atMost("gauge_set_allocs_per_op", a.GaugeSetPerOp, 0),
		atMost("histogram_observe_allocs_per_op", a.HistogramObsPerOp, 0),
		atMost("tracer_record_allocs_per_op", a.TracerRecordPerOp, 0),
		isTrue("exposition_stable", m.ExpositionStable),
		atMost("persist_trace_alloc_ratio", m.Persist.AllocRatio, persistAllocRatioBound),
		atLeast("live_spilled", l.Spilled, 1),
		atLeast("live_degraded_decisions", l.DegradedDecisions, 1),
		isTrue("live_exposition_clean", l.ExpositionClean),
		isTrue("prometheus_stable", l.PrometheusStable),
		isTrue("prometheus_families", l.PrometheusFamilies),
		isTrue("spill_metric_live", l.SpillMetricLive),
		atLeast("spill_spans", l.SpillSpans, 1),
		atLeast("persist_spans", l.PersistSpans, 1),
		atLeast("trace_spans", l.TraceSpans, 1),
		equal("chrome_events", l.ChromeEvents, l.TraceSpans),
		isTrue("jitter_exact", l.JitterExact),
		atLeast("jitter_stages", l.JitterStages, 1),
	}
	gates = append(gates, gateFederation(m.Federation)...)
	gates = append(gates, gateFleet(m.Fleet)...)
	return append(gates, gateBrownout(m.Brownout)...)
}
