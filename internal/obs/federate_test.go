package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"damaris/internal/leakcheck"
	"damaris/internal/stats"
)

// fedTestRegistry builds one rank's registry: a shared unlabeled counter
// (summed across ranks), a per-rank-labeled counter (disjoint series), a
// gauge (per-rank series + rollups), a histogram on shared bounds
// (bucket-wise sum) and a summary collector with a raw quantile series
// (per-rank quantiles, merged extremes).
func fedTestRegistry(rank int, obsCount int) *Registry {
	reg := NewRegistry()
	reg.Counter("test_shared_total").Add(int64(100 * (rank + 1)))
	reg.Counter("test_ops_total", "server", fmt.Sprint(rank)).Add(int64(10 + rank))
	reg.Gauge("test_depth").Set(int64(rank + 3))
	h := reg.Histogram("test_lat_seconds", DefaultDurationBuckets())
	rng := rand.New(rand.NewSource(int64(rank + 1)))
	for i := 0; i < obsCount; i++ {
		h.Observe(rng.Float64() / 100)
	}
	reg.Collect(func(e *Emitter) {
		s := stats.Summarize([]float64{
			0.001 * float64(rank+1), 0.002 * float64(rank+1), 0.004 * float64(rank+1),
		})
		e.Summary("test_write_seconds", s)
		// Emitter.Summary exports no quantiles, but a remote scrape may
		// still carry one: feed it raw.
		e.add(KindSummary, "test_write_seconds", s.Median, []string{"quantile", "0.5"})
	})
	return reg
}

func fedTestSources(n, obsCount int) []FedSource {
	out := make([]FedSource, n)
	for r := 0; r < n; r++ {
		out[r] = FedSource{Rank: fmt.Sprint(r), Samples: fedTestRegistry(r, obsCount).Gather()}
	}
	return out
}

// The tentpole determinism invariant: federated exposition is byte-identical
// regardless of the order scrapes arrive in, and clean under the same
// collision scan a single registry must pass.
func TestFederateShuffledOrderByteIdentical(t *testing.T) {
	sources := fedTestSources(5, 200)
	var want bytes.Buffer
	if err := WriteSamples(&want, Federate(sources)); err != nil {
		t.Fatal(err)
	}
	if err := CheckSamples(Federate(sources)); err != nil {
		t.Fatalf("federated output fails exposition check: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]FedSource(nil), sources...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var got bytes.Buffer
		if err := WriteSamples(&got, Federate(shuffled)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: shuffled scrape order changed federated bytes", trial)
		}
	}
}

func fedValue(t *testing.T, samples []Sample, name string, labels ...string) float64 {
	t.Helper()
	key := labelKey(sortLabels(labels))
	for _, s := range samples {
		if s.Name == name && labelKey(s.Labels) == key {
			return s.Value
		}
	}
	t.Fatalf("sample %s%v not in federated output", name, labels)
	return 0
}

// The merge algebra itself: counters sum, histogram series sum bucket-wise
// with min/max extremes, gauges become per-rank series plus rollups,
// summary quantiles stay per-rank while their companions merge.
func TestFederateMergeSemantics(t *testing.T) {
	sources := fedTestSources(3, 50)
	fed := Federate(sources)

	if got := fedValue(t, fed, "test_shared_total"); got != 100+200+300 {
		t.Errorf("shared counter sum = %v, want 600", got)
	}
	for r := 0; r < 3; r++ {
		if got := fedValue(t, fed, "test_ops_total", "server", fmt.Sprint(r)); got != float64(10+r) {
			t.Errorf("disjoint counter rank %d = %v, want %d", r, got, 10+r)
		}
		if got := fedValue(t, fed, "test_depth", FedRankLabel, fmt.Sprint(r)); got != float64(r+3) {
			t.Errorf("per-rank gauge rank %d = %v, want %d", r, got, r+3)
		}
	}
	if got := fedValue(t, fed, "test_depth_min"); got != 3 {
		t.Errorf("gauge min rollup = %v, want 3", got)
	}
	if got := fedValue(t, fed, "test_depth_max"); got != 5 {
		t.Errorf("gauge max rollup = %v, want 5", got)
	}

	// Histogram: every series (each bucket, count, sum) is the exact sum of
	// the per-rank series; min/max take fleet extremes.
	var perRank [3][]Sample
	for r := range perRank {
		perRank[r] = sources[r].Samples
	}
	sumOf := func(name string, labels ...string) float64 {
		var total float64
		key := labelKey(sortLabels(labels))
		for r := range perRank {
			for _, s := range perRank[r] {
				if s.Name == name && labelKey(s.Labels) == key {
					total += s.Value
				}
			}
		}
		return total
	}
	if got, want := fedValue(t, fed, "test_lat_seconds_count"), sumOf("test_lat_seconds_count"); got != want {
		t.Errorf("histogram count = %v, want %v", got, want)
	}
	if got, want := fedValue(t, fed, "test_lat_seconds_sum"), sumOf("test_lat_seconds_sum"); got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	for _, s := range fed {
		if s.Name != "test_lat_seconds_bucket" {
			continue
		}
		if want := sumOf(s.Name, s.Labels...); s.Value != want {
			t.Errorf("bucket %v = %v, want %v", s.Labels, s.Value, want)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := range perRank {
		for _, s := range perRank[r] {
			if s.Name == "test_lat_seconds_min" && s.Value < lo {
				lo = s.Value
			}
			if s.Name == "test_lat_seconds_max" && s.Value > hi {
				hi = s.Value
			}
		}
	}
	if got := fedValue(t, fed, "test_lat_seconds_min"); got != lo {
		t.Errorf("histogram min = %v, want %v", got, lo)
	}
	if got := fedValue(t, fed, "test_lat_seconds_max"); got != hi {
		t.Errorf("histogram max = %v, want %v", got, hi)
	}

	// Summary: per-rank quantile series, merged count.
	for r := 0; r < 3; r++ {
		fedValue(t, fed, "test_write_seconds", "quantile", "0.5", FedRankLabel, fmt.Sprint(r))
	}
	if got := fedValue(t, fed, "test_write_seconds_count"); got != 9 {
		t.Errorf("summary count = %v, want 9", got)
	}
	if got := fedValue(t, fed, "test_write_seconds_min"); got != 0.001 {
		t.Errorf("summary min = %v, want 0.001", got)
	}
	if got := fedValue(t, fed, "test_write_seconds_max"); got != 0.012 {
		t.Errorf("summary max = %v, want 0.012", got)
	}
}

// splitByLabel turns one registry's server-labelled series into per-rank
// sources (label removed) and passes the rest through unchanged; federating
// the split sums a counter across servers.
func TestSplitByLabel(t *testing.T) {
	samples := []Sample{
		{Name: "ops_total", Labels: []string{"op", "put", "server", "2"}, Kind: KindCounter, Value: 3},
		{Name: "ops_total", Labels: []string{"op", "put", "server", "10"}, Kind: KindCounter, Value: 4},
		{Name: "slots", Kind: KindGauge, Value: 8},
	}
	srcs, rest := splitByLabel(samples, "server")
	if len(srcs) != 2 || srcs[0].Rank != "2" || srcs[1].Rank != "10" {
		t.Fatalf("sources = %+v", srcs)
	}
	if got := srcs[1].Samples[0].Labels; len(got) != 2 || got[0] != "op" || got[1] != "put" {
		t.Errorf("split labels = %v, want [op put]", got)
	}
	if samples[0].Labels[3] != "2" {
		t.Errorf("split mutated its input: %v", samples[0].Labels)
	}
	if len(rest) != 1 || rest[0].Name != "slots" {
		t.Errorf("rest = %+v", rest)
	}
	if got := fedValue(t, Federate(srcs), "ops_total", "op", "put"); got != 7 {
		t.Errorf("federated split = %v, want 7", got)
	}
}

// Rollup folds the server-labelled series into node-set totals — counters
// add, summary extremes hold, gauges keep only their _min/_max — and passes
// the unlabelled series through, all in exposition order.
func TestRollup(t *testing.T) {
	samples := []Sample{
		{Name: "puts_total", Kind: KindCounter, Value: 12},
		{Name: "ops_total", Labels: []string{"server", "2"}, Kind: KindCounter, Value: 3},
		{Name: "ops_total", Labels: []string{"server", "10"}, Kind: KindCounter, Value: 4},
		{Name: "lat_seconds_max", Labels: []string{"server", "2"}, Kind: KindSummary, Value: 0.5},
		{Name: "lat_seconds_max", Labels: []string{"server", "10"}, Kind: KindSummary, Value: 0.9},
		{Name: "depth", Labels: []string{"server", "2"}, Kind: KindGauge, Value: 1},
		{Name: "depth", Labels: []string{"server", "10"}, Kind: KindGauge, Value: 5},
	}
	got := Rollup(samples, "server")
	var names []string
	for _, s := range got {
		if len(s.Labels) != 0 {
			t.Errorf("%s kept labels %v", s.Name, s.Labels)
		}
		names = append(names, s.Name)
	}
	if want := "depth_max depth_min lat_seconds_max ops_total puts_total"; strings.Join(names, " ") != want {
		t.Fatalf("rollup series = %q, want %q", strings.Join(names, " "), want)
	}
	for name, want := range map[string]float64{
		"depth_max": 5, "depth_min": 1, "lat_seconds_max": 0.9, "ops_total": 7, "puts_total": 12,
	} {
		if v := fedValue(t, got, name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

// A split registry is gathered once per fleet scrape however many label
// values it carries, and each value reads as its own source.
func TestFederatorSplitRegistryGathersOnce(t *testing.T) {
	reg := NewRegistry()
	gathers := 0
	reg.Collect(func(e *Emitter) {
		gathers++
		for _, id := range []string{"4", "8"} {
			e.Counter("ops_total", 2, "server", id)
		}
		e.Gauge("unlabelled", 1)
	})
	fed := NewFederator()
	fed.AddSplitRegistry("server", reg)
	out := fed.Gather()
	if gathers != 1 {
		t.Errorf("fleet gather ran the registry %d times, want 1", gathers)
	}
	if err := CheckSamples(out); err != nil {
		t.Fatalf("split fleet view not exposable: %v", err)
	}
	if got := fedValue(t, out, "damaris_fleet_sources"); got != 2 {
		t.Errorf("fleet sources = %v, want 2", got)
	}
	for _, rank := range []string{"4", "8"} {
		if got := fedValue(t, out, "damaris_fleet_source_up", FedRankLabel, rank); got != 1 {
			t.Errorf("source up[%s] = %v, want 1", rank, got)
		}
	}
	if got := fedValue(t, out, "ops_total"); got != 4 {
		t.Errorf("ops_total = %v, want 4", got)
	}
	for _, s := range out {
		if s.Name == "unlabelled" {
			t.Errorf("series without the split label reached the fleet view: %+v", s)
		}
	}
}

// Counter and histogram merges are associative: federating an already
// federated subset with the remainder equals federating everything at once.
// (Gauge and quantile series are per-rank by design, so associativity is
// scoped to the summing/extreme kinds — filter to those.)
func TestFederateAssociativeForSummedKinds(t *testing.T) {
	summed := func(samples []Sample) []Sample {
		var out []Sample
		for _, s := range samples {
			if opFor(s) != opPerRank {
				out = append(out, s)
			}
		}
		return out
	}
	sources := fedTestSources(4, 100)
	all := summed(Federate(sources))

	ab := Federate(sources[:2])
	regrouped := Federate([]FedSource{
		{Rank: "ab", Samples: summed(ab)},
		sources[2],
		sources[3],
	})
	got := summed(regrouped)
	if len(got) != len(all) {
		t.Fatalf("regrouped federation has %d summed samples, want %d", len(got), len(all))
	}
	for i := range all {
		if all[i].Name != got[i].Name || labelKey(all[i].Labels) != labelKey(got[i].Labels) || all[i].Value != got[i].Value {
			t.Fatalf("sample %d: regrouped %v=%v differs from flat %v=%v",
				i, got[i].Name, got[i].Value, all[i].Name, all[i].Value)
		}
	}
}

// Concurrent observes while the federator gathers, under -race: the merge
// must stay clean, and once the writers quiesce two gathers must render
// byte-identically.
func TestFederatorConcurrentObserves(t *testing.T) {
	leakcheck.Check(t)
	fed := NewFederator()
	regs := make([]*Registry, 4)
	for r := range regs {
		regs[r] = NewRegistry()
		fed.AddRegistry(fmt.Sprint(r), regs[r])
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r, reg := range regs {
		wg.Add(1)
		go func(r int, reg *Registry) {
			defer wg.Done()
			c := reg.Counter("test_conc_total")
			h := reg.Histogram("test_conc_seconds", DefaultDurationBuckets())
			g := reg.Gauge("test_conc_depth")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%10) / 1e4)
				g.Set(int64(i % 7))
			}
		}(r, reg)
	}
	for i := 0; i < 20; i++ {
		if err := CheckSamples(fed.Gather()); err != nil {
			t.Fatalf("mid-flight federated gather not exposable: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	var a, b bytes.Buffer
	if err := fed.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := fed.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("quiesced federated exposition not byte-stable")
	}
}

// A dead source degrades the fleet view (up=0, no samples) instead of
// blanking it, and an HTTP source round-trips through /metrics.json.
func TestFederatorSourcesAndMeta(t *testing.T) {
	reg := fedTestRegistry(0, 20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.json" {
			http.NotFound(w, r)
			return
		}
		reg.WriteJSON(w)
	}))
	defer srv.Close()

	fed := NewFederator()
	fed.AddRegistry("0", fedTestRegistry(1, 20))
	fed.AddURL("1", srv.URL)
	fed.AddFunc("2", func() ([]Sample, error) { return nil, fmt.Errorf("replica down") })
	if fed.Sources() != 3 {
		t.Fatalf("sources = %d, want 3", fed.Sources())
	}

	out := fed.Gather()
	if err := CheckSamples(out); err != nil {
		t.Fatalf("federated output with meta series not exposable: %v", err)
	}
	if got := fedValue(t, out, "damaris_fleet_sources"); got != 3 {
		t.Errorf("fleet sources = %v, want 3", got)
	}
	for rank, want := range map[string]float64{"0": 1, "1": 1, "2": 0} {
		if got := fedValue(t, out, "damaris_fleet_source_up", FedRankLabel, rank); got != want {
			t.Errorf("source up[%s] = %v, want %v", rank, got, want)
		}
	}
	// The scraped source contributed real samples: the shared counter sums
	// the in-process rank (rank 1's registry: 200) and the HTTP rank
	// (rank 0's registry: 100).
	if got := fedValue(t, out, "test_shared_total"); got != 300 {
		t.Errorf("shared counter across in-process + HTTP sources = %v, want 300", got)
	}

	// A nil federator and an empty one are inert but serve.
	var nilFed *Federator
	if nilFed.Gather() != nil || nilFed.Sources() != 0 {
		t.Error("nil federator not inert")
	}
	nilFed.AddFunc("x", func() ([]Sample, error) { return nil, nil })
	nilFed.AddURL("y", "http://unused.invalid")
}

func TestSamplesFromJSONRoundTrip(t *testing.T) {
	samples := fedTestRegistry(2, 30).Gather()
	back, err := SamplesFromJSON(SamplesJSON(samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(samples) {
		t.Fatalf("round trip lost samples: %d -> %d", len(samples), len(back))
	}
	for i := range samples {
		a, b := samples[i], back[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.Value != b.Value || labelKey(a.Labels) != labelKey(b.Labels) {
			t.Fatalf("sample %d changed in round trip: %+v -> %+v", i, a, b)
		}
	}
	if _, err := SamplesFromJSON([]MetricJSON{{Name: "x", Kind: "banana"}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
