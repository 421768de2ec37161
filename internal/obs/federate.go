package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric federation: merging the Sample sets of N per-rank (or per-replica)
// planes into one deterministic fleet view. The merge is pure sample
// algebra — no second set of counters — and is exact because every plane
// shares the same instrument semantics:
//
//   - counters sum;
//   - histogram series sum bucket-wise (`_bucket`, `_count`, `_sum`; the
//     fixed shared bucket bounds make the bucket merge exact, and the
//     fixed-point `_sum` makes the float addition order-free), while the
//     `_min`/`_max` companions take the fleet min/max;
//   - gauges are not summable across ranks (a queue depth of 3 on two
//     ranks is not a depth of 6), so each rank's value is kept as a
//     labeled per-rank series (label `rank`) and the fleet view adds
//     `<name>_min`/`<name>_max` gauge rollups;
//   - summary `_sum`/`_count` companions sum and `_min`/`_max` take fleet
//     extremes — Spread (max−min) stays exact fleet-wide. Emitter.Summary
//     exports no quantiles, but a remote scrape may still carry them and
//     they cannot be merged exactly, so quantile series stay per-rank.
//
// Determinism: sources are sorted by rank id before merging, so the output
// — and therefore the /fleet/metrics bytes — is identical regardless of
// the order scrapes arrive in. Rank ids must be unique per source;
// duplicates produce colliding per-rank series, which CheckSamples flags.

// FedRankLabel is the label key federation adds to per-rank series.
const FedRankLabel = "rank"

// FedSource is one plane's contribution to a federated merge: its rank id
// (a world rank, or a replica index for gateway fleets) and its gathered
// samples.
type FedSource struct {
	Rank    string
	Samples []Sample
}

type mergeOp uint8

const (
	opPerRank mergeOp = iota
	opSum
	opMin
	opMax
)

// opFor classifies one sample under the federation algebra.
func opFor(s Sample) mergeOp {
	switch s.Kind {
	case KindCounter:
		return opSum
	case KindHistogram:
		switch {
		case strings.HasSuffix(s.Name, "_min"):
			return opMin
		case strings.HasSuffix(s.Name, "_max"):
			return opMax
		}
		return opSum
	case KindSummary:
		if labelAt(s.Labels, "quantile") >= 0 {
			return opPerRank
		}
		switch {
		case strings.HasSuffix(s.Name, "_min"):
			return opMin
		case strings.HasSuffix(s.Name, "_max"):
			return opMax
		}
		return opSum
	default: // gauges and unknown kinds stay per-rank
		return opPerRank
	}
}

// labelAt returns the index of key in an alternating key/value label list,
// or -1 when the key is absent.
func labelAt(labels []string, key string) int {
	for i := 0; i+1 < len(labels); i += 2 {
		if labels[i] == key {
			return i
		}
	}
	return -1
}

// rankLess orders source ranks: numeric ids numerically (so rank 10 sorts
// after rank 2), everything else lexically, numeric before non-numeric.
func rankLess(a, b string) bool {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	switch {
	case aerr == nil && berr == nil:
		return ai < bi
	case aerr == nil:
		return true
	case berr == nil:
		return false
	}
	return a < b
}

// Federate merges the sample sets of N sources into one fleet sample set
// under the federation algebra documented above. The output is sorted in
// canonical (name, labels) exposition order and is a pure function of the
// source *set* — shuffling the input order cannot change a byte of the
// rendering.
func Federate(sources []FedSource) []Sample {
	srcs := append([]FedSource(nil), sources...)
	sort.SliceStable(srcs, func(i, j int) bool { return rankLess(srcs[i].Rank, srcs[j].Rank) })

	type acc struct {
		s  Sample
		op mergeOp
	}
	merged := make(map[string]*acc)
	fold := func(s Sample, op mergeOp) {
		key := s.Name + "\x01" + labelKey(s.Labels)
		a, ok := merged[key]
		if !ok {
			merged[key] = &acc{s: s, op: op}
			return
		}
		switch op {
		case opSum:
			a.s.Value += s.Value
		case opMin:
			if s.Value < a.s.Value {
				a.s.Value = s.Value
			}
		case opMax:
			if s.Value > a.s.Value {
				a.s.Value = s.Value
			}
		}
	}

	var out []Sample
	for _, src := range srcs {
		for _, s := range src.Samples {
			op := opFor(s)
			if op != opPerRank {
				fold(s, op)
				continue
			}
			ps := s
			ps.Labels = sortLabels(append(append(make([]string, 0, len(s.Labels)+2), s.Labels...),
				FedRankLabel, src.Rank))
			out = append(out, ps)
			if s.Kind == KindGauge {
				lo := Sample{Name: s.Name + "_min", Labels: s.Labels, Kind: KindGauge, Value: s.Value}
				hi := Sample{Name: s.Name + "_max", Labels: s.Labels, Kind: KindGauge, Value: s.Value}
				fold(lo, opMin)
				fold(hi, opMax)
			}
		}
	}
	for _, a := range merged {
		out = append(out, a.s)
	}
	// Every surviving (name, labels) pair is unique — per-rank series carry
	// the rank label, folded series are map-deduplicated — so this sort is
	// total and the output order is deterministic despite map iteration.
	sortSamples(out)
	return out
}

// splitByLabel partitions samples on one label key: every series carrying
// the key joins the source named by its value, with the label removed, and
// the series without it come back unchanged as rest. It turns one registry
// whose collectors label their series by server into the per-rank sources
// Federate merges. Sources keep first-seen order; Federate sorts them.
func splitByLabel(samples []Sample, key string) (sources []FedSource, rest []Sample) {
	idx := make(map[string]int)
	for _, s := range samples {
		at := labelAt(s.Labels, key)
		if at < 0 {
			rest = append(rest, s)
			continue
		}
		v := s.Labels[at+1]
		i, ok := idx[v]
		if !ok {
			i = len(sources)
			idx[v] = i
			sources = append(sources, FedSource{Rank: v})
		}
		s.Labels = append(append(make([]string, 0, len(s.Labels)-2), s.Labels[:at]...), s.Labels[at+2:]...)
		sources[i].Samples = append(sources[i].Samples, s)
	}
	return sources, rest
}

// Rollup folds the series carrying label key across its values under the
// federation algebra: counters and _sum/_count add, _min/_max take the
// extremes, and gauges keep only their _min/_max rollups (the per-value
// series are dropped). Series without the key pass through unchanged. The
// output is in canonical exposition order. It is how a registry whose
// collectors label their series by server reads as one node-set total.
func Rollup(samples []Sample, key string) []Sample {
	srcs, out := splitByLabel(samples, key)
	for _, s := range Federate(srcs) {
		if labelAt(s.Labels, FedRankLabel) < 0 {
			out = append(out, s)
		}
	}
	sortSamples(out)
	return out
}

// Federator gathers N sources (in-process registries, one registry split
// by label, custom gather functions, or remote /metrics.json scrapes) and
// serves their federated merge. Safe for concurrent use; sources are
// normally added during wiring but adding mid-serve is fine.
type Federator struct {
	mu      sync.Mutex
	sources []fedSource
	client  *http.Client
}

type fedSource struct {
	rank   string
	gather func() ([]Sample, error)
	split  string // non-empty: one source per value of this label
}

// NewFederator builds an empty federator.
func NewFederator() *Federator {
	return &Federator{client: &http.Client{Timeout: 5 * time.Second}}
}

// AddRegistry adds an in-process registry as a source — how single-binary
// runs federate their rank-local registries without any scraping.
func (f *Federator) AddRegistry(rank string, reg *Registry) {
	f.AddFunc(rank, func() ([]Sample, error) { return reg.Gather(), nil })
}

// AddSplitRegistry adds one in-process registry whose collectors label
// their series by key (a server id): each fleet gather gathers it once and
// splits it with splitByLabel, one source per label value, so N labelled
// collectors cost N per scrape. Series without the key are not part of the
// fleet view.
func (f *Federator) AddSplitRegistry(key string, reg *Registry) {
	f.add(fedSource{split: key, gather: func() ([]Sample, error) { return reg.Gather(), nil }})
}

// AddFunc adds a source backed by an arbitrary gather function.
func (f *Federator) AddFunc(rank string, gather func() ([]Sample, error)) {
	f.add(fedSource{rank: rank, gather: gather})
}

func (f *Federator) add(src fedSource) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.sources = append(f.sources, src)
	f.mu.Unlock()
}

// AddURL adds a remote plane scraped over HTTP: base is the peer's root
// (e.g. "http://host:port"); its /metrics.json document is parsed back
// into samples. How damaris-gate federates its replica set.
func (f *Federator) AddURL(rank, base string) {
	if f == nil {
		return
	}
	url := strings.TrimSuffix(base, "/") + "/metrics.json"
	f.AddFunc(rank, func() ([]Sample, error) {
		resp, err := f.client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("obs: scrape %s: %s", url, resp.Status)
		}
		var doc MetricsDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return nil, fmt.Errorf("obs: scrape %s: %w", url, err)
		}
		return SamplesFromJSON(doc.Metrics)
	})
}

// Sources returns the number of registered sources; a split registry
// counts once.
func (f *Federator) Sources() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sources)
}

// Gather collects every source and returns the federated sample set plus
// the fleet meta series: damaris_fleet_sources (how many sources the gather
// saw, a split registry counting one per label value) and
// damaris_fleet_source_up{rank} (1 if the source's gather succeeded). A
// failing source contributes up=0 and no samples — one dead replica
// degrades the fleet view instead of blanking it.
func (f *Federator) Gather() []Sample {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	sources := append([]fedSource(nil), f.sources...)
	f.mu.Unlock()

	fed := make([]FedSource, 0, len(sources))
	var meta []Sample
	up := func(rank string, v float64) {
		meta = append(meta, Sample{
			Name:   "damaris_fleet_source_up",
			Labels: []string{FedRankLabel, rank},
			Kind:   KindGauge,
			Value:  v,
		})
	}
	for _, src := range sources {
		samples, err := src.gather()
		switch {
		case err != nil:
			up(src.rank, 0)
		case src.split != "":
			split, _ := splitByLabel(samples, src.split)
			for _, s := range split {
				fed = append(fed, s)
				up(s.Rank, 1)
			}
		default:
			fed = append(fed, FedSource{Rank: src.rank, Samples: samples})
			up(src.rank, 1)
		}
	}
	meta = append(meta, Sample{Name: "damaris_fleet_sources", Kind: KindGauge, Value: float64(len(meta))})
	out := append(Federate(fed), meta...)
	sortSamples(out)
	return out
}

// WritePrometheus renders the federated fleet view in the Prometheus text
// format — the /fleet/metrics body.
func (f *Federator) WritePrometheus(w io.Writer) error {
	return WriteSamples(w, f.Gather())
}

// WriteJSON renders the federated fleet view as the JSON exposition
// document — the /fleet/metrics.json body.
func (f *Federator) WriteJSON(w io.Writer) error {
	return WriteSamplesJSON(w, f.Gather())
}
