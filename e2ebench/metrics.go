package main

import (
	"math"
	"sort"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio is a/b, or fallback when b is 0.
func ratio(a, b, fallback float64) float64 {
	if b == 0 {
		return fallback
	}
	return a / b
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		} else if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	return total + curHi - curLo
}

// analysis holds what a repetition's records say about each timed
// iteration, shared by the end-to-end metrics and the ledger.
type analysis struct {
	r          *repResult
	serverIDs  []int
	lastEnd    map[int][]int64 // per dedicated core, per iteration: latest EndIteration call start among its clients
	durableBy  map[int][]int   // per dedicated core, per iteration: index of the first successful persist span covering it (-1 none)
	durable    []float64       // per timed iteration: ms, slowest dedicated core
	critical   []int           // per timed iteration: persist span index on the slowest core
	critLast   []int64         // per timed iteration: that core's last EndIteration call start
	notDurable int             // iterations (warm-up included) some core never made durable
	lastDur    int64           // latest durability instant of a timed iteration
}

func analyse(r *repResult) *analysis {
	a := &analysis{r: r, lastEnd: map[int][]int64{}, durableBy: map[int][]int{}, lastDur: r.tStart}
	for _, s := range r.servers {
		a.serverIDs = append(a.serverIDs, s.rank)
		a.lastEnd[s.rank] = make([]int64, r.iters)
		d := make([]int, r.iters)
		for i := range d {
			d[i] = -1
		}
		a.durableBy[s.rank] = d
	}
	sort.Ints(a.serverIDs)
	for _, c := range r.clients {
		le := a.lastEnd[c.server]
		for it, t := range c.endAt {
			if it < len(le) && t > le[it] {
				le[it] = t
			}
		}
	}
	for i, s := range r.spans {
		if s.Kind != kindPersist || s.Err {
			continue
		}
		d := a.durableBy[s.Server]
		for _, it := range s.Its {
			if it >= 0 && int(it) < len(d) && (d[it] < 0 || s.End < r.spans[d[it]].End) {
				d[it] = i
			}
		}
	}
	for it := 0; it < r.iters; it++ {
		worst, crit, critSrv := int64(-1), -1, 0
		ok := true
		for _, srv := range a.serverIDs {
			idx := a.durableBy[srv][it]
			if idx < 0 {
				ok = false
				continue
			}
			if lat := r.spans[idx].End - a.lastEnd[srv][it]; lat > worst {
				worst, crit, critSrv = lat, idx, srv
			}
		}
		if !ok || len(a.serverIDs) == 0 {
			a.notDurable++
			continue
		}
		if it < r.warm {
			continue
		}
		a.durable = append(a.durable, ms(worst))
		a.critical = append(a.critical, crit)
		a.critLast = append(a.critLast, a.lastEnd[critSrv][it])
		if e := r.spans[crit].End; e > a.lastDur {
			a.lastDur = e
		}
	}
	return a
}

// timedPhasesMs lists every client write phase of the timed region in ms.
func (r *repResult) timedPhasesMs() []float64 {
	var out []float64
	for _, c := range r.clients {
		for it := r.warm; it < len(c.phase); it++ {
			out = append(out, ms(c.phase[it]))
		}
	}
	return out
}

func (r *repResult) stepsPerSecond() float64 {
	return ratio(float64(r.timedSteps), float64(r.tEnd-r.tStart)/1e9, 0)
}

// busyFrac is (union of in-flight persist calls)/wall per dedicated core
// over the timed region, averaged over cores: the complement of the
// paper's spare time.
func (a *analysis) busyFrac() float64 {
	wall := a.lastDur - a.r.tStart
	if wall <= 0 || len(a.serverIDs) == 0 {
		return 0
	}
	var total float64
	for _, srv := range a.serverIDs {
		var ivs []interval
		for _, s := range a.r.spans {
			if s.Kind == kindPersist && s.Server == srv {
				ivs = append(ivs, interval{s.Start, s.End})
			}
		}
		total += float64(covered(ivs, a.r.tStart, a.lastDur)) / float64(wall)
	}
	return total / float64(len(a.serverIDs))
}

// failures counts failed operations against attempted ones: client calls
// that returned an error, iterations never made durable, and chunks that
// fail read-back.
func failures(r *repResult, a *analysis, chk checkResult) (attempted, failed int) {
	for _, c := range r.clients {
		attempted += int(c.calls)
		failed += int(c.errs)
	}
	attempted += r.iters + chk.chunks
	failed += a.notDurable + chk.failed
	return attempted, failed
}

// endToEnd computes the gated end-to-end metrics of one untraced
// repetition, except peak_rss_mb and setup_s, which the caller takes over
// the run, and returns client write p99 (ms) apart: it is reported but not
// gated (see README.md).
func endToEnd(r *repResult, a *analysis, chk checkResult) ([]metric, float64) {
	phases := r.timedPhasesMs()
	payload := float64(r.iterBytes) * float64(len(a.durable))
	return []metric{
		{"steps_per_s", r.stepsPerSecond(), "1/s"},
		{"client_write_p50_ms", quantile(phases, 0.50), "ms"},
		{"client_write_p95_ms", quantile(phases, 0.95), "ms"},
		{"durable_p50_ms", quantile(a.durable, 0.50), "ms"},
		{"durable_p90_ms", quantile(a.durable, 0.90), "ms"},
		{"persist_mb_s", ratio(payload/1e6, float64(a.lastDur-r.tStart)/1e9, 0), "MB/s"},
		{"dedicated_busy_frac", a.busyFrac(), "ratio"},
		{"stored_per_payload", ratio(float64(chk.storedBytes), float64(r.iterBytes)*float64(r.iters), 0), "ratio"},
	}, quantile(phases, 0.99)
}
