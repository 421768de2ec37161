// Command e2ebench is the repository's end-to-end benchmark. It runs the
// CM1 mini-app against real Damaris deployments (mpi.Run -> core.Deploy ->
// Server.Run) and measures every layer from outside, by timing calls into
// the layers' public functions. See README.md in this directory for the
// workloads, the metric definitions and the pitfalls found while sizing it.
//
// Usage (from the repository root, normally through run.sh):
//
//	e2ebench --workload cm1-paper --seed 1 --seconds 36 --trace 0
//	e2ebench --workload all --trace 1      # every workload, full report
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics, each the median over 4 untraced repetitions; with
// --trace 1 it carries the per-layer metrics of a traced repetition (an
// untraced one on the same inputs runs first, for the tracing overhead).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A --trace 0 run measures timedReps untraced repetitions and takes
// setupSamples set-up times: one per repetition plus dry repetitions that
// stop right after set-up. setup_s is their median.
const (
	timedReps    = 4
	setupSamples = 9
)

// workDir holds each run's storage and spill files (removed at the end) and
// the span dumps of traced runs, relative to the repository root.
var workDir = filepath.Join(".bench_build", "e2ebench")

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 36, "seconds measured in all, split evenly over the timed repetitions")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want all or one of:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}
	if len(todo) == 1 {
		// A single workload must finish well inside three minutes; a hung
		// deployment fails the run instead of stalling it.
		time.AfterFunc(170*time.Second, func() {
			fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
			os.Exit(3)
		})
	}
	fmt.Printf("e2ebench: GOMAXPROCS=%d, world %d ranks (%d nodes x %d cores, %d CM1 ranks, %d dedicated cores), seed %d, %gs timed\n",
		runtime.GOMAXPROCS(0), worldRanks, worldRanks/coresPerNode, coresPerNode, clientRanks,
		worldRanks/coresPerNode, *seed, *seconds)

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		dir := filepath.Join(workDir, fmt.Sprintf("%s-seed%d-pid%d", w.name, *seed, os.Getpid()))
		res, err := runWorkload(os.Stdout, w, *seed, *seconds, *trace == 1, dir)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// warmIterations is how many output iterations run before the timed
// region: enough to cycle every node's shared segment once, so the timed
// region does not pay first-touch page faults that only a run's start sees.
func warmIterations(w workload) int {
	perNode := w.params(0).BytesPerRankPerOutput() * clientRanks / (worldRanks / coresPerNode)
	return int(bufferBytes/perNode) + 2
}

// runWorkload runs one workload and prints its report. Without tracing it
// runs timedReps untraced repetitions of seconds/timedReps each and reports
// each end-to-end metric as its median over them; with tracing it runs one
// untraced and one traced repetition of that length.
func runWorkload(out io.Writer, w workload, seed uint64, seconds float64, traced bool, dir string) (result, error) {
	fmt.Fprintf(out, "\n== %s: %s\n", w.name, w.why)
	base := repOpts{seed: seed, seconds: seconds / timedReps, warm: warmIterations(w)}
	res := result{}
	var setups []float64
	if !traced {
		for i := 0; i < setupSamples-timedReps; i++ {
			o := base
			o.dry = true
			o.dir = filepath.Join(dir, fmt.Sprintf("dry%d", i))
			r, err := runRep(w, o)
			if err != nil {
				return result{}, fmt.Errorf("set-up sample: %w", err)
			}
			setups = append(setups, float64(r.setupNs)/1e9)
			os.RemoveAll(o.dir)
		}
	}

	// untraced runs one untraced repetition, checks its output and returns
	// its end-to-end metrics.
	untraced := func(i int) (*repResult, []metric, float64, error) {
		o := base
		o.dir = filepath.Join(dir, fmt.Sprintf("untraced%d", i))
		defer os.RemoveAll(o.dir)
		r, err := runRep(w, o)
		if err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, float64(r.setupNs)/1e9)
		chk := readBack(r.url, r.clients)
		a := analyse(r)
		attempted, failed := failures(r, a, chk)
		res.Attempted += attempted
		res.Failed += failed
		printRun(out, fmt.Sprintf("untraced #%d", i+1), r, a, chk, attempted, failed)
		m, p99 := endToEnd(r, a, chk)
		return r, m, p99, nil
	}

	if !traced {
		var reps [][]metric
		var p99s []float64
		var rss float64
		for i := 0; i < timedReps; i++ {
			r, m, p99, err := untraced(i)
			if err != nil {
				return result{}, err
			}
			p99s = append(p99s, p99)
			if i == 0 {
				// The process's peak RSS only grows, so it is one
				// repetition's peak only after the first.
				rss = r.rssMB
			}
			reps = append(reps, m)
		}
		e2e := append(medianMetrics(reps),
			metric{"peak_rss_mb", rss, "MB"}, metric{"setup_s", quantile(setups, 0.5), "s"})
		fmt.Fprintf(out, "set-up samples (s): %.4f\n", setups)
		printMetrics(out, fmt.Sprintf("end-to-end (median of %d repetitions)", timedReps), e2e)
		printUngated(out, e2e, quantile(p99s, 0.5), res)
		res.Correct = res.Failed == 0
		res.Metrics = metricMap(e2e)
		return res, nil
	}

	plain, e2e, p99, err := untraced(0)
	if err != nil {
		return result{}, err
	}
	e2e = append(e2e, metric{"peak_rss_mb", plain.rssMB, "MB"}, metric{"setup_s", setups[0], "s"})
	printMetrics(out, "end-to-end (untraced repetition)", e2e)
	printUngated(out, e2e, p99, res)
	o := base
	o.dir = filepath.Join(dir, "traced")
	o.traced = true
	tr, err := runRep(w, o)
	if err != nil {
		return result{}, err
	}
	tchk := readBack(tr.url, tr.clients)
	os.RemoveAll(o.dir)
	ta := analyse(tr)
	tAttempted, tFailed := failures(tr, ta, tchk)
	printRun(out, "traced", tr, ta, tchk, tAttempted, tFailed)
	kids := children(tr.spans)
	rows := ledger(tr, ta, kids)
	printLedger(out, rows)
	bad, _ := unreconciled(rows)
	res.Attempted += tAttempted
	res.Failed += tFailed
	res.Correct = res.Failed == 0 && bad == 0 && len(rows) > 0
	layer := perLayer(tr, ta, kids, plain.stepsPerSecond(), ratio(float64(res.Failed), float64(res.Attempted), 0))
	printMetrics(out, "per-layer (traced)", layer)
	fmt.Fprintf(out, "tracing overhead: steps_per_s traced %.3f vs untraced %.3f\n",
		tr.stepsPerSecond(), plain.stepsPerSecond())
	if path, err := dumpSpans(w.name, tr); err != nil {
		fmt.Fprintf(out, "span dump failed: %v\n", err)
	} else {
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	if w.name == "cm1-paper" {
		if err := paperClaims(out, w, base, dir, tr, e2e); err != nil {
			return result{}, err
		}
	}
	res.Metrics = metricMap(layer)
	return res, nil
}

// medianMetrics reduces several repetitions' metric lists (same names in
// the same order) to their per-metric medians.
func medianMetrics(reps [][]metric) []metric {
	out := make([]metric, len(reps[0]))
	for i, m := range reps[0] {
		xs := make([]float64, len(reps))
		for j, r := range reps {
			xs[j] = r[i].value
		}
		out[i] = metric{m.name, quantile(xs, 0.5), m.unit}
	}
	return out
}

// printUngated prints the end-to-end figures the benchmark reports but
// does not gate (README.md gives the reasons): client write p99, the
// paper's dedicated-core spare fraction (the complement of
// dedicated_busy_frac) and the failure share.
func printUngated(out io.Writer, e2e []metric, p99 float64, res result) {
	fmt.Fprintf(out, "  %-30s %14.6g ms (reported, not gated)\n", "client_write_p99_ms", p99)
	for _, m := range e2e {
		if m.name == "dedicated_busy_frac" {
			fmt.Fprintf(out, "  %-30s %14.6g ratio (reported, not gated)\n", "dedicated_spare_frac", 1-m.value)
		}
	}
	fmt.Fprintf(out, "  %-30s %14.6g ratio (reported, not gated; %d of %d operations)\n", "op_fail_frac",
		ratio(float64(res.Failed), float64(res.Attempted), 0), res.Failed, res.Attempted)
}

func metricMap(ms []metric) map[string]metricValue {
	m := make(map[string]metricValue, len(ms))
	for _, x := range ms {
		m[x.name] = metricValue{x.value, x.unit}
	}
	return m
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// printRun prints a repetition's sample counts, the paper's max-min
// spread of client write time and the output check.
func printRun(out io.Writer, label string, r *repResult, a *analysis, chk checkResult, attempted, failed int) {
	phases := r.timedPhasesMs()
	lo, hi := quantile(phases, 0), quantile(phases, 1)
	fmt.Fprintf(out, "%s repetition: %d timed steps in %.2fs after %d warm-up iterations; %d client write phases (max-min spread %.3f ms); %d timed iterations made durable\n",
		label, r.timedSteps, float64(r.tEnd-r.tStart)/1e9, r.warm, len(phases), hi-lo, len(a.durable))
	fmt.Fprintf(out, "  steps/s %.3f, client write p50 %.4f p95 %.4f p99 %.4f ms, durable p50 %.3f p90 %.3f ms\n",
		r.stepsPerSecond(), quantile(phases, 0.5), quantile(phases, 0.95), quantile(phases, 0.99),
		quantile(a.durable, 0.5), quantile(a.durable, 0.9))
	fmt.Fprintf(out, "  output check: %d chunks in %d objects read back, %d failed; op_fail_frac %d/%d = %.6g\n",
		chk.chunks, chk.objects, chk.failed, failed, attempted, ratio(float64(failed), float64(attempted), 0))
	if chk.firstErr != nil {
		fmt.Fprintf(out, "  first check failure: %v\n", chk.firstErr)
	}
	for _, c := range r.clients {
		if c.firstErr != nil {
			fmt.Fprintf(out, "  client %d failed: %v\n", c.rank, c.firstErr)
		}
	}
	for _, s := range r.servers {
		if s.err != nil {
			fmt.Fprintf(out, "  dedicated core %d failed: %v\n", s.rank, s.err)
		}
	}
}

// dumpSpans writes every span of a traced repetition as JSON lines.
func dumpSpans(name string, r *repResult) (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	all := r.spans
	for _, c := range r.clients {
		all = append(all, c.spans...)
	}
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
