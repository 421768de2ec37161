package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"damaris/internal/leakcheck"
	"damaris/internal/obs"
)

const (
	testRanks   = 8
	testPerNode = 4
	testSteps   = 4
	testEvery   = 2
)

// sumOf totals every series of one metric name.
func sumOf(samples []obs.Sample, name string) float64 {
	var total float64
	for _, s := range samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// countFiles counts the regular files matching a glob pattern.
func countFiles(t *testing.T, pattern string) int {
	t.Helper()
	matches, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// An 8-rank world, 4 ranks per node: the report's metric block must be the
// rollup of the registry gathered after run returns, and the figures must
// match what reached storage, with a shared backend counted once.
func TestRunReportIsQuiescedRollup(t *testing.T) {
	cases := []struct {
		name string
		args []string
		// storeFiles globs what one store put leaves behind; empty for
		// the baselines, which have no dedicated cores.
		storeFiles string
	}{
		{"damaris-sync", []string{"-persist-workers", "0"}, "out/*.dsf"},
		{"damaris-2-workers", []string{"-persist-workers", "2"}, "out/*.dsf"},
		{"damaris-shared-obj", []string{"-persist-workers", "2", "-persist-backend", "obj://{dir}/obj"},
			"obj/blobs/cas/sha256/*"},
		{"fpp", []string{"-backend", "fpp"}, ""},
		{"collective", []string{"-backend", "collective"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			dir := t.TempDir()
			fs := flag.NewFlagSet("damaris-run", flag.ContinueOnError)
			o := bindFlags(fs)
			args := append([]string{"-ranks", fmt.Sprint(testRanks), "-cores-per-node", fmt.Sprint(testPerNode),
				"-steps", fmt.Sprint(testSteps), "-output-every", fmt.Sprint(testEvery),
				"-buffer-mb", "16", "-out", filepath.Join(dir, "out")}, tc.args...)
			for i := range args {
				args[i] = strings.ReplaceAll(args[i], "{dir}", dir)
			}
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			plane := obs.NewPlane(o.traceRing)
			var out bytes.Buffer
			if err := run(*o, plane, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			report := out.String()
			if !strings.Contains(report, "client write phases: n=") {
				t.Fatalf("no client line in report:\n%s", report)
			}
			if tc.storeFiles == "" {
				if strings.Contains(report, "# TYPE") {
					t.Errorf("baseline report carries a dedicated-core block:\n%s", report)
				}
				return
			}

			samples := plane.Registry().Gather()
			var block bytes.Buffer
			if err := obs.WriteSamples(&block, coreReport(samples)); err != nil {
				t.Fatal(err)
			}
			if block.Len() == 0 || !strings.Contains(report, block.String()) {
				t.Errorf("report block differs from the quiesced rollup\nreport:\n%s\nrollup:\n%s", report, block.String())
			}
			if err := obs.CheckSamples(coreReport(samples)); err != nil {
				t.Errorf("report block: %v", err)
			}

			servers := testRanks / testPerNode
			iterations := testSteps / testEvery
			if got := sumOf(samples, "damaris_pipeline_completed_total"); got != float64(servers*iterations) {
				t.Errorf("damaris_pipeline_completed_total = %v, want %d", got, servers*iterations)
			}
			puts := sumOf(samples, "damaris_store_puts_total")
			if want := countFiles(t, filepath.Join(dir, tc.storeFiles)); puts != float64(want) || want == 0 {
				t.Errorf("damaris_store_puts_total = %v, want %d (%s)", puts, want, tc.storeFiles)
			}

			// The live scrape carries no quantile the run cannot know, and
			// the fleet view, fed from the same registry, sums to the same
			// completed count.
			rec := httptest.NewRecorder()
			plane.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if strings.Contains(rec.Body.String(), "quantile=") {
				t.Errorf("/metrics carries quantile samples")
			}
			fleet := plane.Federator().Gather()
			if got := sumOf(fleet, "damaris_fleet_sources"); got != float64(servers) {
				t.Errorf("fleet sources = %v, want %d", got, servers)
			}
			if got := sumOf(fleet, "damaris_pipeline_completed_total"); got != float64(servers*iterations) {
				t.Errorf("fleet damaris_pipeline_completed_total = %v, want %d", got, servers*iterations)
			}
		})
	}
}

// Invalid pipeline knobs are rejected before any rank starts.
func TestRunRejectsInvalidKnobs(t *testing.T) {
	fs := flag.NewFlagSet("damaris-run", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse([]string{"-ranks", "8", "-persist-queue", "0", "-out", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	err := run(*o, obs.NewPlane(0), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "invalid pipeline knobs") {
		t.Fatalf("run = %v, want invalid pipeline knobs", err)
	}
}
