package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"damaris/internal/cm1"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
)

// baselinePhasesMs runs the CM1 ranks of workload w without Damaris, on a
// world of the same 6 ranks (2 nodes of 3), writing through the
// file-per-process or collective backend, and returns the timed write
// phases in ms. Each phase is the backend's whole WritePhase, which
// includes the field extraction the Damaris figure leaves out.
func baselinePhasesMs(kind string, w workload, o repOpts) ([]float64, error) {
	c := clock{base: time.Now()}
	p := w.params(o.seed)
	var (
		mu     sync.Mutex
		phases []float64
		errs   int
	)
	err := mpi.Run(clientRanks, clientRanks/2, func(comm *mpi.Comm) {
		var b cm1.Backend
		switch kind {
		case "fpp":
			b = cm1.NewFPPBackend(o.dir, dsf.None, comm.Rank())
		case "collective":
			b = cm1.NewCollectiveBackend(o.dir, comm)
		}
		sim, err := cm1.New(comm, p)
		if err != nil {
			panic(err)
		}
		var mine []float64
		var failed int
		var start, end int64
		iterate(c, comm, o, &start, &end, func(it int) {
			for k := 0; k < w.outputEvery; k++ {
				sim.Step()
			}
			t0 := c.now()
			if err := b.WritePhase(sim, int64(it)); err != nil {
				failed++
			}
			if it >= o.warm {
				mine = append(mine, ms(c.now()-t0))
			}
		})
		mu.Lock()
		phases = append(phases, mine...)
		errs += failed
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	if errs > 0 {
		return nil, fmt.Errorf("%s baseline: %d write phases failed", kind, errs)
	}
	return phases, nil
}

// baselineWorlds is how many consecutive worlds a baseline's measuring
// time is split over.
const baselineWorlds = 6

// paperClaims prints the paper's three claims as measured on cm1-paper's
// inputs: Damaris client write time against file-per-process and
// collective I/O (p50 and p99, and the max-min spread), and whether the
// dedicated cores kept spare time. Reported, not gated.
func paperClaims(out io.Writer, w workload, base repOpts, dir string, traced *repResult, e2e []metric) error {
	var damaris, withExtract []float64
	for _, c := range traced.clients {
		for it := traced.warm; it < len(c.phase); it++ {
			damaris = append(damaris, ms(c.phase[it]))
			withExtract = append(withExtract, ms(c.phase[it]+c.extract[it]))
		}
	}
	o := base
	fmt.Fprintf(out, "paper claims on %s inputs (reported, not gated; baselines run %.1fs each):\n", w.name, o.seconds)
	fmt.Fprintf(out, "  %-44s %10s %10s %12s\n", "client write phase", "p50 ms", "p99 ms", "max-min ms")
	row := func(label string, xs []float64) {
		fmt.Fprintf(out, "  %-44s %10.3f %10.3f %12.3f\n", label, quantile(xs, 0.5), quantile(xs, 0.99),
			quantile(xs, 1)-quantile(xs, 0))
	}
	row(fmt.Sprintf("damaris (middleware calls, n=%d)", len(damaris)), damaris)
	row("damaris + field extraction", withExtract)
	for _, kind := range []string{"fpp", "collective"} {
		o.dir = filepath.Join(dir, kind)
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
		// The in-process MPI world keeps every collective's payload until
		// the world ends, so the baseline runs as several short worlds to
		// bound memory.
		var xs []float64
		chunk := o
		chunk.seconds = o.seconds / baselineWorlds
		for i := 0; i < baselineWorlds; i++ {
			debug.FreeOSMemory()
			part, err := baselinePhasesMs(kind, w, chunk)
			if err != nil {
				return err
			}
			xs = append(xs, part...)
		}
		os.RemoveAll(o.dir)
		row(fmt.Sprintf("%s (incl. field extraction, n=%d)", kind, len(xs)), xs)
		for _, q := range []float64{0.5, 0.99} {
			fmt.Fprintf(out, "    damaris/%s p%.0f: %.4f (middleware calls), %.4f (incl. extraction)\n", kind, q*100,
				quantile(damaris, q)/quantile(xs, q), quantile(withExtract, q)/quantile(xs, q))
		}
	}
	for _, m := range e2e {
		if m.name == "dedicated_busy_frac" {
			fmt.Fprintf(out, "  dedicated cores keep spare time: %v (dedicated_spare_frac %.4f ratio, untraced)\n", m.value < 1, 1-m.value)
		}
	}
	return nil
}
