package main

import (
	"testing"
	"time"

	"damaris/internal/cluster"
	"damaris/internal/config"
	"damaris/internal/control"
	"damaris/internal/iostrat"
)

// ctlConvergence is one simulated controller curve.
type ctlConvergence struct {
	Scenario string `json:"scenario"`
	Platform string `json:"platform"`
	Epochs   int    `json:"epochs"`
	// SettledEpoch is the first epoch of the curve's final constant run;
	// converged means it happened with margin before the end.
	SettledEpoch int           `json:"settled_epoch"`
	Converged    bool          `json:"converged"`
	Steady       control.Sizes `json:"steady"`
	// Bounded: every point stayed inside the configured limits.
	Bounded bool    `json:"bounded"`
	Ratio   float64 `json:"final_ratio"`
}

// ctlMetrics is the control suite's report.
type ctlMetrics struct {
	Convergence []ctlConvergence `json:"convergence"`
	// ObserveAllocsPerOp is the steady-state allocation count of one
	// controller observation — it runs on the dedicated core's event loop
	// every iteration, so the budget is zero.
	ObserveAllocsPerOp int64 `json:"observe_allocs_per_op"`
	// Parity: the same workload under static control and under auto control
	// (different decision sequences by construction) must leave
	// byte-identical DSF objects.
	Parity parityResult `json:"parity"`
}

// runCtlConvergence simulates the controller on the paper's platforms: a
// healthy one (must shrink to the synchronous baseline) and an overloaded
// one (must open, and settle inside the limits).
func runCtlConvergence() ([]ctlConvergence, error) {
	lim := control.Limits{MaxWriters: 6, MaxWindow: 10, MaxEncode: 4}
	type scenario struct {
		name string
		plat cluster.Platform
		opt  iostrat.Options
		ini  control.Sizes
	}
	kraken := cluster.Kraken()
	grid := cluster.Grid5000()
	scenarios := []scenario{
		{
			name: "healthy-shrink",
			plat: kraken,
			opt:  iostrat.Options{Cores: 8 * kraken.CoresPerNode, Seed: 42},
			ini:  control.Sizes{Writers: 4, Window: 8},
		},
		{
			name: "overload-open",
			plat: grid,
			opt: iostrat.Options{Cores: 8 * grid.CoresPerNode, Seed: 7,
				BytesPerCore: grid.BytesPerCore * 200},
			ini: control.Sizes{Writers: 1, Window: 1},
		},
	}
	var out []ctlConvergence
	for _, sc := range scenarios {
		const epochs = 60
		pts, err := iostrat.SimulateControl(sc.plat, sc.opt,
			iostrat.ControlSimConfig{Epochs: epochs, Initial: sc.ini, Limits: lim})
		if err != nil {
			return nil, err
		}
		settled := iostrat.ControlSettled(pts)
		bounded := true
		for _, p := range pts {
			if p.Sizes.Writers < 1 || p.Sizes.Writers > lim.MaxWriters ||
				p.Sizes.Window < 1 || p.Sizes.Window > lim.MaxWindow {
				bounded = false
			}
		}
		last := pts[len(pts)-1]
		out = append(out, ctlConvergence{
			Scenario:     sc.name,
			Platform:     sc.plat.Name,
			Epochs:       epochs,
			SettledEpoch: settled,
			Converged:    settled >= 0 && settled <= epochs-5,
			Steady:       last.Sizes,
			Bounded:      bounded,
			Ratio:        last.Ratio,
		})
	}
	return out, nil
}

// benchObserve measures the controller's per-observation allocation count.
func benchObserve() int64 {
	r := testing.Benchmark(func(b *testing.B) {
		clk := control.NewManualClock(time.Unix(0, 0))
		tn, err := control.New(control.Config{
			Mode:    "auto",
			Initial: control.Sizes{Writers: 2, Window: 2, Encode: 2},
			Clock:   clk,
		})
		if err != nil {
			b.Fatal(err)
		}
		sample := control.Sample{FlushLatency: 0.01, Interval: 0.005,
			EncodeLatency: 0.002, StoreLatency: 0.001}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clk.Advance(control.DefaultInterval)
			tn.Observe(sample)
		}
	})
	return r.AllocsPerOp()
}

// controlMode returns the parity mutation for one control mode.
func controlMode(mode string) func(*config.Config) {
	return func(cfg *config.Config) {
		cfg.ControlMode = mode
		cfg.ControlIntervalMS = 1
		cfg.ControlMaxWriters = 4
		cfg.ControlMaxWindow = 6
	}
}

func measureControl() (ctlMetrics, error) {
	var m ctlMetrics
	var err error
	if m.Convergence, err = runCtlConvergence(); err != nil {
		return m, err
	}
	m.ObserveAllocsPerOp = benchObserve()
	// Static against auto under two injected latencies: three distinct
	// controller decision sequences over one workload (1 node x 4 cores).
	m.Parity, err = parity(deployment{ranks: 4, coresPerNode: 4, dedicated: 1, steps: 12, outputEvery: 1},
		[]storeRun{
			{controlMode("static"), 0},
			{controlMode("auto"), 500 * time.Microsecond},
			{controlMode("auto"), 2 * time.Millisecond},
		})
	return m, err
}

func controlGates(m ctlMetrics) []gate {
	var gates []gate
	for _, c := range m.Convergence {
		gates = append(gates,
			isTrue(c.Scenario+"_converged", c.Converged),
			isTrue(c.Scenario+"_bounded", c.Bounded))
	}
	return append(gates,
		atMost("observe_allocs_per_op", m.ObserveAllocsPerOp, 0),
		isTrue("static_auto_byte_identical", m.Parity.Identical))
}
