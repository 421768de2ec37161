package main

import (
	"strings"
	"testing"
)

func TestCheckGates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gates  []gate
		failed []string
	}{
		{"empty", nil, nil},
		{"all pass", []gate{
			atMost("allocs", 0, 0),
			atLeast("vetoes", 3, 1),
			equal("spans", 8, 8),
			isTrue("identical", true),
		}, nil},
		{"one fails", []gate{
			atMost("allocs", 0, 0),
			atMost("ratio", 1.2, 1.10),
		}, []string{"ratio"}},
		{"every failure named", []gate{
			atMost("allocs", int64(2), 0),
			atLeast("vetoes", 0, 1),
			equal("spans", 7, 8),
			isTrue("identical", false),
			atLeast("epochs", 6, 6),
		}, []string{"allocs", "vetoes", "spans", "identical"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkGates(tc.gates)
			if len(tc.failed) == 0 {
				if err != nil {
					t.Fatalf("want nil, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want an error naming %v, got nil", tc.failed)
			}
			for _, name := range tc.failed {
				if !strings.Contains(err.Error(), name+" (") {
					t.Errorf("error %q does not name gate %q", err, name)
				}
			}
			if strings.Contains(err.Error(), "epochs") {
				t.Errorf("error %q names a passing gate", err)
			}
		})
	}
}

func TestSuiteRegistry(t *testing.T) {
	// Every suite's gate set, built from zero figures: the names do not
	// depend on the values, except for the per-scenario control gates.
	gates := map[string][]gate{
		"store":      storeGates(storeMetrics{}),
		"aggregate":  aggregateGates(aggMetrics{}),
		"control":    controlGates(ctlMetrics{Convergence: []ctlConvergence{{Scenario: "healthy-shrink"}, {Scenario: "overload-open"}}}),
		"gateway":    gatewayGates(gatewayMetrics{}),
		"resilience": resilienceGates(resilienceMetrics{}),
		"obs":        obsGates(obsMetrics{}),
		"shard":      shardGates(shardMetrics{}),
	}
	seen := map[string]bool{}
	for _, s := range suites {
		if seen[s.name] {
			t.Errorf("suite %q registered twice", s.name)
		}
		seen[s.name] = true
		gs, ok := gates[s.name]
		if !ok {
			t.Errorf("suite %q has no gate set in this test", s.name)
			continue
		}
		names := map[string]bool{}
		for _, g := range gs {
			if g.Name == "" || names[g.Name] {
				t.Errorf("suite %q: gate name %q empty or repeated", s.name, g.Name)
			}
			names[g.Name] = true
		}
	}
	if len(seen) != len(gates) {
		t.Errorf("registry has %d suites, test covers %d", len(seen), len(gates))
	}

	_, err := selectSuites("nope")
	if err == nil {
		t.Fatal("-suite nope: want an error")
	}
	for _, s := range suites {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("-suite nope error %q does not list %q", err, s.name)
		}
	}

	got, err := selectSuites("shard,store")
	if err != nil || len(got) != 2 || got[0].name != "store" || got[1].name != "shard" {
		t.Errorf("selectSuites(shard,store) = %v, %v; want store then shard", got, err)
	}
	all, err := selectSuites("all")
	if err != nil || len(all) != len(suites) {
		t.Errorf("selectSuites(all) = %d suites, %v; want %d", len(all), err, len(suites))
	}
}
