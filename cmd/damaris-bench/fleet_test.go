package main

// The fleet-observability gates run under `go test -race` here as well as
// via `damaris-bench -suite obs`: the live runs exercise the cross-rank
// trace propagation and in-process federation with the race detector on,
// which is where a torn merge or unsynchronized registry would surface.

import (
	"testing"

	"damaris/internal/leakcheck"
)

func TestFederationGates(t *testing.T) {
	// Alloc measurement is skipped: race instrumentation inflates it; the
	// obs suite owns that figure.
	fd := benchFederation(false)
	if err := checkGates(gateFederation(fd)); err != nil {
		t.Fatal(err)
	}
	if fd.Samples == 0 || fd.Sources == 0 {
		t.Fatalf("federation bench merged nothing: %+v", fd)
	}
}

func TestFleetLiveGates(t *testing.T) {
	if testing.Short() {
		t.Skip("live aggregated run")
	}
	leakcheck.Check(t)
	fl, err := runObsFleet()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGates(gateFleet(fl)); err != nil {
		t.Fatal(err)
	}
}

func TestBrownoutAttributionGates(t *testing.T) {
	if testing.Short() {
		t.Skip("live browned-out run")
	}
	leakcheck.Check(t)
	br, err := runObsBrownout()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGates(gateBrownout(br)); err != nil {
		t.Fatal(err)
	}
}
