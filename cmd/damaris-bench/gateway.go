package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/gateway"
	"damaris/internal/store"
)

// gatewayMetrics is the gateway suite's report: cold and warm full-object
// read figures over a content-addressed store, and the cache's hit rates.
type gatewayMetrics struct {
	Warm            benchRow `json:"warm"`
	ColdNsPerOp     int64    `json:"cold_ns_per_op"`
	ColdWarmRatio   float64  `json:"cold_warm_ratio"`
	PartHitRate     float64  `json:"part_hit_rate"`
	TOCHitRate      float64  `json:"toc_hit_rate"`
	WarmBackendGets int64    `json:"warm_backend_gets"`
	ByteIdentical   bool     `json:"byte_identical_with_serial"`
}

func measureGateway() (gatewayMetrics, error) {
	var m gatewayMetrics
	entries, _ := persistWorkload()
	dir, err := os.MkdirTemp("", "damaris-gateway-bench")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	backend, err := store.NewObjStore(dir, store.Options{PartSize: storePartSize})
	if err != nil {
		return m, err
	}
	defer backend.Close()
	pers := &core.DSFPersister{Backend: backend, Codec: dsf.None}
	for it := int64(0); it < 4; it++ {
		if err := pers.Persist(it, entries); err != nil {
			return m, err
		}
	}
	object := pers.Files()[0]
	serial, err := readObject(backend, object)
	if err != nil {
		return m, err
	}
	size := int64(len(serial))

	// Cold: fresh gateway (empty TOC and part caches) per sample, so every
	// read pays the manifest decode and every part fetch.
	const coldSamples = 10
	var coldTotal time.Duration
	for i := 0; i < coldSamples; i++ {
		g, err := gateway.New(gateway.Config{Backend: backend})
		if err != nil {
			return m, err
		}
		start := time.Now()
		got, err := g.ReadRange(object, 0, size)
		coldTotal += time.Since(start)
		if err != nil {
			return m, err
		}
		if i == 0 {
			m.ByteIdentical = bytes.Equal(got, serial)
		}
	}
	m.ColdNsPerOp = coldTotal.Nanoseconds() / coldSamples

	// Warm: one gateway, caches populated, then the measured loop. The
	// same instance reports the hit rates and the Gets delta.
	g, err := gateway.New(gateway.Config{Backend: backend})
	if err != nil {
		return m, err
	}
	if _, err := g.ReadRange(object, 0, size); err != nil {
		return m, err
	}
	getsBefore := g.Stats().BackendGets
	m.Warm, err = measure("gateway_read_warm", size, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := g.ReadRange(object, 0, size); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return m, err
	}
	s := g.Stats()
	if m.Warm.NsPerOp > 0 {
		m.ColdWarmRatio = float64(m.ColdNsPerOp) / float64(m.Warm.NsPerOp)
	}
	m.PartHitRate = s.PartHitRate()
	m.TOCHitRate = s.TOCHitRate()
	m.WarmBackendGets = s.BackendGets - getsBefore
	return m, nil
}

func gatewayGates(m gatewayMetrics) []gate {
	return []gate{
		atMost("warm_backend_gets", m.WarmBackendGets, 0),
		isTrue("byte_identical_with_serial", m.ByteIdentical),
	}
}
