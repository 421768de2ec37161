package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// persistWorkload builds the benchmark iteration: 8 smooth float32 chunks of
// 512 KiB each — the multi-chunk persist the encode pool is built for.
func persistWorkload() ([]*metadata.Entry, int64) {
	lay := layout.MustNew(layout.Float32, 128<<10)
	var entries []*metadata.Entry
	var total int64
	for src := 0; src < 8; src++ {
		xs := make([]float32, 128<<10)
		for i := range xs {
			xs[i] = 280 + float32(src) + 8*float32(math.Sin(float64(i)/600))
		}
		data := mpi.Float32sToBytes(xs)
		total += int64(len(data))
		entries = append(entries, &metadata.Entry{
			Key:    metadata.Key{Name: "theta", Source: src},
			Layout: lay,
			Inline: data,
		})
	}
	return entries, total
}

// benchRow is one benchmark's figures in a suite's metrics. The dev boxes
// have few CPUs, so the tracked signals are allocation counts, not parallel
// speedups.
type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// measure benchmarks fn, which moves size bytes per op, and returns its
// figures, or the first error fn returned.
func measure(name string, size int64, fn func(b *testing.B) error) (benchRow, error) {
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		if e := fn(b); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return benchRow{}, err
	}
	return benchRow{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		MBPerS:      float64(size) / 1e6 / (float64(r.NsPerOp()) / 1e9),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

func openFileStore(dir string) (store.Backend, error) {
	return store.NewFileStore(dir, store.Options{})
}

// benchPersist measures one backend's uncompressed persist path with the
// shared workload.
func benchPersist(name string, open func(dir string) (store.Backend, error)) (benchRow, error) {
	entries, total := persistWorkload()
	return measure(name, total, func(b *testing.B) error {
		dir, err := os.MkdirTemp("", "damaris-store-bench")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		backend, err := open(dir)
		if err != nil {
			return err
		}
		defer backend.Close()
		pers := &core.DSFPersister{Backend: backend, Codec: dsf.None}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pers.Persist(int64(i%64), entries); err != nil {
				return err
			}
		}
		return nil
	})
}

// storeMetrics is the store suite's report: persist figures per backend,
// and the objstore's determinism, dedupe and cross-backend byte identity on
// one fixed iteration.
type storeMetrics struct {
	Benchmarks             []benchRow `json:"benchmarks"`
	DeterministicManifests bool       `json:"deterministic_manifests"`
	Parts                  int        `json:"parts"`
	DedupeHits             int64      `json:"dedupe_hits"`
	ByteIdenticalRestore   bool       `json:"byte_identical_restore"`
}

// storePartSize keeps the parts small so the workload spans many.
const storePartSize = 256 << 10

func measureStore() (storeMetrics, error) {
	var m storeMetrics
	objStore := func(workers int) func(string) (store.Backend, error) {
		return func(dir string) (store.Backend, error) {
			return store.NewObjStore(dir, store.Options{PartSize: storePartSize, PutWorkers: workers})
		}
	}
	cases := []struct {
		name string
		open func(dir string) (store.Backend, error)
	}{
		{"persist_filestore", openFileStore},
		{"persist_objstore_w1", objStore(1)},
		{"persist_objstore_w4", objStore(4)},
	}
	for _, c := range cases {
		r, err := benchPersist(c.name, c.open)
		if err != nil {
			return m, err
		}
		m.Benchmarks = append(m.Benchmarks, r)
	}

	entries, _ := persistWorkload()
	dir, err := os.MkdirTemp("", "damaris-store-checks")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	obj, err := store.NewObjStore(filepath.Join(dir, "obj"), store.Options{PartSize: storePartSize})
	if err != nil {
		return m, err
	}
	defer obj.Close()
	fileB, err := openFileStore(filepath.Join(dir, "file"))
	if err != nil {
		return m, err
	}
	defer fileB.Close()

	// The same iteration persisted under two object names and through the
	// file backend. The copy goes through the persister's own write path,
	// so the two streams are byte-identical by construction and every
	// content-addressed part must dedupe.
	op := &core.DSFPersister{Backend: obj, Codec: dsf.None}
	fp := &core.DSFPersister{Backend: fileB, Codec: dsf.None}
	if err := op.Persist(0, entries); err != nil {
		return m, err
	}
	before := obj.Stats()
	if err := op.PersistAs("copy.dsf", entries); err != nil {
		return m, err
	}
	after := obj.Stats()
	if err := fp.Persist(0, entries); err != nil {
		return m, err
	}

	orig := op.Files()[0]
	m1, err := obj.Manifest(orig)
	if err != nil {
		return m, err
	}
	m2, err := obj.Manifest("copy.dsf")
	if err != nil {
		return m, err
	}
	m.DeterministicManifests = len(m1.Parts) == len(m2.Parts)
	for i := range m1.Parts {
		if i >= len(m2.Parts) || m1.Parts[i].SHA256 != m2.Parts[i].SHA256 {
			m.DeterministicManifests = false
		}
	}
	m.Parts = len(m2.Parts)
	m.DedupeHits = after.DedupeHits - before.DedupeHits

	objBytes, err := readObject(obj, orig)
	if err != nil {
		return m, err
	}
	fileBytes, err := readObject(fileB, fp.Files()[0])
	if err != nil {
		return m, err
	}
	m.ByteIdenticalRestore = bytes.Equal(objBytes, fileBytes)
	return m, nil
}

func storeGates(m storeMetrics) []gate {
	return []gate{
		isTrue("deterministic_manifests", m.DeterministicManifests),
		equal("dedupe_hits", m.DedupeHits, int64(m.Parts)),
		isTrue("byte_identical_restore", m.ByteIdenticalRestore),
	}
}

// readObject returns a committed object's full byte stream.
func readObject(b store.Backend, name string) ([]byte, error) {
	r, err := b.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, r.Size())
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}
