package main

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/store"
)

// Span kinds recorded from outside the program, one per public call the
// benchmark wraps or makes.
const (
	kindStep    = "cm1.step"     // cm1.Sim.Step
	kindWrite   = "client.write" // core.Client.WriteBlock
	kindEnd     = "client.end"   // core.Client.EndIteration
	kindPersist = "persist"      // Persister.Persist / PersistBatch
	kindCreate  = "store.create" // store.Backend.Create
	kindSWrite  = "store.write"  // store.ObjectWriter.Write
	kindCommit  = "store.commit" // store.ObjectWriter.Commit
)

// span is one timed call. Times are nanoseconds since the repetition's
// clock base. A persist span lists the iterations its call covered in Its
// and the first of them in It; store spans carry the first iteration of the
// object they belong to.
type span struct {
	Kind   string  `json:"kind"`
	Rank   int     `json:"rank"`   // calling rank (client rank or dedicated core)
	Server int     `json:"server"` // dedicated-core rank the work belongs to
	It     int64   `json:"it"`
	Its    []int64 `json:"its,omitempty"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Bytes  int64   `json:"bytes,omitempty"`
	Err    bool    `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// clock is a repetition's time base; every recorded timestamp is an offset
// from it on the monotonic clock, so spans from all goroutines compare.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// recorder collects server-side spans (persist calls always, store calls
// only when tracing) from every dedicated core's goroutines.
type recorder struct {
	clock
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timedPersister wraps the DSF persister a dedicated core is deployed with
// and records one span per persist call. It forwards every optional
// interface the server and pipeline probe for — BatchPersister,
// StoreStatser and EncodePool() — so wrapping changes neither batching,
// nor the stats the tuner reads, nor the encode metrics.
type timedPersister struct {
	inner  *core.DSFPersister
	server int
	rec    *recorder
}

var (
	_ core.Persister      = (*timedPersister)(nil)
	_ core.BatchPersister = (*timedPersister)(nil)
	_ core.StoreStatser   = (*timedPersister)(nil)
)

func entryBytes(entries []*metadata.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += e.Size()
	}
	return n
}

func (p *timedPersister) Persist(it int64, entries []*metadata.Entry) error {
	start := p.rec.now()
	err := p.inner.Persist(it, entries)
	p.rec.add(span{Kind: kindPersist, Rank: p.server, Server: p.server, It: it, Its: []int64{it},
		Start: start, End: p.rec.now(), Bytes: entryBytes(entries), Err: err != nil})
	return err
}

func (p *timedPersister) PersistBatch(batch []core.IterationBatch) error {
	start := p.rec.now()
	err := p.inner.PersistBatch(batch)
	end := p.rec.now()
	s := span{Kind: kindPersist, Rank: p.server, Server: p.server, Start: start, End: end, Err: err != nil}
	for i, b := range batch {
		if i == 0 || b.Iteration < s.It {
			s.It = b.Iteration
		}
		s.Its = append(s.Its, b.Iteration)
		s.Bytes += entryBytes(b.Entries)
	}
	p.rec.add(s)
	return err
}

func (p *timedPersister) StoreStats() store.Stats { return p.inner.StoreStats() }

func (p *timedPersister) EncodePool() *dsf.EncodePool { return p.inner.EncodePool() }

// timedBackend wraps one dedicated core's view of the shared storage
// backend and records Create, ObjectWriter.Write and ObjectWriter.Commit.
// Every other Backend method is forwarded through the embedded interface.
type timedBackend struct {
	store.Backend
	server int
	rec    *recorder
}

// objectIteration extracts the first iteration from a DSF object name
// (node0000_srv0003_it000012.dsf or …_it000012-000015.dsf).
func objectIteration(name string) int64 {
	i := strings.LastIndex(name, "_it")
	if i < 0 {
		return -1
	}
	digits := name[i+3:]
	j := 0
	for j < len(digits) && digits[j] >= '0' && digits[j] <= '9' {
		j++
	}
	it, err := strconv.ParseInt(digits[:j], 10, 64)
	if err != nil {
		return -1
	}
	return it
}

func (b *timedBackend) Create(object string) (store.ObjectWriter, error) {
	it := objectIteration(object)
	start := b.rec.now()
	ow, err := b.Backend.Create(object)
	b.rec.add(span{Kind: kindCreate, Rank: b.server, Server: b.server, It: it,
		Start: start, End: b.rec.now(), Err: err != nil})
	if err != nil {
		return nil, err
	}
	return &timedWriter{ObjectWriter: ow, b: b, it: it}, nil
}

// timedWriter records one span per Write and Commit; Abort is forwarded
// through the embedded interface.
type timedWriter struct {
	store.ObjectWriter
	b  *timedBackend
	it int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := w.b.rec.now()
	n, err := w.ObjectWriter.Write(p)
	w.b.rec.add(span{Kind: kindSWrite, Rank: w.b.server, Server: w.b.server, It: w.it,
		Start: start, End: w.b.rec.now(), Bytes: int64(n), Err: err != nil})
	return n, err
}

func (w *timedWriter) Commit() (*store.Manifest, error) {
	start := w.b.rec.now()
	m, err := w.ObjectWriter.Commit()
	var size int64
	if m != nil {
		size = m.Size
	}
	w.b.rec.add(span{Kind: kindCommit, Rank: w.b.server, Server: w.b.server, It: w.it,
		Start: start, End: w.b.rec.now(), Bytes: size, Err: err != nil})
	return m, err
}
