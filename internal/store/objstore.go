package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ObjStore is the "obj" backend: a content-addressed object store in the
// shape of S3-style multipart upload, backed by a local directory (the
// directory stands in for the remote service; the protocol is the real
// contribution and is what the injectable Fault exercises).
//
// An object's byte stream is split into fixed-size parts. Each part is
// stored as the blob "cas/sha256/<hex digest>", so identical content across
// iterations, ranks or retries lands on the same blob: re-uploads dedupe
// (the writer stats the blob first) and retries are idempotent. Parts
// upload through a bounded parallel worker pool shared by every writer of
// the backend instance — many small in-flight puts overlap instead of one
// big serialized file append.
//
// Visibility is manifest-last: parts are invisible until a manifest naming
// them is committed (written to its own temp file, fsynced, renamed). A
// crash at any earlier point leaves only unreferenced CAS blobs and torn
// temp files — no reader can observe a partial object, and the retry skips
// every part that already made it.
//
// Directory layout under the root:
//
//	blobs/<name>            the blob plane (parts live under blobs/cas/sha256/)
//	manifests/<object>.json committed manifests (atomic rename)
//	tmp/                    in-flight temporaries, ignored by all reads
//
// # Replica targets and hedged writes
//
// Optional replica targets (Options.Replicas, or repeated replica= URL
// parameters) turn the store into a small replica set with the same layout
// under each root. Writes go to the primary first; a part put or manifest
// commit still outstanding past the hedge trigger — the configured
// percentile of observed put latency, floored at HedgeAfter — is re-issued
// to the next target, first success wins. The "cancel" of the losing
// attempt is idempotence, not interruption: content addressing and
// write-temp-then-rename make a straggler that completes later land the
// exact same bytes, so no writer waits for it. Reads (Get/Stat/Manifest/Open)
// fall back across targets in order, so an object whose parts were hedged
// onto a replica stays fully readable. GC sweeps the primary only.
//
// # Detached attempts
//
// A timed-out put attempt and a losing hedge keep running after their
// caller moved on (a hung target cannot be interrupted). The store owns
// them: each holds a reference on the part buffer it reads, so the buffer
// is recycled only after the last attempt returns, and Close joins them and
// removes the temp files they left.
type ObjStore struct {
	root        string
	partSize    int64
	putWorkers  int
	putAttempts int
	putTimeout  time.Duration
	hedgeAfter  time.Duration
	hedgePct    float64
	fault       Fault
	replicas    []objTarget
	metrics     metrics

	// sem bounds the parts concurrently uploading (or buffered awaiting a
	// worker slot) across all of this backend's ObjectWriters.
	sem chan struct{}
	// partBufs recycles part-sized buffers (*partBuf) between uploads so
	// steady-state multipart writes allocate nothing per part.
	partBufs sync.Pool

	// attempts counts put attempts running detached from their caller;
	// Close waits for them. tmps holds this instance's temp files not yet
	// renamed into place (guarded by tmpMu); Close removes the ones left.
	attempts sync.WaitGroup
	tmpMu    sync.Mutex
	tmps     map[string]struct{}

	// latMu guards the put-latency reservoir the hedge trigger is computed
	// from and the jitter source for retry backoff.
	latMu   sync.Mutex
	lats    [64]float64 // ring of recent successful put seconds
	latN    int         // total samples ever recorded
	jitter  *rand.Rand
	scratch []float64 // reusable sort buffer for the percentile
}

// partBuf is one pooled part buffer, shared by every put attempt that reads
// it. The writer holds the first reference; each detached attempt takes
// another; the buffer returns to the pool when the last one is released.
type partBuf struct {
	b    []byte
	refs atomic.Int32
}

// getPartBuf takes an empty part buffer from the pool, referenced once.
func (s *ObjStore) getPartBuf() *partBuf {
	pb := s.partBufs.Get().(*partBuf)
	pb.b = pb.b[:0]
	pb.refs.Store(1)
	return pb
}

// releasePartBuf drops one reference (nil = caller-owned data, nothing to
// do) and recycles the buffer when it was the last.
func (s *ObjStore) releasePartBuf(pb *partBuf) {
	if pb != nil && pb.refs.Add(-1) == 0 {
		s.partBufs.Put(pb)
	}
}

// detach runs fn on a goroutine the store owns: Close waits for it, and the
// part buffer fn reads (nil when it reads none) stays out of the pool until
// fn returns.
func (s *ObjStore) detach(pb *partBuf, fn func()) {
	if pb != nil {
		pb.refs.Add(1)
	}
	s.attempts.Add(1)
	go func() {
		defer s.attempts.Done()
		defer s.releasePartBuf(pb)
		fn()
	}()
}

// objTarget is one replica storage root with its own injected fault.
type objTarget struct {
	root  string
	fault Fault
}

// ErrPutTimeout marks a put attempt abandoned at the per-put deadline. The
// attempt may still land its blob later; retries re-probe via content
// addressing, which keeps the timeout retryable.
var ErrPutTimeout = errors.New("store: put deadline exceeded")

// NewObjStore opens (creating if needed) an object store rooted at dir.
func NewObjStore(dir string, opts Options) (*ObjStore, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if dir == "" {
		return nil, fmt.Errorf("store: object backend needs a root directory")
	}
	roots := append([]string{dir}, opts.Replicas...)
	for _, root := range roots {
		for _, sub := range []string{"blobs", "manifests", "tmp"} {
			if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
				return nil, fmt.Errorf("store: object backend: %w", err)
			}
		}
	}
	s := &ObjStore{
		root:        dir,
		partSize:    opts.PartSize,
		putWorkers:  opts.PutWorkers,
		putAttempts: opts.PutAttempts,
		putTimeout:  opts.PutTimeout,
		hedgeAfter:  opts.HedgeAfter,
		hedgePct:    opts.HedgePct,
		fault:       opts.Fault,
		metrics:     metrics{scheme: "obj"},
		sem:         make(chan struct{}, opts.PutWorkers),
		tmps:        make(map[string]struct{}),
		// Jitter only spreads retry backoff in time; a fixed seed keeps runs
		// reproducible and output bytes never depend on it.
		jitter: rand.New(rand.NewSource(1)),
	}
	for i, r := range opts.Replicas {
		t := objTarget{root: r}
		if i < len(opts.ReplicaFaults) {
			t.fault = opts.ReplicaFaults[i]
		}
		s.replicas = append(s.replicas, t)
	}
	s.partBufs.New = func() any {
		return &partBuf{b: make([]byte, 0, s.partSize)}
	}
	return s, nil
}

// Root returns the backing directory.
func (s *ObjStore) Root() string { return s.root }

// PartSize returns the multipart split size.
func (s *ObjStore) PartSize() int64 { return s.partSize }

// targets returns how many storage roots this store writes to (primary +
// replicas).
func (s *ObjStore) targets() int { return 1 + len(s.replicas) }

// rootAt returns target ti's storage root (0 = primary).
func (s *ObjStore) rootAt(ti int) string {
	if ti == 0 {
		return s.root
	}
	return s.replicas[ti-1].root
}

// faultAt returns target ti's injected fault (0 = primary).
func (s *ObjStore) faultAt(ti int) Fault {
	if ti == 0 {
		return s.fault
	}
	return s.replicas[ti-1].fault
}

func (s *ObjStore) blobPathAt(ti int, name string) string {
	return filepath.Join(s.rootAt(ti), "blobs", filepath.FromSlash(name))
}

func (s *ObjStore) blobPath(name string) string { return s.blobPathAt(0, name) }

func (s *ObjStore) manifestPathAt(ti int, object string) string {
	return filepath.Join(s.rootAt(ti), "manifests", filepath.FromSlash(object)+".json")
}

func (s *ObjStore) manifestPath(object string) string { return s.manifestPathAt(0, object) }

func (s *ObjStore) tmpPathAt(ti int) string {
	return filepath.Join(s.rootAt(ti), "tmp", "t-"+tmpName())
}

// casBlobName is the content-addressed blob name of one part.
func casBlobName(sum [sha256.Size]byte) string {
	return "cas/sha256/" + hex.EncodeToString(sum[:])
}

// writeTempAndRename lands data at target ti's dst via that target's temp
// area, with the put faults threaded through (OpPutRename failing between
// write and rename is the torn-upload crash window). The temp file is
// fsynced before the rename: the manifest-last protocol's invariant is that
// everything a manifest references is durable, so a power loss after a
// blob's rename must never surface zero-filled part bytes.
func (s *ObjStore) writeTempAndRename(ti int, op string, name string, dst string, data []byte) error {
	tmp := s.tmpPathAt(ti)
	s.tmpMu.Lock()
	s.tmps[tmp] = struct{}{}
	s.tmpMu.Unlock()
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("store: %s %q: %w", op, name, err)
	}
	if err := opFault(s.faultAt(ti), OpPutRename, name); err != nil {
		return err // torn: tmp stays behind, invisible
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %s %q: %w", op, name, err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		return fmt.Errorf("store: %s %q: %w", op, name, err)
	}
	s.tmpMu.Lock()
	delete(s.tmps, tmp)
	s.tmpMu.Unlock()
	return nil
}

// withPutTimeout runs one write attempt under the per-put deadline. On
// deadline the attempt keeps running detached (a hung fault or filesystem
// cannot be interrupted), holding pb, and the caller gets a retryable
// ErrPutTimeout; if the stray attempt lands its blob later, the retry's
// content-addressed dedupe probe discovers it. Without a configured
// deadline this is a plain call — no goroutine per put.
func (s *ObjStore) withPutTimeout(pb *partBuf, fn func() error) error {
	if s.putTimeout <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	s.detach(pb, func() { done <- fn() })
	t := time.NewTimer(s.putTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		s.metrics.recordPutTimeout()
		return fmt.Errorf("store: put timed out after %v: %w", s.putTimeout, ErrPutTimeout)
	}
}

// putAt stores one immutable blob on target ti, under the per-put deadline.
// pb is the pooled buffer data lives in (nil = caller-owned data).
func (s *ObjStore) putAt(ti int, name string, data []byte, pb *partBuf) error {
	if err := validName(name); err != nil {
		return err
	}
	// The timer starts before the fault hook on purpose: injected latency
	// models the storage target, so it belongs in PutLatency.
	start := time.Now()
	err := s.withPutTimeout(pb, func() error {
		if err := opFault(s.faultAt(ti), OpPut, name); err != nil {
			return err
		}
		return s.writeTempAndRename(ti, "put", name, s.blobPathAt(ti, name), data)
	})
	if err != nil {
		s.metrics.recordFailure()
		return err
	}
	sec := time.Since(start).Seconds()
	s.metrics.recordPut(sec, int64(len(data)))
	s.observePutLatency(sec)
	return nil
}

// Put stores one immutable blob on the primary target. Re-putting an
// existing name is legal only with identical bytes (content-addressed
// callers get that by construction); the rename makes the operation
// idempotent either way. The caller may reuse data once Put returns.
func (s *ObjStore) Put(name string, data []byte) error {
	if s.putTimeout > 0 {
		// A timed-out attempt keeps reading after Put returns: give it a
		// private copy.
		data = append([]byte(nil), data...)
	}
	return s.putAt(0, name, data, nil)
}

// observePutLatency feeds the hedge trigger's latency reservoir.
func (s *ObjStore) observePutLatency(sec float64) {
	s.latMu.Lock()
	s.lats[s.latN%len(s.lats)] = sec
	s.latN++
	s.latMu.Unlock()
}

// hedgeTriggerSamples is how many put-latency observations the percentile
// trigger needs before it overrides the configured floor.
const hedgeTriggerSamples = 8

// hedgeDelay returns how long a write may stay outstanding before it is
// re-issued to the next target: the configured percentile of recently
// observed put latency, floored at HedgeAfter (also the fallback while the
// reservoir is still cold).
func (s *ObjStore) hedgeDelay() time.Duration {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	n := s.latN
	if n > len(s.lats) {
		n = len(s.lats)
	}
	if s.latN < hedgeTriggerSamples {
		return s.hedgeAfter
	}
	s.scratch = append(s.scratch[:0], s.lats[:n]...)
	sort.Float64s(s.scratch)
	idx := int(float64(n-1) * s.hedgePct / 100)
	d := time.Duration(s.scratch[idx] * float64(time.Second))
	if d < s.hedgeAfter {
		d = s.hedgeAfter
	}
	return d
}

// hedged runs do(0) and, while it stays outstanding past the hedge trigger
// (or fails outright), escalates to do(1), do(2), … — first success wins.
// Losing attempts are abandoned, not interrupted: idempotent writes make a
// straggler that finishes later land identical bytes, so nothing waits for
// it but Close; each holds pb (the buffer do reads, nil for none) until it
// returns. With no replicas this is a plain primary call.
func (s *ObjStore) hedged(pb *partBuf, do func(ti int) error) error {
	n := s.targets()
	if n == 1 {
		return do(0)
	}
	type res struct {
		ti  int
		err error
	}
	ch := make(chan res, n) // buffered: abandoned attempts never block
	launch := func(ti int) {
		s.detach(pb, func() { ch <- res{ti, do(ti)} })
	}
	launch(0)
	launched, pending := 1, 1
	var firstErr error
	for {
		var hedgeC <-chan time.Time
		var timer *time.Timer
		if launched < n {
			timer = time.NewTimer(s.hedgeDelay())
			hedgeC = timer.C
		}
		select {
		case r := <-ch:
			if timer != nil {
				timer.Stop()
			}
			pending--
			if r.err == nil {
				if r.ti > 0 {
					s.metrics.recordHedgeWin()
				}
				return nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if launched < n {
				// A definitive failure hedges immediately — no point waiting
				// out the trigger for a target that already said no.
				s.metrics.recordHedge()
				launch(launched)
				launched++
				pending++
			} else if pending == 0 {
				return firstErr
			}
		case <-hedgeC:
			s.metrics.recordHedge()
			launch(launched)
			launched++
			pending++
		}
	}
}

// getAt reads a blob from target ti.
func (s *ObjStore) getAt(ti int, name string) ([]byte, error) {
	start := time.Now()
	if err := opFault(s.faultAt(ti), OpGet, name); err != nil {
		s.metrics.recordFailure()
		return nil, err
	}
	b, err := os.ReadFile(s.blobPathAt(ti, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: get %q: %w", name, ErrNotExist)
		}
		s.metrics.recordFailure()
		return nil, fmt.Errorf("store: get %q: %w", name, err)
	}
	s.metrics.recordGet(time.Since(start).Seconds(), int64(len(b)))
	return b, nil
}

// Get reads a blob back, falling back across replica targets in order — a
// part that was hedged onto a replica stays readable even when the primary
// lost (or never received) it.
func (s *ObjStore) Get(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	var firstErr error
	for ti := 0; ti < s.targets(); ti++ {
		b, err := s.getAt(ti, name)
		if err == nil {
			return b, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// Stat reports a blob's size — the dedupe probe — falling back across
// replica targets like Get.
func (s *ObjStore) Stat(name string) (ObjectInfo, error) {
	if err := validName(name); err != nil {
		return ObjectInfo{}, err
	}
	var firstErr error
	for ti := 0; ti < s.targets(); ti++ {
		info, err := s.statAt(ti, name)
		if err == nil {
			return info, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return ObjectInfo{}, firstErr
}

func (s *ObjStore) statAt(ti int, name string) (ObjectInfo, error) {
	if err := opFault(s.faultAt(ti), OpStat, name); err != nil {
		s.metrics.recordFailure()
		return ObjectInfo{}, err
	}
	fi, err := os.Stat(s.blobPathAt(ti, name))
	if err != nil {
		if os.IsNotExist(err) {
			return ObjectInfo{}, fmt.Errorf("store: stat %q: %w", name, ErrNotExist)
		}
		s.metrics.recordFailure()
		return ObjectInfo{}, fmt.Errorf("store: stat %q: %w", name, err)
	}
	if fi.IsDir() {
		return ObjectInfo{}, fmt.Errorf("store: stat %q: %w", name, ErrNotExist)
	}
	return ObjectInfo{Name: name, Size: fi.Size()}, nil
}

// List returns the blobs whose names start with prefix, sorted — the union
// across targets, so hedged parts that only landed on a replica are listed.
func (s *ObjStore) List(prefix string) ([]ObjectInfo, error) {
	if err := opFault(s.fault, OpList, prefix); err != nil {
		s.metrics.recordFailure()
		return nil, err
	}
	seen := map[string]bool{}
	var out []ObjectInfo
	for ti := 0; ti < s.targets(); ti++ {
		root := filepath.Join(s.rootAt(ti), "blobs")
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			name := filepath.ToSlash(rel)
			if !strings.HasPrefix(name, prefix) || seen[name] {
				return nil
			}
			seen[name] = true
			fi, err := d.Info()
			if err != nil {
				return err
			}
			out = append(out, ObjectInfo{Name: name, Size: fi.Size()})
			return nil
		})
		if err != nil {
			s.metrics.recordFailure()
			return nil, fmt.Errorf("store: list: %w", err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Delete removes a blob. Deleting a part still referenced by a manifest
// breaks that object — garbage collection of unreferenced parts is the
// caller's (or a future GC pass's) concern.
func (s *ObjStore) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := opFault(s.fault, OpDelete, name); err != nil {
		s.metrics.recordFailure()
		return err
	}
	if err := os.Remove(s.blobPath(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("store: delete %q: %w", name, ErrNotExist)
		}
		s.metrics.recordFailure()
		return fmt.Errorf("store: delete %q: %w", name, err)
	}
	s.metrics.recordDelete()
	return nil
}

// Create starts a multipart object upload.
func (s *ObjStore) Create(object string) (ObjectWriter, error) {
	if err := validName(object); err != nil {
		return nil, err
	}
	return &objWriter{s: s, object: object, buf: s.getPartBuf()}, nil
}

// objWriter accumulates partSize bytes at a time and hands full parts to
// the upload pool; Write blocks when putWorkers parts are already in
// flight, so memory stays bounded at (putWorkers+1) part buffers no matter
// how large the object is.
type objWriter struct {
	s      *ObjStore
	object string
	buf    *partBuf
	size   int64
	nparts int
	wg     sync.WaitGroup

	mu       sync.Mutex
	parts    []Part // indexed by part number, filled as uploads finish
	firstErr error
	done     bool
}

func (w *objWriter) setErr(err error) {
	w.mu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.mu.Unlock()
}

func (w *objWriter) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

func (w *objWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("store: write on finished object %q", w.object)
	}
	if err := w.err(); err != nil {
		return 0, err // fail fast: a part already failed terminally
	}
	written := 0
	for len(p) > 0 {
		room := int(w.s.partSize) - len(w.buf.b)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf.b = append(w.buf.b, p[:n]...)
		p = p[n:]
		written += n
		w.size += int64(n)
		if int64(len(w.buf.b)) == w.s.partSize {
			w.dispatchPart()
		}
	}
	return written, nil
}

// dispatchPart hands the current buffer to the upload pool and starts a
// fresh one. It blocks on the pool semaphore — the multipart backpressure
// point. The upload releases the writer's reference on the buffer; attempts
// it left running hold their own.
func (w *objWriter) dispatchPart() {
	buf := w.buf
	idx := w.nparts
	w.nparts++
	w.mu.Lock()
	w.parts = append(w.parts, Part{}) // reserve slot idx, filled by the upload
	w.mu.Unlock()

	w.s.metrics.partStart()
	w.s.sem <- struct{}{} // acquire a pool slot (blocks when saturated)
	w.wg.Add(1)
	go func() {
		defer func() {
			<-w.s.sem
			w.s.metrics.partEnd()
			w.s.releasePartBuf(buf)
			w.wg.Done()
		}()
		part, err := w.s.uploadPart(buf.b, buf)
		if err != nil {
			w.setErr(fmt.Errorf("store: object %q part %d: %w", w.object, idx, err))
			return
		}
		w.mu.Lock()
		w.parts[idx] = part
		w.mu.Unlock()
	}()

	w.buf = w.s.getPartBuf()
}

// Retry backoff bounds: capped exponential starting at the base, with full
// jitter over the upper half of each step. The cap keeps a long outage from
// growing waits past what the put timeout already bounds; the jitter keeps a
// burst of failed parts from retrying in lockstep against a target that just
// browned out.
const (
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffCap  = 250 * time.Millisecond
)

// backoffBeforeAttempt sleeps the capped-exponential, jittered backoff that
// precedes retry attempt (attempt ≥ 2) and records the wait in Stats.
func (s *ObjStore) backoffBeforeAttempt(attempt int) {
	d := retryBackoffCap
	if shift := uint(attempt - 2); shift < 8 {
		if step := retryBackoffBase << shift; step < d {
			d = step
		}
	}
	s.latMu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(d)/2 + 1))
	s.latMu.Unlock()
	d = d/2 + j
	s.metrics.recordBackoff(d.Seconds())
	time.Sleep(d)
}

// uploadPart content-addresses one part and makes it durable: a part whose
// blob already exists is a dedupe hit (skip the upload entirely); otherwise
// put it — hedged across replica targets when configured — retrying
// transient failures with backoff, idempotent because the name is the
// content. pb is the pooled buffer data lives in (nil = caller-owned).
func (s *ObjStore) uploadPart(data []byte, pb *partBuf) (Part, error) {
	sum := sha256.Sum256(data)
	part := Part{
		Blob:   casBlobName(sum),
		Size:   int64(len(data)),
		SHA256: hex.EncodeToString(sum[:]),
	}
	if info, err := s.Stat(part.Blob); err == nil && info.Size == part.Size {
		s.dedupeHit(part)
		return part, nil
	}
	var lastErr error
	for attempt := 1; attempt <= s.putAttempts; attempt++ {
		if attempt > 1 {
			s.metrics.recordRetry()
			s.backoffBeforeAttempt(attempt)
			// A failed attempt may have landed the blob anyway (e.g. the
			// caller observed a timeout after the rename); content
			// addressing lets the retry begin with the same dedupe probe.
			if info, err := s.Stat(part.Blob); err == nil && info.Size == part.Size {
				s.dedupeHit(part)
				return part, nil
			}
		}
		if lastErr = s.hedged(pb, func(ti int) error { return s.putAt(ti, part.Blob, data, pb) }); lastErr == nil {
			return part, nil
		}
	}
	return Part{}, fmt.Errorf("upload failed after %d attempts: %w", s.putAttempts, lastErr)
}

// dedupeHit records a skipped upload and refreshes the existing blob's
// mtime. The refresh is load-bearing for online GC: its sweep keeps any
// unreferenced blob younger than the grace window, so a part an in-flight
// writer is about to reference must look *recently used*, not as old as
// its first upload — otherwise a sweep racing the dedupe-then-commit
// window could delete a part a just-committed manifest references.
func (s *ObjStore) dedupeHit(part Part) {
	now := time.Now()
	_ = os.Chtimes(s.blobPath(part.Blob), now, now) // best-effort: worst case the blob just looks older
	s.metrics.recordDedupe(part.Size)
}

func (w *objWriter) Commit() (*Manifest, error) {
	if w.done {
		return nil, fmt.Errorf("store: object %q already finished", w.object)
	}
	w.done = true
	if len(w.buf.b) > 0 {
		w.dispatchPart()
	}
	// Release the final buffer and wait for every in-flight part.
	w.s.releasePartBuf(w.buf)
	w.buf = nil
	w.wg.Wait()
	if err := w.err(); err != nil {
		return nil, err
	}
	m := &Manifest{Object: w.object, Size: w.size, Parts: w.parts}
	if err := w.s.Commit(m); err != nil {
		return nil, err
	}
	return m, nil
}

func (w *objWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	if w.buf != nil {
		w.s.releasePartBuf(w.buf)
		w.buf = nil
	}
	w.wg.Wait()
	// Already-uploaded parts stay as unreferenced CAS blobs: invisible
	// without a manifest, and free dedupe fodder for the retry.
	return nil
}

// partDurable reports whether a part's blob is durable on any target — a
// part that was hedged onto a replica satisfies the manifest-last invariant
// just as well as one on the primary, because reads fall back the same way.
func (s *ObjStore) partDurable(p Part) bool {
	for ti := 0; ti < s.targets(); ti++ {
		if fi, err := os.Stat(s.blobPathAt(ti, p.Blob)); err == nil && fi.Size() == p.Size {
			return true
		}
	}
	return false
}

// commitAt lands one manifest on target ti, under the per-put deadline.
func (s *ObjStore) commitAt(ti int, object string, enc []byte) error {
	return s.withPutTimeout(nil, func() error {
		if err := opFault(s.faultAt(ti), OpCommit, object); err != nil {
			return err
		}
		return s.writeTempAndRename(ti, "commit", object, s.manifestPathAt(ti, object), enc)
	})
}

// Commit publishes a manifest, making its object visible. Every part blob
// must already be durable — the manifest-last protocol's invariant. The
// manifest write itself is hedged like part puts: a hung primary must not
// stall the commit that advances the durability watermark.
func (s *ObjStore) Commit(m *Manifest) error {
	if m == nil || m.Object == "" {
		return fmt.Errorf("store: commit without an object name")
	}
	if err := validName(m.Object); err != nil {
		return err
	}
	for i, p := range m.Parts {
		if !s.partDurable(p) {
			s.metrics.recordFailure()
			return fmt.Errorf("store: commit %q: part %d blob %q not durable", m.Object, i, p.Blob)
		}
	}
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: commit %q: %w", m.Object, err)
	}
	enc = append(enc, '\n')
	if err := s.hedged(nil, func(ti int) error { return s.commitAt(ti, m.Object, enc) }); err != nil {
		s.metrics.recordFailure()
		return err
	}
	s.metrics.recordCommit()
	return nil
}

// maxManifestBytes bounds how much manifest JSON the decoder will even
// look at: a manifest describes parts of at least 1 byte each, so any
// legitimate manifest is far below this, and a corrupt or hostile one
// cannot drive decoding-time allocations past the cap.
const maxManifestBytes = 16 << 20

// decodeManifest parses and validates manifest JSON the way the DSF reader
// treats its TOC: every field is bounds-checked before anything downstream
// trusts it, so corrupt bytes produce an error, never a panic, an
// over-allocation or a manifest whose arithmetic readers would trip over.
// object is the name the manifest was fetched for ("" skips the match
// check, for decoders without that context).
func decodeManifest(b []byte, object string) (*Manifest, error) {
	if len(b) > maxManifestBytes {
		return nil, fmt.Errorf("store: manifest exceeds %d bytes", maxManifestBytes)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if err := validName(m.Object); err != nil {
		return nil, fmt.Errorf("store: manifest object: %w", err)
	}
	if object != "" && m.Object != object {
		return nil, fmt.Errorf("store: manifest names object %q, expected %q", m.Object, object)
	}
	if m.Size < 0 {
		return nil, fmt.Errorf("store: manifest %q: negative size %d", m.Object, m.Size)
	}
	var sum int64
	for i, p := range m.Parts {
		if err := validName(p.Blob); err != nil {
			return nil, fmt.Errorf("store: manifest %q: part %d blob: %w", m.Object, i, err)
		}
		if p.Size <= 0 {
			return nil, fmt.Errorf("store: manifest %q: part %d has non-positive size %d", m.Object, i, p.Size)
		}
		if p.SHA256 != "" {
			if len(p.SHA256) != 2*sha256.Size {
				return nil, fmt.Errorf("store: manifest %q: part %d digest length %d", m.Object, i, len(p.SHA256))
			}
			if _, err := hex.DecodeString(p.SHA256); err != nil {
				return nil, fmt.Errorf("store: manifest %q: part %d digest: %w", m.Object, i, err)
			}
		}
		if p.Size > m.Size-sum {
			return nil, fmt.Errorf("store: manifest %q: parts exceed object size %d", m.Object, m.Size)
		}
		sum += p.Size
	}
	if sum != m.Size {
		return nil, fmt.Errorf("store: manifest %q: size %d != part sum %d", m.Object, m.Size, sum)
	}
	return &m, nil
}

// Manifest reads a committed object's manifest back, re-validating every
// field — a manifest corrupted at rest fails loudly here instead of
// propagating bad arithmetic into readers. Like Get, it falls back across
// replica targets: a commit whose hedge won on a replica is still visible.
func (s *ObjStore) Manifest(object string) (*Manifest, error) {
	if err := validName(object); err != nil {
		return nil, err
	}
	var firstErr error
	for ti := 0; ti < s.targets(); ti++ {
		m, err := s.manifestAt(ti, object)
		if err == nil {
			return m, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

func (s *ObjStore) manifestAt(ti int, object string) (*Manifest, error) {
	if err := opFault(s.faultAt(ti), OpGet, object); err != nil {
		s.metrics.recordFailure()
		return nil, err
	}
	b, err := os.ReadFile(s.manifestPathAt(ti, object))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: manifest %q: %w", object, ErrNotExist)
		}
		s.metrics.recordFailure()
		return nil, fmt.Errorf("store: manifest %q: %w", object, err)
	}
	m, err := decodeManifest(b, object)
	if err != nil {
		return nil, fmt.Errorf("store: manifest %q: %w", object, err)
	}
	return m, nil
}

// Objects lists the committed objects (those with a manifest), sorted. The
// listing is the union across targets: an object whose hedged commit landed
// only on a replica still shows up.
func (s *ObjStore) Objects() ([]ObjectInfo, error) {
	if err := opFault(s.fault, OpList, ""); err != nil {
		s.metrics.recordFailure()
		return nil, err
	}
	seen := map[string]bool{}
	var out []ObjectInfo
	for ti := 0; ti < s.targets(); ti++ {
		root := filepath.Join(s.rootAt(ti), "manifests")
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(p, ".json") {
				return nil
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			object := strings.TrimSuffix(filepath.ToSlash(rel), ".json")
			if seen[object] {
				return nil
			}
			seen[object] = true
			m, err := s.Manifest(object)
			if err != nil {
				return err
			}
			out = append(out, ObjectInfo{Name: object, Size: m.Size})
			return nil
		})
		if err != nil {
			s.metrics.recordFailure()
			return nil, fmt.Errorf("store: objects: %w", err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Open returns random access over a committed object, resolving reads
// through its manifest to the content-addressed parts.
func (s *ObjStore) Open(object string) (ObjectReader, error) {
	return s.OpenCached(object, nil)
}

// OpenCached is Open with an external digest-addressed part cache attached:
// the reader consults it before every backend Get and feeds fetched parts
// back into it. Because parts are content-addressed, one cached part serves
// every object that references the same bytes — the hook the read gateway's
// LRU plugs into. A nil cache degrades to plain Open.
func (s *ObjStore) OpenCached(object string, cache PartCache) (ObjectReader, error) {
	if err := opFault(s.fault, OpOpen, object); err != nil {
		s.metrics.recordFailure()
		return nil, err
	}
	m, err := s.Manifest(object)
	if err != nil {
		return nil, err
	}
	r := &objReader{s: s, m: m, cache: cache, offsets: make([]int64, len(m.Parts)+1), cached: -1}
	var off int64
	for i, p := range m.Parts {
		r.offsets[i] = off
		off += p.Size
	}
	r.offsets[len(m.Parts)] = off
	if off != m.Size {
		return nil, fmt.Errorf("store: open %q: manifest size %d != part sum %d", object, m.Size, off)
	}
	return r, nil
}

// StatObject reports the committed object's revalidation signature: the
// size and mtime of its manifest file. Any manifest change (there should be
// none — objects are write-once — but operators can overwrite) changes the
// signature, which is what cache layers key invalidation on.
func (s *ObjStore) StatObject(object string) (ObjectStat, error) {
	if err := validName(object); err != nil {
		return ObjectStat{}, err
	}
	if err := opFault(s.fault, OpStat, object); err != nil {
		s.metrics.recordFailure()
		return ObjectStat{}, err
	}
	var firstErr error
	for ti := 0; ti < s.targets(); ti++ {
		fi, err := os.Stat(s.manifestPathAt(ti, object))
		if err == nil {
			return ObjectStat{Size: fi.Size(), ModTime: fi.ModTime()}, nil
		}
		if os.IsNotExist(err) {
			err = fmt.Errorf("store: stat object %q: %w", object, ErrNotExist)
		} else {
			s.metrics.recordFailure()
			err = fmt.Errorf("store: stat object %q: %w", object, err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return ObjectStat{}, firstErr
}

// objReader maps ReadAt offsets onto manifest parts, caching the most
// recently fetched part — DSF's read pattern (header, footer, TOC, then
// ascending chunks) makes that one-slot cache effective for a single
// sequential reader. Concurrent readers with interleaved offsets would
// thrash the one slot; they should share an external PartCache
// (OpenCached), which absorbs the interleaving.
type objReader struct {
	s       *ObjStore
	m       *Manifest
	cache   PartCache // optional external digest-addressed cache
	offsets []int64   // offsets[i] is part i's start; last entry is the size

	// mu guards only the one-slot cache fields. It is never held across a
	// backend Get: holding it there would serialize every concurrent reader
	// of the object behind one slow fetch.
	mu      sync.Mutex
	cached  int
	partBuf []byte
}

func (r *objReader) Size() int64 { return r.m.Size }

func (r *objReader) Close() error {
	r.mu.Lock()
	r.partBuf = nil
	r.cached = -1
	r.mu.Unlock()
	return nil
}

// partAt returns the index of the part containing offset off.
func (r *objReader) partAt(off int64) int {
	i := sort.Search(len(r.m.Parts), func(i int) bool { return r.offsets[i+1] > off })
	return i
}

// fetchPart returns part i's bytes, consulting the external cache first.
// The returned slice is immutable by contract — it may be shared with the
// cache and with other readers.
func (r *objReader) fetchPart(i int) ([]byte, error) {
	part := r.m.Parts[i]
	key := PartCacheKey(part)
	if r.cache != nil {
		if b, ok := r.cache.GetPart(key); ok && int64(len(b)) == part.Size {
			return b, nil
		}
	}
	b, err := r.s.Get(part.Blob)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != part.Size {
		return nil, fmt.Errorf("store: part %q is %d bytes, manifest says %d",
			part.Blob, len(b), part.Size)
	}
	if r.cache != nil {
		r.cache.AddPart(key, b)
	}
	return b, nil
}

func (r *objReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	// io.ReaderAt contract: a read starting at or past the end reports
	// io.EOF even for a zero-length p — callers probe for EOF this way.
	if off >= r.m.Size {
		return 0, io.EOF
	}
	total := 0
	for len(p) > 0 {
		if off >= r.m.Size {
			return total, io.EOF
		}
		i := r.partAt(off)
		// Fast path: the one-slot cache, locked only for the pointer read.
		// Part buffers are immutable once installed, so copying from buf
		// outside the lock is safe even if another reader replaces the slot.
		r.mu.Lock()
		var buf []byte
		if r.cached == i {
			buf = r.partBuf
		}
		r.mu.Unlock()
		if buf == nil {
			b, err := r.fetchPart(i) // backend fetch happens unlocked
			if err != nil {
				return total, err
			}
			r.mu.Lock()
			r.cached, r.partBuf = i, b
			r.mu.Unlock()
			buf = b
		}
		n := copy(p, buf[off-r.offsets[i]:])
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

// Stats snapshots the backend metrics.
func (s *ObjStore) Stats() Stats { return s.metrics.snapshot() }

// Close waits for every put attempt still running detached from its caller
// (timed out, or a losing hedge), then removes the temp files this instance
// left behind unrenamed. The store's owner calls it once no writer is
// active; an attempt stuck in a hung target delays it until the target
// answers.
func (s *ObjStore) Close() error {
	s.attempts.Wait()
	s.tmpMu.Lock()
	defer s.tmpMu.Unlock()
	var firstErr error
	for tmp := range s.tmps {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = fmt.Errorf("store: close: %w", err)
		}
		delete(s.tmps, tmp)
	}
	return firstErr
}
