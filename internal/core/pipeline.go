package core

import (
	"sync"
	"time"

	"damaris/internal/aggregate"
	"damaris/internal/control"
	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
	"damaris/internal/store"
)

// pipeline is the dedicated core's asynchronous write-behind persistence
// path: a bounded queue of completed iterations feeding N writer
// goroutines. The event loop hands a finished iteration's entries over
// through submit and immediately resumes draining client events; writers
// make the data durable, release the shared-memory chunks, and advance the
// client flow-control window — so clients re-couple to I/O latency only
// when the queue is full (backpressure) or they outrun the flow window.
//
// Durability ordering: writers may complete iterations out of submission
// order, but the flow window and the per-iteration completion callback
// advance like a TCP ack — strictly in submission order, once every earlier
// submitted iteration is durable too. Shared-memory chunks, by contrast,
// are released as soon as their own iteration's write returns, since the
// space is reusable regardless of sibling iterations.
//
// Zero writers is the synchronous baseline: there is no queue and no writer
// goroutine, and submit persists each iteration on the event loop itself,
// one per call, through the same scheduler wait, release-after-durability
// and in-order ack code the writers run.
type pipeline struct {
	persister Persister
	scheduler Scheduler
	maxBatch  int
	jobs      chan persistJob // nil with zero writers
	wg        sync.WaitGroup
	start     time.Time
	// stopped freezes the utilization wall clock once close() drains — a
	// quiesced pipeline's snapshot must stop changing (the obs bench scrapes
	// it twice and compares bytes). Guarded by mu; zero while running.
	stopped time.Time

	// onDurable is invoked in submission (ack) order for every iteration,
	// after the iteration and all earlier ones are durable. persistDur is
	// the iteration's share of its persist call (call duration / batch
	// size); err is the iteration's persist error, if any.
	onDurable func(it int64, persistDur, latency float64, bytes int64, err error)

	// ackMu serializes the ack-drain + onDurable section across writers,
	// so callbacks really are delivered in watermark order (p.mu alone
	// only orders the state updates, not the calls after unlock).
	ackMu sync.Mutex

	// scratch, when attached, is the degraded-mode overflow; pressure
	// counts consecutive submits that found the queue full. Both are
	// touched only by the event loop (the sole submitter), so neither
	// needs p.mu.
	scratch  *scratch
	pressure int

	// tracer, when attached (before the first submit — writers see the
	// write through the job channel's happens-before edge), records the
	// queue/spill/persist/ack legs of every iteration's lifecycle;
	// trServer labels the spans with this dedicated core's world rank.
	tracer   *obs.Tracer
	trServer int

	mu        sync.Mutex
	closed    bool
	ws        control.WorkerSet // resizable writer-slot bookkeeping
	nextSeq   int64
	ackSeq    int64                 // all seqs < ackSeq have been acked
	done      map[int64]persistDone // completed seqs awaiting contiguous ack
	inFlight  int                   // submitted, not yet durable
	maxDepth  int
	depthAcc  stats.Accumulator // queue depth sampled at submit/complete
	latAcc    stats.Accumulator // submit→durable seconds, per iteration
	batchAcc  stats.Accumulator // iterations per persist call
	recentLat float64           // last observed submit→durable latency
	enqueued  int64
	completed int64
	failures  int64
}

// persistJob is one completed iteration travelling from the event loop to a
// writer.
type persistJob struct {
	seq       int64
	it        int64
	entries   []*metadata.Entry
	bytes     int64
	submitted time.Time
}

// persistDone is a finished job waiting for every earlier seq to finish so
// the ack watermark can pass it.
type persistDone struct {
	it         int64
	persistDur float64
	latency    float64
	bytes      int64
	err        error
}

// newPipeline starts `workers` writer goroutines over a queue of depth
// `depth`; workers=0 builds the writerless synchronous pipeline. Batching
// is capped at the queue depth: a writer wakes, takes one job, then
// greedily drains whatever else is already queued so one durable
// persister call can cover several iterations (amortizing per-call costs —
// file creation, fsync — exactly where a slow persister hurts most). When a
// Scheduler is present that is not batch-aware, batching is disabled, since
// each iteration must then wait for its own transfer slot (paper §IV-D); a
// BatchScheduler keeps batching on and waits once per batch instead.
func newPipeline(persister Persister, scheduler Scheduler, workers, depth int,
	onDurable func(it int64, persistDur, latency float64, bytes int64, err error)) *pipeline {
	p := &pipeline{
		persister: persister,
		scheduler: scheduler,
		maxBatch:  1,
		start:     time.Now(),
		onDurable: onDurable,
		done:      make(map[int64]persistDone),
	}
	if workers < 1 {
		return p
	}
	if depth < 1 {
		depth = 1
	}
	p.maxBatch = depth
	if scheduler != nil {
		if _, ok := scheduler.(BatchScheduler); !ok {
			p.maxBatch = 1
		}
	}
	p.jobs = make(chan persistJob, depth)
	p.mu.Lock()
	p.ws.Resize(workers, p.startWriter)
	p.mu.Unlock()
	return p
}

// startWriter launches one writer goroutine in its slot. Caller holds p.mu
// (control.WorkerSet.Resize invokes it under the pool's lock).
func (p *pipeline) startWriter(slot int, stop chan struct{}) {
	p.wg.Add(1)
	go p.writer(slot, stop)
}

// resize changes the commanded writer count between iterations — the
// control plane's writer-pool knob. Growing starts fresh writers on the
// shared queue; shrinking signals the newest writers to exit after their
// current batch (slot semantics in control.WorkerSet). The pool never
// drops below one writer, and resizing never affects durability ordering:
// acks still advance strictly by submission seq, which is independent of
// which (or how many) writers complete the work. Must not race close, and
// never applies to the writerless pipeline (auto control requires writers).
func (p *pipeline) resize(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.ws.Resize(n, p.startWriter)
}

// attachScratch wires the degraded-mode spill path in. Must be called
// before the first submit (the server does it right after newPipeline).
func (p *pipeline) attachScratch(sc *scratch) { p.scratch = sc }

// attachTracer wires lifecycle tracing in. Must be called before the first
// submit, like attachScratch.
func (p *pipeline) attachTracer(tr *obs.Tracer, server int) {
	p.tracer = tr
	p.trServer = server
}

// submit hands one completed iteration to the writers. It blocks while the
// queue is full — the backpressure point for the event loop — and must not
// be called after close. Without writers it persists the iteration before
// returning.
//
// With a scratch attached, sustained backpressure changes the story: once
// the queue has been full for `scratch.after` consecutive submits, the
// event loop pulls the oldest queued iteration, spills it to the local
// scratch file (fsynced — locally durable, so its chunks are released and
// its ack fires through the normal in-order watermark), and enqueues the
// new iteration in the freed slot. Clients therefore keep streaming at
// local-disk speed while the backend is browned out, instead of freezing
// behind the durability watermark.
func (p *pipeline) submit(it int64, entries []*metadata.Entry) {
	var bytes int64
	for _, e := range entries {
		bytes += e.Size()
	}
	p.mu.Lock()
	seq := p.nextSeq
	p.nextSeq++
	p.enqueued++
	p.inFlight++
	if p.inFlight > p.maxDepth {
		p.maxDepth = p.inFlight
	}
	p.depthAcc.Add(float64(p.inFlight))
	p.mu.Unlock()
	job := persistJob{seq: seq, it: it, entries: entries, bytes: bytes, submitted: time.Now()}
	if p.jobs == nil {
		p.persistAndAck(inlineWriter, []persistJob{job})
		return
	}
	if p.scratch == nil {
		p.jobs <- job
		return
	}
	select {
	case p.jobs <- job:
		p.pressure = 0
		return
	default:
	}
	p.pressure++
	if p.pressure < p.scratch.after {
		p.jobs <- job // backpressure below threshold: block as usual
		return
	}
	for {
		// Spill the oldest queued iteration — the lowest unacked seq among
		// the queued, so acking it advances the watermark soonest. If a
		// writer drained the queue in the meantime, the retry send just
		// succeeds (the event loop is the only submitter).
		if old, ok := tryRecv(p.jobs); ok {
			p.spillJob(old)
		}
		select {
		case p.jobs <- job:
			return
		default:
		}
	}
}

// spillJob diverts one iteration to the scratch file, releases its chunks,
// and completes it through the ack watermark. A spill error (local disk
// failure) surfaces as the iteration's persist error — there is nowhere
// left to put the data.
func (p *pipeline) spillJob(j persistJob) {
	start := time.Now()
	err := p.scratch.spill(j.it, j.entries)
	wall := time.Since(start)
	p.tracer.Record(obs.StageSpill, p.trServer, j.it, start, wall, j.bytes, err != nil)
	dur := wall.Seconds()
	for _, e := range j.entries {
		e.Release()
	}
	p.completeOne(j, dur, err)
}

// completeOne records one iteration durable (or failed) outside the writer
// path and advances the in-order ack watermark — persistAndAck's tail for
// a single job.
func (p *pipeline) completeOne(j persistJob, dur float64, err error) {
	now := time.Now()
	p.tracer.Record(obs.StageAck, p.trServer, j.it, j.submitted, now.Sub(j.submitted), j.bytes, err != nil)
	p.ackMu.Lock()
	p.mu.Lock()
	p.completed++
	p.inFlight--
	p.depthAcc.Add(float64(p.inFlight))
	lat := now.Sub(j.submitted).Seconds()
	p.latAcc.Add(lat)
	p.recentLat = lat
	if err != nil {
		p.failures++
	}
	p.done[j.seq] = persistDone{it: j.it, persistDur: dur, latency: lat, bytes: j.bytes, err: err}
	acks := p.drainAcksLocked()
	p.mu.Unlock()
	for _, d := range acks {
		if p.onDurable != nil {
			p.onDurable(d.it, d.persistDur, d.latency, d.bytes, d.err)
		}
	}
	p.ackMu.Unlock()
}

// drainAcksLocked advances the ack watermark over every contiguous
// completed seq. Caller holds both ackMu and p.mu; the returned acks must
// be delivered (in order) before releasing ackMu.
func (p *pipeline) drainAcksLocked() []persistDone {
	var acks []persistDone
	for {
		d, ok := p.done[p.ackSeq]
		if !ok {
			break
		}
		delete(p.done, p.ackSeq)
		p.ackSeq++
		acks = append(acks, d)
	}
	return acks
}

// spillActive reports whether spilled iterations are still awaiting replay
// — the tuner's degraded-mode signal.
func (p *pipeline) spillActive() bool {
	return p.scratch != nil && p.scratch.active()
}

// close stops accepting work, waits for the writers to drain every queued
// iteration, and returns. Idempotent is the caller's job (Server.Close uses
// a sync.Once).
func (p *pipeline) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	if p.jobs != nil {
		close(p.jobs)
	}
	p.wg.Wait()
	p.mu.Lock()
	p.stopped = time.Now()
	p.mu.Unlock()
}

// writer is one persist goroutine: pop a job, drain a batch, make it
// durable, release the chunks, ack. A writer stopped by resize exits
// between batches — never mid-batch, so every popped job is persisted.
func (p *pipeline) writer(id int, stop chan struct{}) {
	defer p.wg.Done()
	batch := make([]persistJob, 0, p.maxBatch)
	for {
		// Non-blocking stop check first: a closed stop wins even while jobs
		// keep arriving (the blocking select picks arbitrarily between ready
		// cases).
		select {
		case <-stop:
			return
		default:
		}
		var job persistJob
		var ok bool
		select {
		case <-stop:
			return
		case job, ok = <-p.jobs:
			if !ok {
				return
			}
		}
		batch = append(batch[:0], job)
		for len(batch) < p.maxBatch {
			extra, ok := tryRecv(p.jobs)
			if !ok {
				break
			}
			batch = append(batch, extra)
		}
		p.persistAndAck(id, batch)
	}
}

// tryRecv is a non-blocking receive.
func tryRecv(ch chan persistJob) (persistJob, bool) {
	select {
	case j, ok := <-ch:
		return j, ok
	default:
		return persistJob{}, false
	}
}

// inlineWriter is the writer id persistAndAck gets when the event loop
// persists for a writerless pipeline; it owns no WorkerSet slot.
const inlineWriter = -1

// persistAndAck writes one batch durably, releases its shared-memory
// chunks, and records completion for in-order acking.
func (p *pipeline) persistAndAck(id int, batch []persistJob) {
	start := time.Now()
	errs := make([]error, len(batch))
	if bp, ok := p.persister.(BatchPersister); ok && len(batch) > 1 {
		// A batch-aware scheduler waits once per batch, for the slot of the
		// batch's first iteration (§IV-D slots composed with write-behind
		// batching; non-batch-aware schedulers never see batches — maxBatch
		// is 1 then).
		if bs, ok := p.scheduler.(BatchScheduler); ok {
			lo, hi := batch[0].it, batch[0].it
			for _, j := range batch[1:] {
				if j.it < lo {
					lo = j.it
				}
				if j.it > hi {
					hi = j.it
				}
			}
			bs.WaitTurnBatch(lo, hi)
		}
		ib := make([]IterationBatch, len(batch))
		for i, j := range batch {
			ib[i] = IterationBatch{Iteration: j.it, Entries: j.entries}
		}
		// One durable call covers the whole batch; an error taints every
		// iteration in it.
		if err := bp.PersistBatch(ib); err != nil {
			for i := range errs {
				errs[i] = err
			}
		}
	} else {
		for i, j := range batch {
			if p.scheduler != nil {
				p.scheduler.WaitTurn(j.it)
			}
			errs[i] = p.persister.Persist(j.it, j.entries)
		}
	}
	callDur := time.Since(start)
	dur := callDur.Seconds()
	// The iterations of this batch are durable (or definitively failed):
	// only now may their shared-memory chunks be released. On error the
	// data is gone either way, so liveness wins — release regardless.
	for _, j := range batch {
		for _, e := range j.entries {
			e.Release()
		}
	}

	now := time.Now()
	// Lifecycle spans, one triple per iteration: queue wait (submit to
	// writer pickup), persist (each iteration carries the whole batch's
	// call span — its durability really did take that long) and the full
	// submit-to-durable ack latency the flow window tracks.
	for i, j := range batch {
		p.tracer.Record(obs.StageQueue, p.trServer, j.it, j.submitted, start.Sub(j.submitted), j.bytes, false)
		p.tracer.Record(obs.StagePersist, p.trServer, j.it, start, callDur, j.bytes, errs[i] != nil)
		p.tracer.Record(obs.StageAck, p.trServer, j.it, j.submitted, now.Sub(j.submitted), j.bytes, errs[i] != nil)
	}
	// Each iteration is charged its share of the batch's persist call, so
	// Σ WriteTimes stays the real time spent persisting rather than being
	// inflated by the batch factor.
	perIt := dur / float64(len(batch))
	p.ackMu.Lock()
	p.mu.Lock()
	if id != inlineWriter {
		p.ws.AddBusy(id, dur)
	}
	p.batchAcc.Add(float64(len(batch)))
	for i, j := range batch {
		p.completed++
		p.inFlight--
		p.depthAcc.Add(float64(p.inFlight))
		lat := now.Sub(j.submitted).Seconds()
		p.latAcc.Add(lat)
		p.recentLat = lat
		if errs[i] != nil {
			p.failures++
		}
		p.done[j.seq] = persistDone{it: j.it, persistDur: perIt, latency: lat, bytes: j.bytes, err: errs[i]}
	}
	// Advance the ack watermark over every contiguous completed seq.
	acks := p.drainAcksLocked()
	p.mu.Unlock()
	// Deliver under ackMu (not p.mu, which writers need to complete other
	// batches): a second writer advancing the watermark further must wait
	// here until these earlier acks are delivered.
	for _, d := range acks {
		if p.onDurable != nil {
			p.onDurable(d.it, d.persistDur, d.latency, d.bytes, d.err)
		}
	}
	p.ackMu.Unlock()
}

// PipelineStats is a snapshot of the write-behind pipeline's per-stage
// metrics, exported through Server.PipelineStats and reported by
// cmd/damaris-run.
type PipelineStats struct {
	// Workers is the effective (possibly auto-tuned) writer goroutine count
	// (0 = synchronous baseline).
	Workers int
	// QueueDepth is the configured bound on in-flight iterations
	// (persist_queue_depth; the synchronous baseline holds one at a time
	// whatever it says).
	QueueDepth int
	// Window is the effective client flow-window depth (equals QueueDepth
	// under static control; the tuner moves it in auto mode). 1 in the
	// synchronous baseline.
	Window int
	// Resizes counts live writer-pool size changes (control.Tuner activity).
	Resizes int64
	// Enqueued and Completed count iterations through the pipeline.
	Enqueued, Completed int64
	// Failures counts iterations whose persist returned an error.
	Failures int64
	// MaxInFlight is the high-water mark of queued+writing iterations.
	MaxInFlight int
	// Depth summarizes the in-flight count sampled at every submit and
	// completion (the "queue depth" gauge).
	Depth stats.Summary
	// FlushLatency summarizes seconds from iteration submission to
	// durability.
	FlushLatency stats.Summary
	// BatchSize summarizes iterations per persister call.
	BatchSize stats.Summary
	// WriterBusy is seconds each writer spent inside the persister, one
	// slot per writer ever started (auto-control resizes never reuse a
	// slot, so a long run may list more slots than Workers).
	WriterBusy []float64
	// Utilization is Σbusy/(peak×wall) over the pipeline's lifetime, where
	// peak is the historical maximum commanded pool size — under auto
	// control a shrunk pool therefore reads as utilization of the peak,
	// not of the current Workers count.
	Utilization float64
	// Encode snapshots the shared chunk-encode pool (zero when
	// encode_workers is 0 or the persister does not support pooled
	// encoding). Filled by Server.PipelineStats, not by the pipeline itself.
	Encode dsf.EncodeStats
	// Store snapshots the storage backend the persister writes through
	// (zero when the persister exposes none). Filled by
	// Server.PipelineStats, not by the pipeline itself.
	Store store.Stats
	// Spill snapshots the degraded-mode scratch-spill path (zero when no
	// scratch file is configured).
	Spill SpillStats
	// Control snapshots the adaptive control plane (zero under static
	// control). Filled by Server.PipelineStats.
	Control control.Stats
	// Aggregate snapshots the node-level aggregation tier. Only the node's
	// leader server reports it (siblings report zero), so summing across
	// servers counts each node exactly once. Filled by Server.PipelineStats.
	Aggregate aggregate.Stats
	// AggregateGlobal snapshots the cross-node tier on the aggregator host
	// ("node" mode); zero everywhere else.
	AggregateGlobal aggregate.Stats
	// AggregateForwarded counts epochs this node's leader forwarded to the
	// dedicated aggregator node ("node" mode, non-host leaders).
	AggregateForwarded int64
	// Shards snapshots the dedicated core's event-loop shards (one entry per
	// shard loop; a single classic loop reports one). Filled by
	// Server.PipelineStats.
	Shards []ShardStat
}

// workers returns the commanded writer count (0 = synchronous baseline).
func (p *pipeline) workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ws.Workers()
}

// tuneSample cheaply reads the telemetry the control plane consumes every
// iteration: the most recent submit→durable latency and the instantaneous
// in-flight depth (the backpressure tell — a lifetime mean would lag regime
// changes). No allocation — it runs on the event loop.
func (p *pipeline) tuneSample() (recentLat, depth float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recentLat, float64(p.inFlight)
}

// snapshot captures the pipeline metrics at a point in time.
func (p *pipeline) snapshot(queueDepth int) PipelineStats {
	var spill SpillStats
	if p.scratch != nil {
		spill = p.scratch.stats()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	end := time.Now()
	if !p.stopped.IsZero() {
		end = p.stopped
	}
	wall := end.Sub(p.start).Seconds()
	return PipelineStats{
		Spill:        spill,
		Workers:      p.ws.Workers(),
		QueueDepth:   queueDepth,
		Resizes:      p.ws.Resizes(),
		Enqueued:     p.enqueued,
		Completed:    p.completed,
		Failures:     p.failures,
		MaxInFlight:  p.maxDepth,
		Depth:        p.depthAcc.Summary(),
		FlushLatency: p.latAcc.Summary(),
		BatchSize:    p.batchAcc.Summary(),
		WriterBusy:   p.ws.Busy(),
		Utilization:  p.ws.Utilization(wall),
	}
}
