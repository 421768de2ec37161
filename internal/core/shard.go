package core

import (
	"runtime"
	"sync"
	"time"

	"damaris/internal/config"
	"damaris/internal/event"
)

// Event-loop sharding: the dedicated core's single event loop becomes N
// shard loops, each pulling from its own queue. Clients are routed to
// shards by rank at handshake time (localIdx % shards), so one client's
// events keep their FIFO order on one shard; iteration completion, global
// signals and exits are counted node-wide through the shared event.Tally,
// and flushes rendezvous there so per-epoch emission into the pipeline,
// spill, and aggregation layers stays strictly ascending — exactly the
// single-submitter sequence the pre-sharding loop produced. See
// docs/sharding.md.

// shardLoop is one of the dedicated core's event-loop shards.
type shardLoop struct {
	idx   int
	queue *event.Queue
	eng   *event.Engine

	mu     sync.Mutex
	events int64 // events handled by this loop
}

// ShardStat is one event-loop shard's activity snapshot, reported through
// PipelineStats.Shards.
type ShardStat struct {
	// Events counts events handled by this shard's loop.
	Events int64
	// Steals is always 0: shard loops no longer steal from each other.
	// The field stays only because the end-to-end benchmark still reads
	// it for its event.steals figure; it goes when that figure does.
	Steals int64
	// QueueLen is the shard queue's instantaneous length at snapshot time.
	QueueLen int
	// BusySeconds is the time this shard's loop spent handling events;
	// BusyFraction is that over the server's wall time — frozen when the
	// shard loops exit, so post-run snapshots are stable (the per-shard
	// complement of the paper's spare-time figure).
	BusySeconds  float64
	BusyFraction float64
}

// nodeSpareBudget is the node's spare-core budget a dedicated core may
// spread across shard loops, persist writers, and encode workers: an
// explicit config override, or GOMAXPROCS − clients (floored at 1).
func nodeSpareBudget(cfg *config.Config, clients int) int {
	if cfg.ShardBudget > 0 {
		return cfg.ShardBudget
	}
	b := runtime.GOMAXPROCS(0) - clients
	if b < 1 {
		b = 1
	}
	return b
}

// shardBudgeted reports whether the spare-core budget is engaged: shards
// auto mode derives one, and an explicit budget opts in regardless of mode.
// Without either, budgeting is off (0) — the pre-sharding behavior.
func shardBudgeted(cfg *config.Config) bool {
	return cfg.ShardMode == "auto" || cfg.ShardBudget > 0
}

// effectiveShards resolves the shard-loop count for a dedicated core
// serving `clients` compute cores. Static mode (or no <shards> element)
// uses the configured count as-is; auto mode gives the event plane half the
// spare-core budget (rounded down, at least one loop), never more than an
// explicit count. The result is clamped to the client count — a shard with
// no clients would idle forever — and to the budget when budgeting is on.
func effectiveShards(cfg *config.Config, clients int) int {
	n := cfg.ShardCount
	if cfg.ShardMode == "auto" {
		n = nodeSpareBudget(cfg, clients) / 2
		if cfg.ShardCount > 0 && n > cfg.ShardCount {
			n = cfg.ShardCount
		}
	}
	if shardBudgeted(cfg) {
		if b := nodeSpareBudget(cfg, clients); n > b {
			n = b
		}
	}
	if n < 1 {
		n = 1
	}
	if n > clients {
		n = clients
	}
	return n
}

// runShard is one shard loop: pop events from the shard's own queue, time
// idle vs busy, and hand each event to the shard's engine. It returns when
// the shard's queue is closed and drained.
func (s *Server) runShard(sl *shardLoop) {
	for {
		idleStart := time.Now()
		ev, ok := sl.queue.Pop()
		s.mu.Lock()
		s.spareDur += time.Since(idleStart).Seconds()
		s.mu.Unlock()
		if !ok {
			return
		}
		busyStart := time.Now()
		if s.tracer != nil && ev.Kind == event.WriteNotification {
			s.mu.Lock()
			if _, seen := s.iterFirst[ev.Iteration]; !seen {
				s.iterFirst[ev.Iteration] = busyStart
			}
			s.mu.Unlock()
		}
		if err := sl.eng.Handle(ev); err != nil {
			s.mu.Lock()
			s.handleErrs = append(s.handleErrs, err)
			s.mu.Unlock()
		}
		busy := time.Since(busyStart).Seconds()
		s.mu.Lock()
		s.busyDur += busy
		s.shardWS.AddBusy(sl.idx, busy)
		s.mu.Unlock()
		sl.mu.Lock()
		sl.events++
		sl.mu.Unlock()
	}
}

// shardStats snapshots every shard loop's counters, busy time (from the
// server's WorkerSet slots), and instantaneous queue length.
func (s *Server) shardStats() []ShardStat {
	end := time.Now()
	s.mu.Lock()
	busy := s.shardWS.Busy()
	if !s.stoppedAt.IsZero() {
		end = s.stoppedAt
	}
	s.mu.Unlock()
	wall := end.Sub(s.started).Seconds()
	out := make([]ShardStat, len(s.shards))
	for i, sl := range s.shards {
		sl.mu.Lock()
		st := ShardStat{Events: sl.events}
		sl.mu.Unlock()
		st.QueueLen = sl.queue.Len()
		if i < len(busy) {
			st.BusySeconds = busy[i]
		}
		if wall > 0 {
			st.BusyFraction = st.BusySeconds / wall
		}
		out[i] = st
	}
	return out
}
