// Package event implements the shared event queue and the Event Processing
// Engine (EPE) that runs on each dedicated core.
//
// Paper §III-B, "Event queue": "The event-queue is another shared component
// of the Damaris architecture. It is used by clients either to inform the
// server that a write completed (write-notification), or to send
// user-defined events. The messages are pulled by an event processing engine
// (EPE) on the server side."
package event

import (
	"fmt"
	"sync"

	"damaris/internal/config"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/plugin"
	"damaris/internal/shm"
)

// Kind discriminates queue messages.
type Kind uint8

// Message kinds.
const (
	// WriteNotification announces that a client finished copying a dataset
	// into shared memory.
	WriteNotification Kind = iota
	// UserSignal is a named, user-defined event (df_signal).
	UserSignal
	// EndIteration announces that a client finished an iteration's writes.
	EndIteration
	// ClientExit announces that a client called finalize.
	ClientExit
)

func (k Kind) String() string {
	switch k {
	case WriteNotification:
		return "write"
	case UserSignal:
		return "signal"
	case EndIteration:
		return "end-iteration"
	case ClientExit:
		return "client-exit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one queue message.
type Event struct {
	Kind      Kind
	Name      string // variable name (write) or event name (signal)
	Iteration int64
	Source    int           // sending client's identity (world rank)
	Block     *shm.Block    // payload handle for write-notifications
	Layout    layout.Layout // dataset layout (may be zero if static/config)
	Global    layout.Block  // position in the global domain (optional)
}

// Queue is an unbounded multi-producer single-consumer FIFO with blocking
// Pop and close semantics. It stands in for the shared-memory message queue
// of the original implementation.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Event
	closed bool
	pushed int64
}

// NewQueue creates an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends an event. Pushing to a closed queue panics (a client writing
// after finalize is a programming error).
func (q *Queue) Push(e Event) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("event: Push on closed queue")
	}
	q.pushed++
	q.items = append(q.items, e)
	q.mu.Unlock()
	q.cond.Signal()
}

// Pop blocks until an event is available or the queue is closed and drained;
// ok is false only in the latter case.
func (q *Queue) Pop() (e Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return Event{}, false
	}
	e = q.items[0]
	q.items = q.items[1:]
	return e, true
}

// TryPop returns the next event without blocking.
func (q *Queue) TryPop() (e Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Event{}, false
	}
	e = q.items[0]
	q.items = q.items[1:]
	return e, true
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Pushed returns the total number of events ever pushed.
func (q *Queue) Pushed() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed
}

// Close marks the queue closed; Pop drains remaining events then reports
// ok=false.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Engine is the EPE: it interprets events against the configuration,
// maintains the metadata catalog, dispatches plugin actions, and detects
// iteration completion across the node's clients. A dedicated core running
// several shard loops creates one Engine per shard (NewShardEngine), all
// sharing one Tally and one metadata store; iteration completion, global
// signals, and client exits are then counted node-wide while each engine
// keeps its own plugin context.
type Engine struct {
	cfg   *config.Config
	reg   *plugin.Registry
	store *metadata.Store
	tally *Tally // shared completion/signal/exit tracking

	ctx plugin.Context

	// OnIterationEnd, when non-nil, runs after every client has announced
	// EndIteration for an iteration (the dedicated core's flush hook).
	// Calls across all engines sharing a Tally are serialized and strictly
	// ascending in iteration completion order.
	OnIterationEnd func(iteration int64) error
	// OnAllExited, when non-nil, runs once after every client sent
	// ClientExit.
	OnAllExited func() error
}

type sigKey struct {
	name string
	it   int64
}

// NewEngine builds an EPE for a dedicated core serving `clients` compute
// cores. serverID and node describe the dedicated core; outputDir is where
// persistency actions write.
func NewEngine(cfg *config.Config, reg *plugin.Registry, store *metadata.Store,
	clients, serverID, node int, outputDir string) (*Engine, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("event: engine needs at least one client, got %d", clients)
	}
	return NewShardEngine(cfg, reg, store, NewTally(clients), serverID, node, outputDir)
}

// NewShardEngine builds one shard's EPE sharing a node-wide tally with its
// sibling engines. All engines of one dedicated core must share both the
// tally and the metadata store.
func NewShardEngine(cfg *config.Config, reg *plugin.Registry, store *metadata.Store,
	tally *Tally, serverID, node int, outputDir string) (*Engine, error) {
	if cfg == nil {
		return nil, fmt.Errorf("event: nil config")
	}
	if store == nil {
		return nil, fmt.Errorf("event: nil metadata store")
	}
	if tally == nil {
		return nil, fmt.Errorf("event: nil tally")
	}
	if tally.Clients() <= 0 {
		return nil, fmt.Errorf("event: engine needs at least one client, got %d", tally.Clients())
	}
	return &Engine{
		cfg:   cfg,
		reg:   reg,
		store: store,
		tally: tally,
		ctx: plugin.Context{
			Store:     store,
			ServerID:  serverID,
			Node:      node,
			OutputDir: outputDir,
		},
	}, nil
}

// Store exposes the engine's metadata catalog.
func (e *Engine) Store() *metadata.Store { return e.store }

// Context returns the plugin context (for inspection in tests and tools).
func (e *Engine) Context() *plugin.Context { return &e.ctx }

// Handle processes one event. It returns an error for unknown variables,
// unknown events or failing actions; the caller (server loop) decides
// whether to abort or log.
func (e *Engine) Handle(ev Event) error {
	switch ev.Kind {
	case WriteNotification:
		return e.handleWrite(ev)
	case UserSignal:
		return e.handleSignal(ev)
	case EndIteration:
		return e.handleEnd(ev)
	case ClientExit:
		if e.tally.clientExit() && e.OnAllExited != nil {
			return e.OnAllExited()
		}
		return nil
	default:
		return fmt.Errorf("event: unknown kind %v", ev.Kind)
	}
}

func (e *Engine) handleWrite(ev Event) error {
	lay := ev.Layout
	if lay.IsZero() {
		// Static layout from configuration (the normal path: only the
		// minimal descriptor crossed shared memory).
		var ok bool
		lay, ok = e.cfg.LayoutOf(ev.Name)
		if !ok {
			if ev.Block != nil {
				ev.Block.Release()
			}
			return fmt.Errorf("event: write of undeclared variable %q", ev.Name)
		}
	}
	if ev.Block != nil && lay.Bytes() != ev.Block.Size() {
		ev.Block.Release()
		return fmt.Errorf("event: variable %q: layout %v wants %d bytes, block has %d",
			ev.Name, lay, lay.Bytes(), ev.Block.Size())
	}
	return e.store.Put(&metadata.Entry{
		Key:    metadata.Key{Name: ev.Name, Iteration: ev.Iteration, Source: ev.Source},
		Layout: lay,
		Block:  ev.Block,
		Global: ev.Global,
	})
}

func (e *Engine) handleSignal(ev Event) error {
	decl, ok := e.cfg.Event(ev.Name)
	if !ok {
		return fmt.Errorf("event: undeclared event %q", ev.Name)
	}
	action, ok := e.reg.Get(decl.Action)
	if !ok {
		return fmt.Errorf("event: event %q: action %q not registered", ev.Name, decl.Action)
	}
	if decl.Scope == "global" {
		// Global scope: fire once per iteration, after every client of this
		// node has raised the signal (counted node-wide across shards).
		if !e.tally.signal(sigKey{ev.Name, ev.Iteration}) {
			return nil
		}
		e.ctx.Iteration = ev.Iteration
		e.ctx.Source = -1
		return action(&e.ctx, ev.Name)
	}
	e.ctx.Iteration = ev.Iteration
	e.ctx.Source = ev.Source
	return action(&e.ctx, ev.Name)
}

func (e *Engine) handleEnd(ev Event) error {
	ticket, fire := e.tally.endIteration(ev.Iteration)
	if !fire {
		return nil
	}
	// Rendezvous: wait for our flush turn (tickets are issued in iteration
	// completion order, so per-epoch emission stays strictly ascending).
	e.tally.awaitFlush(ticket)
	defer e.tally.flushDone()
	if e.OnIterationEnd != nil {
		return e.OnIterationEnd(ev.Iteration)
	}
	return nil
}
