package event

import "sync"

// Tally tracks node-wide client progress shared by every shard engine of one
// dedicated core: iteration completion counts, global-scope signal counts,
// client exits, and the flush rendezvous that keeps per-epoch emission
// strictly ascending when several shard loops detect completions
// concurrently.
//
// Flush sequencing: the shard that counts an iteration's last EndIteration
// is handed a ticket under the tally lock. Ticket issue order equals
// iteration completion order (each client's end(i) is handled before its
// end(i+1) on its own shard, so the last end of iteration i always lands
// before the last end of any later iteration), and flushes run strictly in
// ticket order — so the pipeline, spill, and aggregation layers see the same
// single-submitter, ascending-epoch sequence as with one event loop.
//
// A flush needs no further wait for the iteration's writes: each client's
// events stay in FIFO order on its own shard, so every write a client made
// for iteration i was applied before its EndIteration(i) was counted.
type Tally struct {
	mu   sync.Mutex
	cond *sync.Cond

	clients  int
	endCount map[int64]int
	sigCount map[sigKey]int
	exited   int

	nextTicket int64 // flush tickets issued
	turn       int64 // next ticket allowed to flush
}

// NewTally creates a tally for a dedicated core serving `clients` compute
// cores.
func NewTally(clients int) *Tally {
	t := &Tally{
		clients:  clients,
		endCount: make(map[int64]int),
		sigCount: make(map[sigKey]int),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Clients returns the number of clients the tally counts toward.
func (t *Tally) Clients() int { return t.clients }

// endIteration counts one EndIteration. When the count reaches the client
// total it issues the next flush ticket and reports fire=true; the caller
// must then call awaitFlush and, after flushing, flushDone.
func (t *Tally) endIteration(it int64) (ticket int64, fire bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endCount[it]++
	if t.endCount[it] < t.clients {
		return 0, false
	}
	delete(t.endCount, it)
	ticket = t.nextTicket
	t.nextTicket++
	return ticket, true
}

// awaitFlush blocks until it is the ticket's turn to flush.
func (t *Tally) awaitFlush(ticket int64) {
	t.mu.Lock()
	for t.turn != ticket {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// flushDone releases the flush turn to the next ticket.
func (t *Tally) flushDone() {
	t.mu.Lock()
	t.turn++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// signal counts one raise of a global-scope signal; true when every client
// has raised it for the iteration (the count then resets).
func (t *Tally) signal(k sigKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sigCount[k]++
	if t.sigCount[k] < t.clients {
		return false
	}
	delete(t.sigCount, k)
	return true
}

// clientExit counts one ClientExit; true exactly once, when the last client
// exits.
func (t *Tally) clientExit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.exited++
	return t.exited == t.clients
}
