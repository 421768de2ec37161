package event

import (
	"sync"
	"testing"
	"time"
)

func TestTallyTicketsSerializeFlushes(t *testing.T) {
	ta := NewTally(2)
	// Iteration 0 completes first, then 1: tickets 0 and 1.
	if _, fire := ta.endIteration(0); fire {
		t.Fatal("first end should not fire")
	}
	t0, fire := ta.endIteration(0)
	if !fire || t0 != 0 {
		t.Fatalf("ticket = %d fire = %v, want 0 true", t0, fire)
	}
	ta.endIteration(1)
	t1, fire := ta.endIteration(1)
	if !fire || t1 != 1 {
		t.Fatalf("ticket = %d fire = %v, want 1 true", t1, fire)
	}

	// Ticket 1's flusher must block until ticket 0's flushDone, whatever
	// order the shard goroutines reach the rendezvous in.
	var mu sync.Mutex
	var order []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ta.awaitFlush(t1)
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
		ta.flushDone()
	}()
	time.Sleep(5 * time.Millisecond) // give the late ticket a head start
	ta.awaitFlush(t0)
	mu.Lock()
	order = append(order, 0)
	mu.Unlock()
	ta.flushDone()
	wg.Wait()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("flush order = %v, want [0 1]", order)
	}
}

func TestTallySignalAndExitCounts(t *testing.T) {
	ta := NewTally(3)
	k := sigKey{name: "checkpoint", it: 2}
	if ta.signal(k) || ta.signal(k) {
		t.Fatal("signal fired before all clients raised it")
	}
	if !ta.signal(k) {
		t.Fatal("signal did not fire on the last raise")
	}
	// The count resets per iteration.
	if ta.signal(k) {
		t.Fatal("signal count did not reset")
	}
	if ta.clientExit() || ta.clientExit() {
		t.Fatal("exit fired early")
	}
	if !ta.clientExit() {
		t.Fatal("last exit did not fire")
	}
}
