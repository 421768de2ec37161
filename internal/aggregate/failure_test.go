package aggregate

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"damaris/internal/leakcheck"
	"damaris/internal/metadata"
)

// gateSink wraps a StoreSink and blocks configured epochs' commits until
// released, signalling entry — the instrument the crash tests use to prove
// acks (and therefore client chunk releases) never precede durability.
type gateSink struct {
	inner   Sink
	mu      sync.Mutex
	gates   map[int64]chan struct{} // commit blocks on its epoch's gate
	entered map[int64]chan struct{} // closed when the commit is attempted
	commits map[int64]int
}

func newGateSink(inner Sink) *gateSink {
	return &gateSink{
		inner:   inner,
		gates:   make(map[int64]chan struct{}),
		entered: make(map[int64]chan struct{}),
		commits: make(map[int64]int),
	}
}

func (s *gateSink) gate(epoch int64) (gate, entered chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := make(chan struct{})
	e := make(chan struct{})
	s.gates[epoch] = g
	s.entered[epoch] = e
	return g, e
}

func (s *gateSink) CommitEpoch(epoch int64, members []int, entries []*metadata.Entry) error {
	s.mu.Lock()
	g := s.gates[epoch]
	e := s.entered[epoch]
	s.commits[epoch]++
	s.mu.Unlock()
	if e != nil {
		close(e)
		s.mu.Lock()
		s.entered[epoch] = nil
		s.mu.Unlock()
	}
	if g != nil {
		<-g
	}
	return s.inner.CommitEpoch(epoch, members, entries)
}

func (s *gateSink) Close() error { return s.inner.Close() }

func (s *gateSink) commitCount(epoch int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits[epoch]
}

// The aggregator-failure satellite: a leader crash mid-epoch (after the
// epoch completed, before its commit) re-elects deterministically and
// re-emits the pending epoch — and no contributor is acked (no client chunk
// released) until the successor's commit is actually durable.
func TestLeaderCrashReelectsWithoutEarlyAck(t *testing.T) {
	leakcheck.Check(t)
	w := newMemEpochWriter()
	inner := &StoreSink{
		Writer:     w,
		ObjectName: func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e) },
		MemberAttr: "servers",
		Mode:       "core",
	}
	sink := newGateSink(inner)
	agg, err := New(Config{
		Members: []int{0, 1},
		Sink:    sink,
		TestCrashBeforeCommit: func(term int, epoch int64) bool {
			return term == 0 && epoch == 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 0 flows through the first leader term untouched.
	a0 := agg.Submit(0, 0, memberEntries(0, 0))
	a1 := agg.Submit(1, 0, memberEntries(1, 0))
	if err := <-a0; err != nil {
		t.Fatal(err)
	}
	if err := <-a1; err != nil {
		t.Fatal(err)
	}

	// Epoch 1: the leader crashes between completeness and commit. Gate the
	// successor's commit so the no-early-ack window is observable.
	gate, entered := sink.gate(1)
	b0 := agg.Submit(0, 1, memberEntries(0, 1))
	b1 := agg.Submit(1, 1, memberEntries(1, 1))
	<-entered // the successor term is now inside CommitEpoch(1)
	select {
	case err := <-b0:
		t.Fatalf("member 0 acked before the merged object was durable (err=%v)", err)
	case err := <-b1:
		t.Fatalf("member 1 acked before the merged object was durable (err=%v)", err)
	default:
	}
	close(gate)
	if err := <-b0; err != nil {
		t.Fatal(err)
	}
	if err := <-b1; err != nil {
		t.Fatal(err)
	}

	agg.MemberDone(0)
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	st := agg.Stats()
	if st.Reelections != 1 {
		t.Errorf("Reelections = %d, want 1", st.Reelections)
	}
	if st.Epochs != 2 {
		t.Errorf("Epochs = %d, want 2", st.Epochs)
	}
	if n := sink.commitCount(1); n != 1 {
		t.Errorf("epoch 1 committed %d times, want exactly once", n)
	}

	// The re-emitted object is byte-identical to a crash-free run's.
	refW := newMemEpochWriter()
	ref, err := New(Config{
		Members: []int{0, 1},
		Sink: &StoreSink{Writer: refW,
			ObjectName: func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e) },
			MemberAttr: "servers", Mode: "core"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < 2; e++ {
		c0 := ref.Submit(0, e, memberEntries(0, e))
		c1 := ref.Submit(1, e, memberEntries(1, e))
		if err := <-c0; err != nil {
			t.Fatal(err)
		}
		if err := <-c1; err != nil {
			t.Fatal(err)
		}
	}
	ref.MemberDone(0)
	ref.MemberDone(1)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := w.snapshot()
	want, _ := refW.snapshot()
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("object %s differs from crash-free reference", name)
		}
	}
}

// A crash storm — every leader term dies before its first commit for a
// while — still converges: terms advance, every epoch commits exactly once,
// and every contributor is acked.
func TestLeaderCrashStormConverges(t *testing.T) {
	leakcheck.Check(t)
	const epochs = 4
	w := newMemEpochWriter()
	agg, err := New(Config{
		Members: []int{0},
		Sink: &StoreSink{Writer: w,
			ObjectName: func(e int64) string { return fmt.Sprintf("it%06d.dsf", e) },
			MemberAttr: "servers"},
		// Term t survives only epochs < t: epoch e kills terms 0..e, so
		// every epoch forces one more re-election before committing.
		TestCrashBeforeCommit: func(term int, epoch int64) bool {
			return int64(term) <= epoch
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < epochs; e++ {
		if err := <-agg.Submit(0, e, memberEntries(0, e)); err != nil {
			t.Fatal(err)
		}
	}
	agg.MemberDone(0)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	if st.Epochs != epochs {
		t.Errorf("Epochs = %d, want %d", st.Epochs, epochs)
	}
	if st.Reelections == 0 {
		t.Error("no re-elections recorded")
	}
	objs, _ := w.snapshot()
	if len(objs) != epochs {
		t.Errorf("objects = %d, want %d", len(objs), epochs)
	}
}
