package aggregate

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"damaris/internal/dsf"
	"damaris/internal/leakcheck"
	"damaris/internal/mpi"
	"damaris/internal/obs"
)

// The cross-node tier end to end on the message runtime: three "node
// leaders" (one rank each), rank 0 hosting the global aggregator. Remote
// leaders forward serialized epochs and block on durability acks; the host
// merges whole nodes and commits one object per epoch. This is the fan-in
// routing Deploy wires in "node" mode, exercised in isolation.
func TestCrossNodeForwardingRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	const nodes = 3
	const epochs = 3
	w := newMemEpochWriter()
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	err := mpi.Run(nodes, 1, func(comm *mpi.Comm) {
		fan := comm.Dup()
		ack := comm.Dup()
		me := comm.Rank()
		if me == 0 {
			sources := map[int]int{}
			members := make([]int, nodes)
			for r := 0; r < nodes; r++ {
				members[r] = r
				if r != 0 {
					sources[r] = r
				}
			}
			global, err := New(Config{
				Mode:    "node",
				Members: members,
				Sink: &StoreSink{
					Writer:     w,
					ObjectName: func(e int64) string { return fmt.Sprintf("agg0000_it%06d.dsf", e) },
					MemberAttr: "nodes",
					Mode:       "node",
				},
			})
			if err != nil {
				fail(err)
				return
			}
			recvErr := make(chan error, 1)
			go func() { recvErr <- RunReceiver(fan, ack, sources, global) }()

			local := &LocalForward{Global: global, Member: 0}
			for e := int64(0); e < epochs; e++ {
				if err := local.CommitEpoch(e, nil, memberEntries(0, e)); err != nil {
					fail(err)
				}
			}
			if err := local.Close(); err != nil {
				fail(err)
			}
			if err := <-recvErr; err != nil {
				fail(err)
			}
			if err := global.Close(); err != nil {
				fail(err)
			}
			return
		}
		fwd := &Forwarder{Fan: fan, Ack: ack, Dst: 0, Member: me}
		for e := int64(0); e < epochs; e++ {
			if err := fwd.CommitEpoch(e, nil, memberEntries(me, e)); err != nil {
				fail(err)
			}
		}
		if err := fwd.Close(); err != nil {
			fail(err)
		}
		if fwd.Forwarded() != epochs {
			fail(fmt.Errorf("rank %d forwarded %d epochs, want %d", me, fwd.Forwarded(), epochs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	objs, order := w.snapshot()
	if len(objs) != epochs {
		t.Fatalf("objects = %d, want %d (one per epoch for the whole node group)", len(objs), epochs)
	}
	for i, name := range order {
		want := fmt.Sprintf("agg0000_it%06d.dsf", i)
		if name != want {
			t.Errorf("emission[%d] = %s, want %s", i, name, want)
		}
	}
	// Every epoch's object merges all three nodes, ascending, and survives a
	// DSF round trip with the forwarded payloads intact.
	for e := int64(0); e < epochs; e++ {
		name := fmt.Sprintf("agg0000_it%06d.dsf", e)
		if got := w.attrs[name]["nodes"]; got != "0,1,2" {
			t.Errorf("%s nodes attr = %q, want \"0,1,2\"", name, got)
		}
		b := objs[name]
		r, err := dsf.OpenReaderAt(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		chunks := r.Chunks()
		if len(chunks) != 2*nodes {
			t.Errorf("%s: chunks = %d, want %d", name, len(chunks), 2*nodes)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Forwarded bytes must match the source entries bit for bit.
		for i := range chunks {
			node := i / 2
			wantEntries := memberEntries(node, e)
			data, err := r.ReadChunk(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, wantEntries[i%2].Bytes()) {
				t.Errorf("%s chunk %d: forwarded payload differs from source", name, i)
			}
		}
		r.Close()
	}
}

// Cross-rank trace propagation over the fan-in wire: when the host and the
// remote leaders share a tracer (one process, one wall clock), every
// forwarded epoch leaves a `forward` span on the host carrying the sending
// leader's rank as origin, and every ack leaves a `fanack` span on the
// leader carrying the host's rank — the end-to-end legs the /epochs
// analyzer attributes cross-node time with.
func TestWireTracePropagation(t *testing.T) {
	const nodes = 3
	const epochs = 3
	w := newMemEpochWriter()
	tr := obs.NewTracer(256)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	err := mpi.Run(nodes, 1, func(comm *mpi.Comm) {
		fan := comm.Dup()
		ack := comm.Dup()
		me := comm.Rank()
		if me == 0 {
			global, err := New(Config{
				Mode:    "node",
				Members: []int{0, 1, 2},
				Sink: &StoreSink{Writer: w,
					ObjectName: func(e int64) string { return fmt.Sprintf("agg0000_it%06d.dsf", e) },
					MemberAttr: "nodes", Mode: "node"},
				Tracer:      tr,
				TraceServer: 0,
			})
			if err != nil {
				fail(err)
				return
			}
			recvErr := make(chan error, 1)
			go func() { recvErr <- RunReceiver(fan, ack, map[int]int{1: 1, 2: 2}, global) }()
			local := &LocalForward{Global: global, Member: 0}
			for e := int64(0); e < epochs; e++ {
				if err := local.CommitEpoch(e, nil, memberEntries(0, e)); err != nil {
					fail(err)
				}
			}
			if err := local.Close(); err != nil {
				fail(err)
			}
			if err := <-recvErr; err != nil {
				fail(err)
			}
			if err := global.Close(); err != nil {
				fail(err)
			}
			return
		}
		fwd := &Forwarder{Fan: fan, Ack: ack, Dst: 0, Member: me, Tracer: tr, Rank: me}
		for e := int64(0); e < epochs; e++ {
			if err := fwd.CommitEpoch(e, nil, memberEntries(me, e)); err != nil {
				fail(err)
			}
		}
		if err := fwd.Close(); err != nil {
			fail(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	var forwards, fanacks int
	originEpochs := map[int]map[int64]bool{}
	for _, sp := range tr.Snapshot() {
		switch sp.Stage {
		case obs.StageForward:
			forwards++
			if sp.Server != 0 {
				t.Errorf("forward span recorded on rank %d, want host 0", sp.Server)
			}
			if sp.Origin != 1 && sp.Origin != 2 {
				t.Errorf("forward span origin = %d, want a remote leader", sp.Origin)
			}
			if sp.Bytes <= 0 || sp.Err || sp.Dur < 0 {
				t.Errorf("forward span %+v", sp)
			}
			if originEpochs[sp.Origin] == nil {
				originEpochs[sp.Origin] = map[int64]bool{}
			}
			originEpochs[sp.Origin][sp.Iteration] = true
		case obs.StageFanAck:
			fanacks++
			if sp.Server != 1 && sp.Server != 2 {
				t.Errorf("fanack span recorded on rank %d, want a remote leader", sp.Server)
			}
			if sp.Origin != 0 {
				t.Errorf("fanack span origin = %d, want host 0", sp.Origin)
			}
		}
	}
	// One forward per remote leader per epoch; done markers record nothing.
	if forwards != (nodes-1)*epochs {
		t.Errorf("forward spans = %d, want %d", forwards, (nodes-1)*epochs)
	}
	if fanacks != (nodes-1)*epochs {
		t.Errorf("fanack spans = %d, want %d", fanacks, (nodes-1)*epochs)
	}
	for origin := 1; origin < nodes; origin++ {
		for e := int64(0); e < epochs; e++ {
			if !originEpochs[origin][e] {
				t.Errorf("no forward span for origin %d epoch %d", origin, e)
			}
		}
	}
}

// Frames survive the wire: entries round-trip through gob with layouts and
// global blocks intact.
func TestFrameRoundTrip(t *testing.T) {
	entries := memberEntries(4, 7)
	b, err := encodeFrame(frame{Member: 4, Epoch: 7, Entries: entriesToWire(entries)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Member != 4 || f.Epoch != 7 || f.Done {
		t.Errorf("frame header = %+v", f)
	}
	back, err := wireToEntries(f.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("entries = %d, want %d", len(back), len(entries))
	}
	for i := range back {
		if back[i].Key != entries[i].Key {
			t.Errorf("entry %d key = %+v, want %+v", i, back[i].Key, entries[i].Key)
		}
		if !back[i].Layout.Equal(entries[i].Layout) {
			t.Errorf("entry %d layout = %v, want %v", i, back[i].Layout, entries[i].Layout)
		}
		if !bytes.Equal(back[i].Bytes(), entries[i].Bytes()) {
			t.Errorf("entry %d payload differs", i)
		}
	}
}

// An epoch that is empty on one node but not another must still round-trip
// the cross-node lockstep: the empty node forwards a placeholder frame, the
// merged object carries only the contributing node's chunks, and nothing
// deadlocks.
func TestCrossNodeEmptyEpochOnOneNode(t *testing.T) {
	w := newMemEpochWriter()
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	err := mpi.Run(2, 1, func(comm *mpi.Comm) {
		fan := comm.Dup()
		ack := comm.Dup()
		if comm.Rank() == 0 {
			global, err := New(Config{
				Mode:    "node",
				Members: []int{0, 1},
				Sink: &StoreSink{Writer: w,
					ObjectName: func(e int64) string { return fmt.Sprintf("agg0000_it%06d.dsf", e) },
					MemberAttr: "nodes", Mode: "node"},
			})
			if err != nil {
				fail(err)
				return
			}
			recvErr := make(chan error, 1)
			go func() { recvErr <- RunReceiver(fan, ack, map[int]int{1: 1}, global) }()
			local := &LocalForward{Global: global, Member: 0}
			// Epoch 0: only node 0 has data. Epoch 1: only node 1 does.
			if err := local.CommitEpoch(0, nil, memberEntries(0, 0)); err != nil {
				fail(err)
			}
			if err := local.CommitEpoch(1, nil, nil); err != nil {
				fail(err)
			}
			if err := local.Close(); err != nil {
				fail(err)
			}
			if err := <-recvErr; err != nil {
				fail(err)
			}
			if err := global.Close(); err != nil {
				fail(err)
			}
			return
		}
		fwd := &Forwarder{Fan: fan, Ack: ack, Dst: 0, Member: 1}
		if err := fwd.CommitEpoch(0, nil, nil); err != nil {
			fail(err)
		}
		if err := fwd.CommitEpoch(1, nil, memberEntries(1, 1)); err != nil {
			fail(err)
		}
		if err := fwd.Close(); err != nil {
			fail(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	objs, _ := w.snapshot()
	if len(objs) != 2 {
		t.Fatalf("objects = %d, want 2", len(objs))
	}
	for e, wantNodes := range map[int64]string{0: "0", 1: "1"} {
		name := fmt.Sprintf("agg0000_it%06d.dsf", e)
		if got := w.attrs[name]["nodes"]; got != wantNodes {
			t.Errorf("%s nodes attr = %q, want %q", name, got, wantNodes)
		}
	}
}

// A corrupt fan-in frame must fail the forwarders with error acks instead
// of hanging the deployment: the receiver aborts, every still-active
// sender's CommitEpoch returns an error, and the global tier can drain.
func TestReceiverAbortFailsForwarders(t *testing.T) {
	w := newMemEpochWriter()
	var mu sync.Mutex
	var firstErr error
	var fwdErr error
	err := mpi.Run(2, 1, func(comm *mpi.Comm) {
		fan := comm.Dup()
		ack := comm.Dup()
		if comm.Rank() == 0 {
			global, err := New(Config{
				Mode:    "node",
				Members: []int{0, 1},
				Sink: &StoreSink{Writer: w,
					ObjectName: func(e int64) string { return fmt.Sprintf("agg_it%06d.dsf", e) },
					MemberAttr: "nodes", Mode: "node"},
			})
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
				return
			}
			recvErr := RunReceiver(fan, ack, map[int]int{1: 1}, global)
			if recvErr == nil {
				mu.Lock()
				firstErr = fmt.Errorf("receiver accepted a garbage frame")
				mu.Unlock()
			}
			// The abort declared the remote member done; the local member
			// finishing lets the global tier drain.
			global.MemberDone(0)
			if err := global.Close(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			return
		}
		// A corrupted frame, then the normal forward path: the error ack
		// must surface through CommitEpoch rather than hanging.
		fan.SendBytes(0, tagFan, []byte("not a gob frame"))
		fwd := &Forwarder{Fan: fan, Ack: ack, Dst: 0, Member: 1}
		mu.Lock()
		fwdErr = fwd.CommitEpoch(0, nil, memberEntries(1, 0))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if fwdErr == nil {
		t.Fatal("forwarder did not observe the receiver abort")
	}
}
