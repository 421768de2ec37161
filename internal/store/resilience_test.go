package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"damaris/internal/leakcheck"
)

// The brownout ramp must be zero outside its window and triangular inside:
// half intensity a quarter of the way in, peak at the midpoint, half again
// at three quarters.
func TestBrownoutFactorRamp(t *testing.T) {
	leakcheck.Check(t)
	start := time.Unix(1000, 0)
	b := Brownout(start, 100*time.Second, time.Millisecond, 0.5).(*brownout)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 0},
		{0, 0},
		{25 * time.Second, 0.5},
		{50 * time.Second, 1},
		{75 * time.Second, 0.5},
		{100 * time.Second, 0},
		{200 * time.Second, 0},
	}
	for _, c := range cases {
		if got := b.factor(start.Add(c.at)); got != c.want {
			t.Errorf("factor at %v: got %v, want %v", c.at, got, c.want)
		}
	}
}

// At peak intensity with a 50% error rate, the deterministic accumulator
// must fail exactly every second call — evenly spaced, never back to back.
func TestBrownoutErrorsDeterministic(t *testing.T) {
	leakcheck.Check(t)
	start := time.Unix(1000, 0)
	b := Brownout(start, 100*time.Second, 0, 0.5, OpPut).(*brownout)
	mid := start.Add(50 * time.Second)
	b.now = func() time.Time { return mid }

	var fails []int
	for i := 0; i < 10; i++ {
		if err := b.Op(OpPut, "x"); err != nil {
			if !errors.Is(err, ErrBrownout) {
				t.Fatalf("unexpected error type: %v", err)
			}
			fails = append(fails, i)
		}
	}
	if len(fails) != 5 {
		t.Fatalf("expected 5 failures out of 10 at 50%% peak, got %d (%v)", len(fails), fails)
	}
	for i := 1; i < len(fails); i++ {
		if fails[i]-fails[i-1] != 2 {
			t.Fatalf("failures not evenly spaced: %v", fails)
		}
	}
	// Ops outside the match set pass untouched.
	if err := b.Op(OpGet, "x"); err != nil {
		t.Fatalf("unmatched op failed: %v", err)
	}
}

// Retries after transient put failures must take counted backoff waits.
func TestUploadRetryBackoffCounted(t *testing.T) {
	leakcheck.Check(t)
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize:    64,
		PutAttempts: 5,
		Fault:       FailTimes(OpPut, 3, errors.New("transient")),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Retries != 3 {
		t.Errorf("retries = %d, want 3", st.Retries)
	}
	if st.Backoffs != 3 {
		t.Errorf("backoffs = %d, want 3", st.Backoffs)
	}
	if st.BackoffSeconds <= 0 {
		t.Errorf("backoff seconds = %v, want > 0", st.BackoffSeconds)
	}
}

// hang is a fault that blocks matching ops until done is closed. A test
// using it closes done and then the store, which joins the released
// attempts.
func hang(done <-chan struct{}, ops ...string) Fault {
	match := map[string]bool{}
	for _, op := range ops {
		match[op] = true
	}
	return FaultFunc(func(op, name string) error {
		if len(match) == 0 || match[op] {
			<-done
		}
		return nil
	})
}

// A hung target must convert to a retryable ErrPutTimeout at the per-put
// deadline instead of stalling the writer forever.
func TestPutTimeoutConvertsHangToError(t *testing.T) {
	leakcheck.Check(t)
	done := make(chan struct{})
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize:   64,
		PutTimeout: 20 * time.Millisecond,
		Fault:      hang(done, OpPut),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(done)
		s.Close()
	}()
	err = s.Put("cas/sha256/aa", []byte("payload"))
	if !errors.Is(err, ErrPutTimeout) {
		t.Fatalf("put against hung target: got %v, want ErrPutTimeout", err)
	}
	if s.Stats().PutTimeouts != 1 {
		t.Errorf("put timeouts = %d, want 1", s.Stats().PutTimeouts)
	}
}

// With the primary hung forever and a healthy replica, hedged puts must keep
// uploads (and the commit) completing, the hedge win must be counted, and
// the object must remain fully readable through replica fallback.
func TestHedgedPutWinsOverHungPrimary(t *testing.T) {
	leakcheck.Check(t)
	done := make(chan struct{})
	primary := t.TempDir()
	replica := filepath.Join(t.TempDir(), "replica")
	s, err := NewObjStore(primary, Options{
		PartSize:   64,
		Replicas:   []string{replica},
		HedgeAfter: 10 * time.Millisecond,
		Fault:      hang(done, OpPut, OpPutRename, OpCommit),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(done)
		s.Close()
	}()
	payload := bytes.Repeat([]byte("xyz"), 100)
	w, err := s.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatalf("commit with hung primary: %v", err)
	}
	st := s.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}

	// The object's parts live only on the replica; every read path must
	// still resolve it.
	r, err := s.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back bytes differ from written payload")
	}
	objs, err := s.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Name != "obj" {
		t.Fatalf("objects listing = %v, want exactly [obj]", objs)
	}
	if _, err := s.StatObject("obj"); err != nil {
		t.Fatalf("stat object via replica: %v", err)
	}
}

// A second writer of identical content must dedupe against a part that only
// exists on the replica — the Stat fallback is what makes hedged retries
// idempotent.
func TestDedupeProbesReplica(t *testing.T) {
	leakcheck.Check(t)
	done := make(chan struct{})
	replica := t.TempDir()
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize:   64,
		Replicas:   []string{replica},
		HedgeAfter: 5 * time.Millisecond,
		Fault:      hang(done, OpPut, OpPutRename),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(done)
		s.Close()
	}()
	payload := bytes.Repeat([]byte("q"), 64)
	for i := 0; i < 2; i++ {
		w, err := s.Create(fmt.Sprintf("obj%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DedupeHits == 0 {
		t.Errorf("dedupe hits = 0, want > 0 (second writer should probe the replica)")
	}
}

// ValidateURL must accept the new resilience parameters and reject bad ones.
func TestResilienceURLParams(t *testing.T) {
	leakcheck.Check(t)
	good := "obj://data?put_timeout=500&replica=/tmp/r1&replica=/tmp/r2&hedge_ms=30&hedge_pct=99"
	if err := ValidateURL(good); err != nil {
		t.Fatalf("ValidateURL(%q): %v", good, err)
	}
	for _, bad := range []string{
		"obj://data?put_timeout=-1",
		"obj://data?hedge_ms=-5",
		"obj://data?hedge_pct=101",
		"obj://data?put_timeout=zzz",
	} {
		if err := ValidateURL(bad); err == nil {
			t.Errorf("ValidateURL(%q) passed, want error", bad)
		}
	}
}

// A put deadline shorter than the target's latency abandons every attempt
// while it is still due to read its part buffer, and the writer keeps
// filling fresh parts meanwhile. Each abandoned attempt must still write
// its own part's bytes: once Close has joined them, every blob hashes to
// its own content address and no temp file is left.
func TestTimedOutPutsKeepTheirPartBytes(t *testing.T) {
	leakcheck.Check(t)
	const partSize, parts = 64, 8
	dir := t.TempDir()
	s, err := NewObjStore(dir, Options{
		PartSize:    partSize,
		PutWorkers:  1,
		PutAttempts: 1,
		PutTimeout:  5 * time.Millisecond,
		Fault:       Latency(30*time.Millisecond, OpPut),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, parts*partSize)
	for i := range data {
		data[i] = byte(i / partSize) // every part distinct
	}
	w, err := s.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	_, werr := w.Write(data)
	_, cerr := w.Commit()
	if werr == nil && cerr == nil {
		t.Fatal("object committed although every put timed out")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	blobDir := filepath.Join(dir, "blobs", "cas", "sha256")
	blobs, err := os.ReadDir(blobDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != parts {
		t.Fatalf("%d blobs after Close, want %d (one per abandoned attempt)", len(blobs), parts)
	}
	for _, b := range blobs {
		got, err := os.ReadFile(filepath.Join(blobDir, b.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != b.Name() {
			t.Errorf("blob %s holds bytes hashing to %x", b.Name(), sum)
		}
	}
	if tmps, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(tmps) != 0 {
		t.Errorf("tmp/ after Close = %d files (err %v), want empty", len(tmps), err)
	}
}
