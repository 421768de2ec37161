// Package leakcheck is a test helper that fails a test which leaves
// goroutines running after it ends. It compares runtime.NumGoroutine at the
// start of the test with the count once the test's cleanups ran, allowing
// a short settle period for goroutines that are already on their way out.
// Tests using it must not run in parallel with other tests of the package.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Check waits for the goroutine count to come back.
const settle = 2 * time.Second

// Check records the current goroutine count and registers a cleanup that
// fails t if, after every later-registered cleanup has run, more goroutines
// remain than at the call. Call it first thing in the test.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutine leak: %d goroutines before the test, %d after\n%s", before, n, buf)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
