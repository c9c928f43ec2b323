// Package leakcheck is the goroutine-leak assertion the stream,
// subscription and replication tests share.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Wait polls until the goroutine count drops back to (or below) want,
// failing t with every goroutine's stack after five seconds. Equality is
// too strict: the runtime and net/http keep service goroutines alive, so
// the check is "no more than the baseline".
func Wait(t testing.TB, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; cheap in tests
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
