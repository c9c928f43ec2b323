package replica

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	onesided "repro"
	"repro/internal/leakcheck"
)

// TestEngineCloseStopsTailGoroutine is the regression for the follower
// lifetime bind: Engine.Close on a follower mid-tail must stop the
// apply goroutine through the OnClose hook — whether the goroutine is
// blocked in a long-poll, sleeping in a retry backoff, or actively
// applying — never leak it. Many cycles at different phases, goroutine
// count back to baseline every time.
func TestEngineCloseStopsTailGoroutine(t *testing.T) {
	primary, ts := newPrimary(t)
	for i := 0; i < 50; i++ {
		primary.AddFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	baseline := runtime.NumGoroutine()

	for round := 0; round < 10; round++ {
		eng, err := onesided.Open()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Start(FollowerConfig{
			Engine:       eng,
			Primary:      ts.URL,
			Dir:          t.TempDir(),
			PollInterval: 500 * time.Millisecond, // long-poll: Close must interrupt it
			RetryBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Vary the phase the tail goroutine is in when Close lands:
		// bootstrap, mid-apply, idle long-poll.
		time.Sleep(time.Duration(round%3) * 10 * time.Millisecond)
		// Only Engine.Close — the OnClose hook must reach the follower.
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		leakcheck.Wait(t, baseline)
	}
}

// TestFollowerCloseIsIdempotentWithEngineClose closes both sides in
// both orders; neither order may hang, double-stop, or leak.
func TestFollowerCloseIsIdempotentWithEngineClose(t *testing.T) {
	primary, ts := newPrimary(t)
	primary.AddFact("p", "x")
	baseline := runtime.NumGoroutine()

	for round := 0; round < 4; round++ {
		eng, err := onesided.Open()
		if err != nil {
			t.Fatal(err)
		}
		f, err := Start(FollowerConfig{
			Engine:       eng,
			Primary:      ts.URL,
			Dir:          t.TempDir(),
			PollInterval: 50 * time.Millisecond,
			RetryBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			f.Close()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		leakcheck.Wait(t, baseline)
	}
}
