package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestMeterCharge(t *testing.T) {
	m := NewMeter(10)
	if err := m.Charge(4); err != nil {
		t.Fatalf("charge 4 of 10: %v", err)
	}
	if got := m.Remaining(); got != 6 {
		t.Fatalf("Remaining = %d, want 6", got)
	}
	if err := m.Charge(0); err != nil {
		t.Fatalf("zero charge must be free: %v", err)
	}
	if err := m.Charge(7); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("overdraw err = %v, want ErrGasExhausted", err)
	}
	// Exhaustion latches: the balance never recovers, and Remaining
	// reports 0 rather than a negative debt.
	if !m.Exhausted() || m.Remaining() != 0 {
		t.Fatalf("after overdraw: exhausted=%v remaining=%d", m.Exhausted(), m.Remaining())
	}
	if err := m.Charge(1); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("post-exhaustion charge err = %v", err)
	}
}

func TestMeterNilUnlimited(t *testing.T) {
	var m *Meter
	if err := m.Charge(1 << 30); err != nil {
		t.Fatalf("nil meter charged: %v", err)
	}
	if m.Exhausted() || m.Remaining() != -1 {
		t.Fatalf("nil meter: exhausted=%v remaining=%d", m.Exhausted(), m.Remaining())
	}
	if NewMeter(0) != nil || NewMeter(-5) != nil {
		t.Fatal("non-positive limits must mean unlimited (nil meter)")
	}
}

func TestMeterContext(t *testing.T) {
	if MeterFrom(context.Background()) != nil {
		t.Fatal("background ctx must carry no meter")
	}
	m := NewMeter(3)
	ctx := WithMeter(context.Background(), m)
	if MeterFrom(ctx) != m {
		t.Fatal("WithMeter/MeterFrom round trip failed")
	}
	// Attaching nil is a no-op wrapper (still no meter).
	if MeterFrom(WithMeter(context.Background(), nil)) != nil {
		t.Fatal("nil meter attachment must read back as unlimited")
	}
}

// errCounter is a context whose Done is closed from the start and whose
// Err counts its calls, turning non-nil on the call after the first
// `after`.
type errCounter struct {
	context.Context
	calls, after int
}

func (c *errCounter) Done() <-chan struct{} { return closedDone }

func (c *errCounter) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestPollPreClosedAsksEveryPoll: a Done closed before the loop starts
// is seen at the first poll, and every poll after it calls Err, past
// pollWatchAfter too, with no watcher started.
func TestPollPreClosedAsksEveryPoll(t *testing.T) {
	ctx := &errCounter{Context: context.Background(), after: 3}
	p := newPoll(ctx)
	defer p.stop()
	for i := 1; i <= 2*pollWatchAfter; i++ {
		err := p.err()
		if ctx.calls != i {
			t.Fatalf("poll %d: %d Err calls", i, ctx.calls)
		}
		if got, want := err != nil, i > 3; got != want {
			t.Fatalf("poll %d: err %v", i, err)
		}
	}
	if p.quit != nil {
		t.Fatal("a pre-closed Done started a watcher")
	}
}

// TestPollSeesMidLoopCancel: a Done that closes while the loop runs is
// seen, whether the loop is still polling by select or its watcher has
// started; once seen, every later poll reports it.
func TestPollSeesMidLoopCancel(t *testing.T) {
	for _, before := range []int{pollWatchAfter / 2, pollWatchAfter, 3 * pollWatchAfter} {
		ctx, cancel := context.WithCancel(context.Background())
		p := newPoll(ctx)
		for i := 0; i < before; i++ {
			if err := p.err(); err != nil {
				t.Fatalf("after %d polls: poll %d: %v before the cancel", before, i+1, err)
			}
		}
		if watching := p.quit != nil; watching != (before >= pollWatchAfter) {
			t.Fatalf("after %d polls: watcher started %v", before, watching)
		}
		cancel()
		deadline := time.Now().Add(5 * time.Second)
		for p.err() == nil {
			if time.Now().After(deadline) {
				t.Fatalf("after %d polls: the cancel was not seen in 5 s", before)
			}
			runtime.Gosched()
		}
		if err := p.err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("after %d polls: the poll after the cancel was seen: %v", before, err)
		}
		p.stop()
	}
}

// TestPollWatcherLifetime: a loop that ends before pollWatchAfter polls
// starts no goroutine, and the watcher of a longer one exits once the
// loop stops its poll.
func TestPollWatcherLifetime(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	short := newPoll(ctx)
	for i := 1; i < pollWatchAfter; i++ {
		if err := short.err(); err != nil {
			t.Fatal(err)
		}
	}
	if short.quit != nil || runtime.NumGoroutine() > base {
		t.Fatalf("%d polls started a watcher: %d goroutines, %d before", pollWatchAfter-1, runtime.NumGoroutine(), base)
	}
	short.stop()

	long := newPoll(ctx)
	for i := 0; i < pollWatchAfter; i++ {
		if err := long.err(); err != nil {
			t.Fatal(err)
		}
	}
	if long.quit == nil {
		t.Fatalf("%d polls started no watcher", pollWatchAfter)
	}
	long.stop()
	leakcheck.Wait(t, base)
}
