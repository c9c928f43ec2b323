package onesided

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/leakcheck"
)

// chainEngine builds an engine over a long a-chain so the Fig. 9
// fixpoint has plenty of work left when the consumer walks away.
func chainEngine(t *testing.T, n int) *Engine {
	t.Helper()
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	src := "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"
	if _, err := eng.Load(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		eng.AddFact("b", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i))
	}
	return eng
}

// TestStreamEarlyAbandonmentNoGoroutineLeak is the regression for the
// Rows.All early-break path: breaking out of a live stream must not
// leave the evaluation goroutine blocked on a channel send. The drain in
// All plus the context-aware emit guarantee the goroutine exits; this
// test abandons many streams at several depths and checks the goroutine
// count returns to baseline every time.
func TestStreamEarlyAbandonmentNoGoroutineLeak(t *testing.T) {
	eng := chainEngine(t, 400)
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		rows, err := eng.QueryStream(ctx, "t(n0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		consumed := 0
		for range rows.All() {
			consumed++
			if consumed > round%5 {
				break // abandon mid-fixpoint
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("round %d: early break reported %v", round, err)
		}
	}
	leakcheck.Wait(t, baseline)
}

// TestStreamAbandonWithoutDrainLeavesNoSender abandons the stream
// without ever calling an accessor that waits (the pathological caller):
// the stop alone must unblock the evaluator.
func TestStreamAbandonWithoutDrainLeavesNoSender(t *testing.T) {
	eng := chainEngine(t, 400)
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		rows, err := eng.QueryStream(ctx, "t(n0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		for range rows.All() {
			break
		}
		// No Err/Wait/Len: the Rows is dropped on the floor here.
	}
	leakcheck.Wait(t, baseline)
}
