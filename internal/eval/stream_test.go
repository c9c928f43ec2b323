package eval

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestEvalStreamFirstAnswerBeforeFixpointEnds pins the streaming
// contract: a context-mode plan must emit its first answer before the
// Fig. 9 while loop has run to completion. The emit callback is invoked
// synchronously by the evaluation, so recording the iteration counter
// (via TestIterHook) at emit time is deterministic — no scheduling races.
func TestEvalStreamFirstAnswerBeforeFixpointEnds(t *testing.T) {
	db := storage.NewDatabase()
	first, last := datagen.Chain(db, "a", "n", 400)
	db.AddFact("b", first, "z0")  // depth-0 answer: emitted before the loop
	db.AddFact("b", last, "zend") // deepest answer: emitted at the last level
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	plan, err := CompileSelection(d, parser.MustParseAtom("t("+first+", Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}

	iters := 0
	plan.TestIterHook = func(i int) { iters = i }
	emitIters := []int{}
	ans, stats, err := plan.EvalStreamCtx(context.Background(), db, func(tup storage.Tuple) bool {
		emitIters = append(emitIters, iters)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitIters) != 2 || ans.Len() != 2 {
		t.Fatalf("emitted %d answers (relation has %d), want 2", len(emitIters), ans.Len())
	}
	if emitIters[0] != 0 {
		t.Fatalf("first answer emitted after %d iterations, want 0 (before the loop)", emitIters[0])
	}
	if stats.Iterations < 399 {
		t.Fatalf("fixpoint ran %d iterations, expected the full chain", stats.Iterations)
	}
	if emitIters[0] >= stats.Iterations {
		t.Fatalf("first answer at iteration %d, not before the final iteration %d", emitIters[0], stats.Iterations)
	}
	if last := emitIters[len(emitIters)-1]; last < 399 {
		t.Fatalf("deepest answer emitted at iteration %d, expected the last level", last)
	}
}

// TestEvalStreamEmitStop checks that emit returning false stops the
// evaluation early without error.
func TestEvalStreamEmitStop(t *testing.T) {
	db := storage.NewDatabase()
	first, _ := datagen.Chain(db, "a", "n", 100)
	for i := 0; i < 100; i++ {
		db.AddFact("b", "n"+itoa(i), "sink"+itoa(i))
	}
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	plan, err := CompileSelection(d, parser.MustParseAtom("t("+first+", Y)"))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	_, _, err = plan.EvalStreamCtx(context.Background(), db, func(storage.Tuple) bool {
		got++
		return got < 3
	})
	if err != nil {
		t.Fatalf("early stop returned error: %v", err)
	}
	if got != 3 {
		t.Fatalf("emit called %d times after stop at 3", got)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}
