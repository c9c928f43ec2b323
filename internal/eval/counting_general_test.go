package eval

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

// dagDB builds a small layered DAG with b exits from the last layer.
func dagDB(layers, width int) *storage.Database {
	db := storage.NewDatabase()
	name := func(l, i int) string { return "v" + strconv.Itoa(l) + "x" + strconv.Itoa(i) }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			db.AddFact("a", name(l, i), name(l+1, i))
			db.AddFact("a", name(l, i), name(l+1, (i+1)%width))
		}
	}
	for i := 0; i < width; i++ {
		db.AddFact("b", name(layers-1, i), "sink"+strconv.Itoa(i%2))
	}
	return db
}

// TestCountingGeneralMatchesEvalOnDAG: on acyclic context graphs the
// counting discipline computes the same answers as the seen-set schema.
func TestCountingGeneralMatchesEvalOnDAG(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := dagDB(6, 4)
	q := parser.MustParseAtom("t(v0x0, Y)")
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := plan.EvalCounting(db, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("counting %v != eval %v", AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
	}
	if stats.Iterations == 0 {
		t.Fatal("stats not populated")
	}
}

// TestCountingGeneralDivergesOnCycle: the counting discipline has no
// cross-level dedup, so cyclic context graphs exceed the depth bound,
// while Eval terminates (Property 1).
func TestCountingGeneralDivergesOnCycle(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", "y", "out")
	q := parser.MustParseAtom("t(x, Y)")
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.EvalCounting(db, 20); err == nil {
		t.Fatal("expected divergence error on cyclic data")
	}
	if _, _, err := plan.Eval(db); err != nil {
		t.Fatalf("seen-set evaluation must terminate: %v", err)
	}
	// The level loop honours cancellation before it honours the bound.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := plan.EvalCountingCtx(ctx, db, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled counting evaluation: err = %v, want context.Canceled", err)
	}
}

// TestCountingGeneralStateBlowup quantifies the ablation: on a DAG with
// many distinct paths, counting's level-indexed state revisits contexts
// (SeenSize counts with multiplicity) while the seen-set keeps each once.
func TestCountingGeneralStateBlowup(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := dagDB(8, 3)
	q := parser.MustParseAtom("t(v0x0, Y)")
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	_, evalStats, err := plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	_, cntStats, err := plan.EvalCounting(db, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cntStats.SeenSize < evalStats.SeenSize {
		t.Fatalf("counting state %d < seen-set state %d; expected revisits",
			cntStats.SeenSize, evalStats.SeenSize)
	}
}

// TestCountingGeneralRequiresContextMode: reduced-mode plans are rejected.
func TestCountingGeneralRequiresContextMode(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	plan, err := CompileSelection(d, parser.MustParseAtom("t(X, sink0)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.EvalCounting(storage.NewDatabase(), 10); err == nil {
		t.Fatal("expected mode error")
	}
}

// TestCountingGeneralPermissions: the binary-state plan also runs under
// the counting discipline on acyclic data.
func TestCountingGeneralPermissions(t *testing.T) {
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	db := storage.NewDatabase()
	db.AddFact("a", "1", "2")
	db.AddFact("a", "2", "3")
	db.AddFact("b", "3", "v")
	db.AddFact("b", "3", "w")
	for _, x := range []string{"1", "2", "3"} {
		db.AddFact("p", x, "v")
	}
	db.AddFact("p", "2", "w")
	q := parser.MustParseAtom("t(1, Y)")
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.EvalCounting(db, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("counting %v != eval %v", AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
	}
}
