package onesided

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/proof"
)

// TestPublicAPIProofs exercises the Section 4 proofs: find, verify,
// minimize.
func TestPublicAPIProofs(t *testing.T) {
	def, err := parser.ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.AddFact("a", "s", "c0")
	db.AddFact("a", "c0", "c1")
	db.AddFact("a", "c1", "c0")
	db.AddFact("b", "c1", "out")

	p := proof.Find(def, db, []string{"s", "out"})
	if p == nil {
		t.Fatal("no proof for t(s, out)")
	}
	if err := p.Verify(db); err != nil {
		t.Fatal(err)
	}
	min := p.Minimize()
	if err := min.Verify(db); err != nil {
		t.Fatal(err)
	}
	for c, n := range min.ColumnOccurrences("a", 0) {
		if n > 1 {
			t.Fatalf("Lemma 4.1: %s repeats %d times after splicing", c, n)
		}
	}
	if proof.Find(def, db, []string{"out", "s"}) != nil {
		t.Fatal("reverse tuple should have no proof")
	}
}

// TestPublicAPIBoundedness exercises the uniform-boundedness search.
func TestPublicAPIBoundedness(t *testing.T) {
	bounded, err := parser.ParseDefinition(`
		t(X, Y) :- e(W1, W2), t(X, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	if err != nil {
		t.Fatal(err)
	}
	k, ok := analysis.BoundednessLevel(bounded, 4)
	if !ok || k != 0 {
		t.Fatalf("level=%d ok=%v", k, ok)
	}
	tc, err := parser.ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := analysis.BoundednessLevel(tc, 4); ok {
		t.Fatal("transitive closure must not be bounded")
	}
}

// TestPublicAPIMultiRule evaluates a Section 5 two-rule recursion with
// the rule-by-rule persistent-column reduction and checks it against
// Magic Sets.
func TestPublicAPIMultiRule(t *testing.T) {
	prog, err := ParseProgram(`
		t(X, Y) :- rail(X, Z), t(Z, Y).
		t(X, Y) :- bus(X, Z), t(Z, Y).
		t(X, Y) :- home(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}

	db := NewDatabase()
	db.AddFact("rail", "x", "y")
	db.AddFact("bus", "y", "z")
	db.AddFact("home", "z", "base")
	q, _ := ParseQuery("t(X, base)")
	ps, err := eval.OneSided().Prepare(prog, eval.AdornQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if mode := ps.Explain().Mode; mode != "reduced" {
		t.Fatalf("mode = %s", mode)
	}
	ans, _, err := eval.Eval(context.Background(), ps, db)
	if err != nil {
		t.Fatal(err)
	}
	got := eval.AnswerStrings(ans, db.Syms)
	if len(got) != 3 {
		t.Fatalf("answers = %v", got)
	}
	// Same answers through magic.
	want, _, err := eval.MagicEval(prog, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(want) {
		t.Fatal("reduced multi evaluation disagrees with magic")
	}
}
