package multi

import (
	"testing"

	"repro/internal/parser"
)

func mustMulti(t *testing.T, src, pred string) *Definition {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Extract(p, pred)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// twoChainSrc combines two one-sided rules that stay one-sided together:
// both walk the same side.
const twoChainSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- c(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
`

// conflictSrc combines two individually one-sided rules whose combination
// is two-sided: the first grows the X side, the second the Y side —
// Section 5's caveat.
const conflictSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- c(Y, W), t(X, W).
	t(X, Y) :- b(X, Y).
`

func TestExtract(t *testing.T) {
	d := mustMulti(t, twoChainSrc, "t")
	if len(d.Recursive) != 2 || d.Pred() != "t" || d.Arity() != 2 {
		t.Fatalf("extract = %+v", d)
	}
	// Missing exit rule.
	p := parser.MustParseProgram(`t(X, Y) :- a(X, Z), t(Z, Y).`)
	if _, err := Extract(p, "t"); err == nil {
		t.Fatal("expected error: no exit rule")
	}
}

// TestExpE21CombinationOneSided: both rules extend the same unbounded
// side, and the combination stays one-sided (per-rule, union graph, and
// expansion sampling all agree).
func TestExpE21CombinationOneSided(t *testing.T) {
	d := mustMulti(t, twoChainSrc, "t")
	cls, err := Classify(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range cls.PerRule {
		if !pr.OneSided {
			t.Fatalf("rule %d should be one-sided alone", i)
		}
	}
	if !cls.UnionOneSided || cls.UnionSidedness != 1 {
		t.Fatalf("union: one-sided=%v sidedness=%d", cls.UnionOneSided, cls.UnionSidedness)
	}
	if got := SampleSidedness(d, 32, 1); got != 1 {
		t.Fatalf("sampled sidedness = %d, want 1", got)
	}
}

// TestExpE21CombinationTwoSided: Section 5's caveat — each rule is
// one-sided alone, but the combination grows both sides.
func TestExpE21CombinationTwoSided(t *testing.T) {
	d := mustMulti(t, conflictSrc, "t")
	cls, err := Classify(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range cls.PerRule {
		if !pr.OneSided {
			t.Fatalf("rule %d should be one-sided alone", i)
		}
	}
	if cls.UnionOneSided {
		t.Fatal("union graph should not be one-sided")
	}
	if cls.UnionSidedness != 2 {
		t.Fatalf("union sidedness = %d, want 2", cls.UnionSidedness)
	}
	if got := SampleSidedness(d, 32, 1); got != 2 {
		t.Fatalf("sampled sidedness = %d, want 2", got)
	}
}

// TestUnionGraphAgreesWithSampling cross-validates the union-graph
// heuristic against expansion sampling on a corpus of combinations.
func TestUnionGraphAgreesWithSampling(t *testing.T) {
	srcs := []string{
		twoChainSrc,
		conflictSrc,
		// Three rules, all same side.
		`t(X, Y) :- a(X, Z), t(Z, Y).
		 t(X, Y) :- c(X, Z), t(Z, Y).
		 t(X, Y) :- d(X, W), e(W, Z), t(Z, Y).
		 t(X, Y) :- b(X, Y).`,
		// Same-generation plus a chain rule: the sg rule alone is already
		// two-sided.
		`t(X, Y) :- p(X, W), p(Y, Z), t(W, Z).
		 t(X, Y) :- a(X, Z), t(Z, Y).
		 t(X, Y) :- b(X, Y).`,
	}
	for _, src := range srcs {
		d := mustMulti(t, src, "t")
		cls, err := Classify(d)
		if err != nil {
			t.Fatal(err)
		}
		sampled := SampleSidedness(d, 40, 2)
		if sampled < 0 {
			continue
		}
		if cls.UnionSidedness != sampled {
			t.Fatalf("%s: union sidedness %d != sampled %d", src, cls.UnionSidedness, sampled)
		}
	}
}

func TestExpandSequence(t *testing.T) {
	d := mustMulti(t, twoChainSrc, "t")
	s := ExpandSequence(d, []int{0, 1, 0})
	want := "a(X, Z0), c(Z0, Z1), a(Z1, Z2), b(Z2, Y)"
	if got := s.String(); got != want {
		t.Fatalf("sequence string = %q, want %q", got, want)
	}
	if s.K != 3 {
		t.Fatalf("K = %d", s.K)
	}
}
