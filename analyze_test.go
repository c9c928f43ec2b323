package onesided

import (
	"testing"
)

// TestAnalyzeRuleReports: the per-rule lines carry the Theorem 3.4
// rewriting (removed atom, optimized rule) and the collapse depth.
func TestAnalyzeRuleReports(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Load(`
		buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
		buys(X, Y) :- likes(X, Y), cheap(Y).
		s(X, Y) :- e(W1, W2), s(X, Y).
		s(X, Y) :- b(X, Y).
	`); err != nil {
		t.Fatal(err)
	}
	buys, err := eng.Analyze("buys")
	if err != nil {
		t.Fatal(err)
	}
	r := buys.Rules[0]
	if r.Verdict != "one-sided after optimization" || len(r.Removed) != 1 || r.Removed[0].String() != "cheap(Y)" {
		t.Fatalf("buys: verdict %q, removed %v", r.Verdict, r.Removed)
	}
	if r.Optimized == nil || r.Optimized.String() != "buys(X, Y) :- knows(X, W), buys(W, Y)." || r.Collapse != -1 {
		t.Fatalf("buys: optimized %v, collapse %d", r.Optimized, r.Collapse)
	}
	s, err := eng.Analyze("s")
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Rules[0]; r.Verdict != "uniformly bounded" || r.Collapse != 0 || r.Optimized != nil {
		t.Fatalf("s: verdict %q, collapse %d, optimized %v", r.Verdict, r.Collapse, r.Optimized)
	}
	if _, err := eng.Analyze("knows"); err == nil {
		t.Fatal("a base predicate has no recursion to analyse")
	}
}

// TestAnalyzeFollowsTheChain: the plans come from the engine's own
// strategy chain, a chain that declines an adornment reports "none" with
// every reason, and the plan cache is neither consulted nor filled.
func TestAnalyzeFollowsTheChain(t *testing.T) {
	eng, err := Open(WithStrategies("onesided"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- c(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`); err != nil {
		t.Fatal(err)
	}
	a, err := eng.Analyze("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != 2 || len(a.Plans) != 4 {
		t.Fatalf("%d rules, %d plans", len(a.Rules), len(a.Plans))
	}
	for _, ex := range a.Plans {
		switch ex.Adornment {
		case "fb":
			if ex.Strategy != "onesided" || ex.Mode != "reduced" || len(ex.Rejected) != 0 {
				t.Fatalf("fb: %v", ex)
			}
		case "bb", "bf", "ff":
			if ex.Strategy != "none" || len(ex.Rejected) != 1 || ex.Rejected[0].Strategy != "onesided" {
				t.Fatalf("%s: %v", ex.Adornment, ex)
			}
		default:
			t.Fatalf("unexpected adornment %q", ex.Adornment)
		}
	}
	if cs := eng.CacheStats(); cs.Entries != 0 || cs.Misses != 0 || cs.Hits != 0 {
		t.Fatalf("Analyze touched the plan cache: %s", cs)
	}
}
