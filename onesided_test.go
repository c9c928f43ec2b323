package onesided

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/avgraph"
	"repro/internal/eval"
	"repro/internal/expand"
	"repro/internal/parser"
	"repro/internal/rewrite"
)

const tcSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
`

// TestPublicAPIEndToEnd runs the paper's workflow below the Engine:
// parse, classify, build a database, compile, evaluate.
func TestPublicAPIEndToEnd(t *testing.T) {
	def, err := parser.ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	cls, err := analysis.Classify(def)
	if err != nil {
		t.Fatal(err)
	}
	if !cls.OneSided || cls.Sidedness != 1 {
		t.Fatalf("classification = %+v", cls)
	}

	db := NewDatabase()
	db.AddFact("a", "paris", "lyon")
	db.AddFact("a", "lyon", "marseille")
	db.AddFact("b", "marseille", "nice")

	q, err := ParseQuery("t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eval.CompileSelection(def, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d", plan.CarryArity)
	}
	answers, stats, err := plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got := eval.AnswerStrings(answers, db.Syms)
	if len(got) != 1 || got[0] != "paris,nice" {
		t.Fatalf("answers = %v", got)
	}
	if stats.SeenSize == 0 {
		t.Fatal("stats not populated")
	}
}

func TestPublicAPIDecide(t *testing.T) {
	buys, err := parser.ParseDefinition(`
		buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
		buys(X, Y) :- likes(X, Y), cheap(Y).
	`, "buys")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := rewrite.DecideOneSided(buys)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != rewrite.VerdictConverted {
		t.Fatalf("verdict = %v", dec.Verdict)
	}
	if len(dec.Removed) != 1 {
		t.Fatalf("removed = %v", dec.Removed)
	}

	sg, err := parser.ParseDefinition(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`, "sg")
	if err != nil {
		t.Fatal(err)
	}
	dec, err = rewrite.DecideOneSided(sg)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != rewrite.VerdictNotOneSided {
		t.Fatalf("sg verdict = %v", dec.Verdict)
	}
}

func TestPublicAPIGraphsAndExpansion(t *testing.T) {
	def, err := parser.ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	if g := avgraph.New(def).Render(); !strings.Contains(g, "A/V graph") {
		t.Fatalf("AVGraph = %q", g)
	}
	if g := avgraph.NewFull(def).Render(); !strings.Contains(g, "full A/V graph") {
		t.Fatalf("FullAVGraph = %q", g)
	}
	ss := expand.Expand(def, 2)
	if len(ss) != 3 || ss[1].String() != "a(X, Z0), b(Z0, Y)" {
		t.Fatalf("expansion = %v", ss)
	}
}

func TestPublicAPIParseSource(t *testing.T) {
	p, queries, err := ParseSource(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(u, w). b(w, v).
		?- t(u, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	rules := loadFacts(p, db)
	if len(rules.Rules) != 2 || len(queries) != 1 {
		t.Fatalf("rules=%d queries=%d", len(rules.Rules), len(queries))
	}
	ans, _, err := eval.MagicEval(rules, queries[0], db)
	if err != nil {
		t.Fatal(err)
	}
	if got := eval.AnswerStrings(ans, db.Syms); len(got) != 1 || got[0] != "u,v" {
		t.Fatalf("answers = %v", got)
	}
}

func TestPublicAPIEngineAgreement(t *testing.T) {
	def, err := parser.ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", "y", "z")
	q, _ := ParseQuery("t(x, Y)")

	planAns, _, err := eval.OneSidedEval(def, q, db)
	if err != nil {
		t.Fatal(err)
	}
	magicAns, _, err := eval.MagicEval(def.Program(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	fullAns, _, err := eval.SelectEval(def.Program(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !planAns.Equal(magicAns) || !planAns.Equal(fullAns) {
		t.Fatalf("engines disagree: plan=%v magic=%v full=%v",
			eval.AnswerStrings(planAns, db.Syms), eval.AnswerStrings(magicAns, db.Syms), eval.AnswerStrings(fullAns, db.Syms))
	}
}
