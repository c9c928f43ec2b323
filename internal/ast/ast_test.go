package ast

import (
	"strings"
	"testing"
)

// tc returns the canonical one-sided recursion (paper Example 2.1):
//
//	t(X, Y) :- a(X, Z), t(Z, Y).
//	t(X, Y) :- b(X, Y).
func tc() *Definition {
	return &Definition{
		Recursive: NewRule(NewAtom("t", V("X"), V("Y")),
			NewAtom("a", V("X"), V("Z")), NewAtom("t", V("Z"), V("Y"))),
		Exit: NewRule(NewAtom("t", V("X"), V("Y")), NewAtom("b", V("X"), V("Y"))),
	}
}

func TestTermConstructors(t *testing.T) {
	if !V("X").IsVar() || V("X").IsConst() {
		t.Fatal("V should build a variable")
	}
	if !C("a").IsConst() || C("a").IsVar() {
		t.Fatal("C should build a constant")
	}
	if V("X") == C("X") {
		t.Fatal("variable and constant with same name must differ")
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("t", V("X"), C("n0"))
	if got := a.String(); got != "t(X, n0)" {
		t.Fatalf("got %q", got)
	}
	if got := NewAtom("true").String(); got != "true" {
		t.Fatalf("got %q", got)
	}
}

func TestAtomEqualAndClone(t *testing.T) {
	a := NewAtom("p", V("X"), C("c"))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should be equal")
	}
	b.Args[0] = C("d")
	if a.Equal(b) {
		t.Fatal("mutating clone must not affect original")
	}
	if a.Equal(NewAtom("p", V("X"))) {
		t.Fatal("different arity atoms must not be equal")
	}
	if a.Equal(NewAtom("q", V("X"), C("c"))) {
		t.Fatal("different predicate atoms must not be equal")
	}
}

func TestRuleString(t *testing.T) {
	d := tc()
	want := "t(X, Y) :- a(X, Z), t(Z, Y)."
	if got := d.Recursive.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	fact := NewRule(NewAtom("a", C("x"), C("y")))
	if got := fact.String(); got != "a(x, y)." {
		t.Fatalf("got %q", got)
	}
}

func TestRuleLinearity(t *testing.T) {
	d := tc()
	if !d.Recursive.IsRecursiveFor() || !d.Recursive.IsLinearFor() {
		t.Fatal("transitive closure recursive rule should be linear recursive")
	}
	if got := d.Recursive.RecursiveAtomIndex(); got != 1 {
		t.Fatalf("recursive atom index = %d, want 1", got)
	}
	nonlinear := NewRule(NewAtom("t", V("X"), V("Y")),
		NewAtom("t", V("X"), V("Z")), NewAtom("t", V("Z"), V("Y")))
	if nonlinear.IsLinearFor() {
		t.Fatal("doubly recursive rule must not be linear")
	}
	if nonlinear.RecursiveAtomIndex() != -1 {
		t.Fatal("nonlinear rule has no single recursive atom")
	}
}

func TestRuleValidate(t *testing.T) {
	cases := []struct {
		name string
		r    Rule
		ok   bool
	}{
		{"good", tc().Recursive, true},
		{"head constant", NewRule(NewAtom("t", C("c"), V("Y")), NewAtom("b", V("Y"))), false},
		{"head repeat", NewRule(NewAtom("t", V("X"), V("X")), NewAtom("b", V("X"))), false},
		{"unsafe head var", NewRule(NewAtom("t", V("X"), V("Y")), NewAtom("b", V("X"))), false},
	}
	for _, c := range cases {
		err := c.r.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestProgramPredicateClassification(t *testing.T) {
	p := tc().Program()
	idb := p.IDBPreds()
	edb := p.EDBPreds()
	if !idb["t"] || idb["a"] || idb["b"] {
		t.Fatalf("IDB = %v", idb)
	}
	if !edb["a"] || !edb["b"] || edb["t"] {
		t.Fatalf("EDB = %v", edb)
	}
}

func TestProgramArities(t *testing.T) {
	p := tc().Program()
	ar, err := p.Arities()
	if err != nil {
		t.Fatal(err)
	}
	if ar["t"] != 2 || ar["a"] != 2 || ar["b"] != 2 {
		t.Fatalf("arities = %v", ar)
	}
	bad := NewProgram(
		NewRule(NewAtom("p", V("X")), NewAtom("q", V("X"))),
		NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("q", V("X")), NewAtom("q", V("Y"))),
	)
	if _, err := bad.Arities(); err == nil {
		t.Fatal("expected arity mismatch error")
	}
}

func TestSubstApply(t *testing.T) {
	s := Subst{"X": C("a"), "Y": V("Z"), "Z": C("b")}
	if got := s.Lookup(V("X")); got != C("a") {
		t.Fatalf("X -> %v", got)
	}
	// Parallel semantics: Y -> Z (bindings are not chased).
	if got := s.Lookup(V("Y")); got != V("Z") {
		t.Fatalf("Y -> %v", got)
	}
	if got := s.Lookup(V("W")); got != V("W") {
		t.Fatalf("unbound W -> %v", got)
	}
	if got := s.Lookup(C("k")); got != C("k") {
		t.Fatalf("constant -> %v", got)
	}
	a := s.ApplyAtom(NewAtom("p", V("X"), V("Y"), V("W")))
	if a.String() != "p(a, Z, W)" {
		t.Fatalf("applied atom = %v", a)
	}
}

func TestSubstBindIsPersistent(t *testing.T) {
	s := Subst{"X": C("a")}
	s2 := s.Bind("Y", C("b"))
	if _, ok := s["Y"]; ok {
		t.Fatal("Bind must not mutate the receiver")
	}
	if s2.Lookup(V("Y")) != C("b") || s2.Lookup(V("X")) != C("a") {
		t.Fatal("Bind result missing bindings")
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{"B": C("b"), "A": C("a")}
	if got := s.String(); got != "{A->a, B->b}" {
		t.Fatalf("got %q", got)
	}
}

func TestRenameApart(t *testing.T) {
	r := tc().Recursive
	r2 := RenameApart(r, "0")
	want := "t(X0, Y0) :- a(X0, Z0), t(Z0, Y0)."
	if got := r2.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	// The original is untouched.
	if !strings.Contains(r.String(), "t(X, Y)") {
		t.Fatal("RenameApart mutated its argument")
	}
}

func TestDefinitionBasics(t *testing.T) {
	d := tc()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Pred() != "t" || d.Arity() != 2 {
		t.Fatalf("pred/arity = %s/%d", d.Pred(), d.Arity())
	}
	if got := d.RecursiveAtom().String(); got != "t(Z, Y)" {
		t.Fatalf("recursive atom = %s", got)
	}
	nb := d.NonrecursiveBody()
	if len(nb) != 1 || nb[0].String() != "a(X, Z)" {
		t.Fatalf("nonrecursive body = %v", nb)
	}
}

func TestPersistentColumns(t *testing.T) {
	// In transitive closure, Y is persistent (same position head and body),
	// X is not (the body recursive atom has Z there).
	d := tc()
	pc := d.PersistentColumns()
	if pc[0] || !pc[1] {
		t.Fatalf("persistent columns = %v, want [false true]", pc)
	}
	// Same generation: sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z): neither persists.
	sg := &Definition{
		Recursive: NewRule(NewAtom("sg", V("X"), V("Y")),
			NewAtom("p", V("X"), V("W")), NewAtom("p", V("Y"), V("Z")),
			NewAtom("sg", V("W"), V("Z"))),
		Exit: NewRule(NewAtom("sg", V("X"), V("Y")), NewAtom("sg0", V("X"), V("Y"))),
	}
	pc = sg.PersistentColumns()
	if pc[0] || pc[1] {
		t.Fatalf("sg persistent columns = %v, want [false false]", pc)
	}
}

func TestDefinitionValidateRejections(t *testing.T) {
	good := tc()
	cases := []struct {
		name string
		mut  func(d *Definition)
	}{
		{"different predicate", func(d *Definition) { d.Exit.Head.Pred = "u" }},
		{"different arity", func(d *Definition) {
			d.Exit = NewRule(NewAtom("t", V("X")), NewAtom("b", V("X"), V("X")))
		}},
		{"nonlinear recursive", func(d *Definition) {
			d.Recursive.Body = append(d.Recursive.Body, NewAtom("t", V("X"), V("Z")))
		}},
		{"recursive exit", func(d *Definition) {
			d.Exit.Body = []Atom{NewAtom("t", V("X"), V("Y"))}
		}},
		{"empty exit body", func(d *Definition) { d.Exit.Body = nil }},
	}
	for _, c := range cases {
		d := good.Clone()
		c.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestHasRepeatedNonrecursivePredicates(t *testing.T) {
	d := tc()
	if d.HasRepeatedNonrecursivePredicates() {
		t.Fatal("transitive closure has no repeated nonrecursive predicates")
	}
	sgRule := NewRule(NewAtom("sg", V("X"), V("Y")),
		NewAtom("p", V("X"), V("W")), NewAtom("p", V("Y"), V("Z")),
		NewAtom("sg", V("W"), V("Z")))
	sg := &Definition{Recursive: sgRule,
		Exit: NewRule(NewAtom("sg", V("X"), V("Y")), NewAtom("sg0", V("X"), V("Y")))}
	if !sg.HasRepeatedNonrecursivePredicates() {
		t.Fatal("same generation repeats p")
	}
}

func TestExtractDefinition(t *testing.T) {
	p := tc().Program()
	d, err := ExtractDefinition(p, "t")
	if err != nil {
		t.Fatal(err)
	}
	if d.Pred() != "t" {
		t.Fatalf("pred = %s", d.Pred())
	}
	if _, err := ExtractDefinition(p, "missing"); err == nil {
		t.Fatal("expected error for unknown predicate")
	}
	// Two recursive rules -> error.
	p2 := p.Clone()
	p2.Rules = append(p2.Rules, p.Rules[0].Clone())
	if _, err := ExtractDefinition(p2, "t"); err == nil {
		t.Fatal("expected error for two recursive rules")
	}
}

// TestExtractRecursion: k linear recursive rules sharing one exit rule
// come back one Definition per rule, in program order; a recursion
// without its exit rule is rejected.
func TestExtractRecursion(t *testing.T) {
	p := tc().Program()
	second := NewRule(NewAtom("t", V("X"), V("Y")),
		NewAtom("c", V("X"), V("Z")), NewAtom("t", V("Z"), V("Y")))
	p.Rules = append(p.Rules, second)
	defs, err := ExtractRecursion(p, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 || defs[0].Pred() != "t" || defs[0].Arity() != 2 {
		t.Fatalf("extracted %v", defs)
	}
	if defs[0].Recursive.String() != tc().Recursive.String() || defs[1].Recursive.String() != second.String() {
		t.Fatalf("recursive rules %v, %v", defs[0].Recursive, defs[1].Recursive)
	}
	for i, d := range defs {
		if d.Exit.String() != tc().Exit.String() {
			t.Fatalf("definition %d pairs exit %v", i, d.Exit)
		}
	}
	noExit := NewProgram()
	noExit.Rules = append(noExit.Rules, tc().Recursive, second)
	if _, err := ExtractRecursion(noExit, "t"); err == nil {
		t.Fatal("expected error: no exit rule")
	}
}

func TestIsFact(t *testing.T) {
	if !NewRule(NewAtom("a", C("x"), C("y"))).IsFact() {
		t.Fatal("ground head, empty body is a fact")
	}
	if NewRule(NewAtom("a", V("X"))).IsFact() {
		t.Fatal("non-ground head is not a fact")
	}
	if tc().Exit.IsFact() {
		t.Fatal("rule with body is not a fact")
	}
}

func TestProgramString(t *testing.T) {
	p := tc().Program()
	want := "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y)."
	if got := p.String(); got != want {
		t.Fatalf("got %q", got)
	}
}
