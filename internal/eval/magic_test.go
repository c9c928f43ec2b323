package eval

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

func TestMagicTCBoundFirst(t *testing.T) {
	p := mustProgram(t, tcSrc)
	db := chainDB(5)
	q := parser.MustParseAtom("t(n0, Y)")
	ans, _, err := MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SelectEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(want) {
		t.Fatalf("magic answers %v != full %v",
			AnswerStrings(ans, db.Syms), AnswerStrings(want, db.Syms))
	}
	if ans.Len() != 1 {
		t.Fatalf("expected 1 answer, got %v", AnswerStrings(ans, db.Syms))
	}
}

func TestMagicTCBoundSecond(t *testing.T) {
	p := mustProgram(t, tcSrc)
	db := chainDB(5)
	q := parser.MustParseAtom("t(X, end)")
	ans, _, err := MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SelectEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(want) {
		t.Fatalf("magic %v != full %v", AnswerStrings(ans, db.Syms), AnswerStrings(want, db.Syms))
	}
	if ans.Len() != 6 {
		t.Fatalf("expected 6 answers, got %v", AnswerStrings(ans, db.Syms))
	}
}

func TestMagicRestrictsComputation(t *testing.T) {
	// Two disjoint chains; a query on the first must not derive tuples
	// about the second.
	p := mustProgram(t, tcSrc)
	db := storage.NewDatabase()
	for i := 0; i < 50; i++ {
		db.AddFact("a", "x"+strconv.Itoa(i), "x"+strconv.Itoa(i+1))
		db.AddFact("a", "y"+strconv.Itoa(i), "y"+strconv.Itoa(i+1))
	}
	db.AddFact("b", "x50", "endx")
	db.AddFact("b", "y50", "endy")

	mr, err := MagicTransform(p, parser.MustParseAtom("t(x0, W)"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SemiNaive(mr.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	// The adorned answer relation must only contain x-chain tuples.
	rel := res.IDB.Relation(mr.AnswerPred)
	for _, tup := range rel.Tuples() {
		name := db.Syms.Name(tup[0])
		if name[0] != 'x' {
			t.Fatalf("magic derived irrelevant tuple starting at %s", name)
		}
	}
	// And the magic set is exactly the x-chain suffix from x0.
	magic := res.IDB.Relation("m_t__bf")
	if magic == nil || magic.Len() != 51 {
		t.Fatalf("magic set size = %v, want 51", magic)
	}
}

func TestMagicSameGenerationBothBound(t *testing.T) {
	// Section 5's remark: sg(john, june)-style queries have constants on
	// both sides; magic handles them with a bb adornment.
	p := mustProgram(t, `
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`)
	db := storage.NewDatabase()
	db.AddFact("p", "john", "jp")
	db.AddFact("p", "june", "up")
	db.AddFact("p", "jp", "root")
	db.AddFact("p", "up", "root")
	db.AddFact("sg0", "root", "root")

	q := parser.MustParseAtom("sg(john, june)")
	ans, _, err := MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("sg(john, june) should hold: %v", AnswerStrings(ans, db.Syms))
	}
	// Negative case.
	db2 := storage.NewDatabase()
	db2.AddFact("p", "john", "jp")
	db2.AddFact("p", "june", "up")
	db2.AddFact("p", "jp", "root1")
	db2.AddFact("p", "up", "root2")
	db2.AddFact("sg0", "root1", "root1")
	ans2, _, err := MagicEval(p, q, db2)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Len() != 0 {
		t.Fatalf("sg(john, june) should not hold: %v", AnswerStrings(ans2, db2.Syms))
	}
}

func TestMagicTwoSidedCanonical(t *testing.T) {
	// The canonical two-sided recursion (Section 4).
	p := mustProgram(t, `
		t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	for seed := int64(0); seed < 5; seed++ {
		db := randomEDBFor(p, 8, 20, seed)
		q := parser.MustParseAtom("t(d0, Y)")
		ans, _, err := MagicEval(p, q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := SelectEval(p, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Equal(want) {
			t.Fatalf("seed %d: magic %v != full %v", seed,
				AnswerStrings(ans, db.Syms), AnswerStrings(want, db.Syms))
		}
	}
}

func TestMagicFreeQuery(t *testing.T) {
	// A query with no constants: magic degenerates gracefully.
	p := mustProgram(t, tcSrc)
	db := chainDB(3)
	q := parser.MustParseAtom("t(X, Y)")
	ans, _, err := MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SelectEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(want) {
		t.Fatal("free-query magic disagrees with full evaluation")
	}
}

func TestMagicRepeatedQueryVariable(t *testing.T) {
	// t(X, X): answers restricted to loops.
	p := mustProgram(t, tcSrc)
	db := storage.NewDatabase()
	db.AddFact("a", "u", "w")
	db.AddFact("b", "w", "u")
	db.AddFact("b", "w", "w")
	q := parser.MustParseAtom("t(X, X)")
	ans, _, err := MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SelectEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(want) {
		t.Fatalf("magic %v != full %v", AnswerStrings(ans, db.Syms), AnswerStrings(want, db.Syms))
	}
	got := AnswerStrings(ans, db.Syms)
	if !reflect.DeepEqual(got, []string{"u,u", "w,w"}) {
		t.Fatalf("answers = %v", got)
	}
}

func TestMagicUnknownPredicate(t *testing.T) {
	p := mustProgram(t, tcSrc)
	if _, err := MagicTransform(p, parser.MustParseAtom("nosuch(X)")); err == nil {
		t.Fatal("expected error for unknown query predicate")
	}
}

// TestMagicRandomPrograms property-tests magic against full evaluation on
// the paper's recursions, a program with constants in rule bodies and one
// with disconnected atoms (cross products the bound-first order must
// still place), with random data and every bound/free pattern of the
// query predicate — all-bound, all-free and repeated-variable queries
// included. No rewritten rule may derive its own body: a magic rule
// m(Y) :- m(Y) is dropped, not evaluated.
func TestMagicRandomPrograms(t *testing.T) {
	srcs := []string{
		tcSrc,
		`t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		 t(X, Y) :- b(X, Y).`,
		`sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		 sg(X, Y) :- sg0(X, Y).`,
		`t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		 t(X, Y, Z) :- t0(X, Y, Z).`,
		`t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
		 t(X, Y) :- b(X, Y).`,
		`t(X, Y) :- a(X, d1), t(d1, Y).
		 t(X, Y) :- a(X, Z), c(Z, d2), t(Z, Y).
		 t(X, Y) :- b(X, Y).`,
		`t(X, Y) :- a(X, Z), t(Z, Y), d(U, V).
		 t(X, Y) :- b(X, W), c(V, Y).
		 t(X, Y) :- e(X, Y), t(U, U).`,
	}
	for _, src := range srcs {
		p := mustProgram(t, src)
		arities, err := p.Arities()
		if err != nil {
			t.Fatal(err)
		}
		pred := p.Rules[0].Head.Pred
		for _, qs := range queryPatterns(pred, arities[pred]) {
			q := parser.MustParseAtom(qs)
			mr, err := MagicTransform(p, q)
			if err != nil {
				t.Fatalf("%s %s: %v", src, qs, err)
			}
			for _, r := range mr.Program.Rules {
				if len(r.Body) == 1 && r.Body[0].Equal(r.Head) {
					t.Fatalf("%s %s: rewritten rule %s derives nothing", src, qs, r)
				}
			}
			for seed := int64(0); seed < 3; seed++ {
				db := randomEDBFor(p, 6, 18, seed)
				ans, _, err := MagicEval(p, q, db)
				if err != nil {
					t.Fatalf("%s %s: %v", src, qs, err)
				}
				want, _, err := SelectEval(p, q, db)
				if err != nil {
					t.Fatal(err)
				}
				if !ans.Equal(want) {
					t.Fatalf("%s %s seed %d: magic %v != full %v", src, qs, seed,
						AnswerStrings(ans, db.Syms), AnswerStrings(want, db.Syms))
				}
			}
		}
	}
}

// queryPatterns lists every query on pred: each argument is the constant
// d<i>, an earlier argument's variable, or a fresh variable.
func queryPatterns(pred string, arity int) []string {
	var out []string
	var walk func(args []string, vars int)
	walk = func(args []string, vars int) {
		i := len(args)
		if i == arity {
			out = append(out, pred+"("+strings.Join(args, ", ")+")")
			return
		}
		walk(append(args[:i:i], "d"+strconv.Itoa(i)), vars)
		for v := 0; v <= vars; v++ { // v == vars is a fresh variable
			walk(append(args[:i:i], "V"+strconv.Itoa(v)), max(vars, v+1))
		}
	}
	walk(nil, 0)
	return out
}

// TestMagicSIPSShape pins the bound-first rewriting of same-generation
// and transitive closure. Every recursive call keeps the query's
// adornment, so no __bb predicate appears: left to right, sg bf called
// sg bb and built m_sg__bb(W,Z) as the query's parent crossed with every
// Z in p. Under t fb the recursive call is placed first, bound exactly as
// the head, and its magic rule m_t__fb(Y) :- m_t__fb(Y) is dropped.
func TestMagicSIPSShape(t *testing.T) {
	sg := mustProgram(t, `
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`)
	tc := mustProgram(t, tcSrc)
	cases := []struct {
		p     *ast.Program
		query string
		want  []string
	}{
		{sg, "sg(c, Y)", []string{
			"m_sg__bf(W) :- m_sg__bf(X), p(X, W).",
			"sg__bf(X, Y) :- m_sg__bf(X), p(X, W), sg__bf(W, Z), p(Y, Z).",
			"sg__bf(X, Y) :- m_sg__bf(X), sg0(X, Y).",
			"m_sg__bf(c).",
		}},
		{sg, "sg(X, c)", []string{
			"m_sg__fb(Z) :- m_sg__fb(Y), p(Y, Z).",
			"sg__fb(X, Y) :- m_sg__fb(Y), p(Y, Z), sg__fb(W, Z), p(X, W).",
			"sg__fb(X, Y) :- m_sg__fb(Y), sg0(X, Y).",
			"m_sg__fb(c).",
		}},
		{tc, "t(X, c)", []string{
			"t__fb(X, Y) :- m_t__fb(Y), t__fb(Z, Y), a(X, Z).",
			"t__fb(X, Y) :- m_t__fb(Y), b(X, Y).",
			"m_t__fb(c).",
		}},
	}
	for _, c := range cases {
		mr, err := MagicTransform(c.p, parser.MustParseAtom(c.query))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range mr.Program.Rules {
			got = append(got, r.String())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s rewrites to\n%s\nwant\n%s", c.query, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
		if s := mr.Program.String(); strings.Contains(s, "__bb") {
			t.Errorf("%s: a bb call in\n%s", c.query, s)
		}
	}
}
