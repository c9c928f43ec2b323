package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

func TestSemiNaiveCtxCancellation(t *testing.T) {
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	for i := 0; i < 100; i++ {
		db.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	db.AddFact("b", "n100", "goal")

	// Uncancelled: completes with ~100 rounds.
	res, err := SemiNaive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 50 {
		t.Fatalf("rounds = %d, want a long fixpoint", res.Rounds)
	}

	// Already-cancelled: fails before the first round.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SemiNaiveCtx(ctx, prog, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := NaiveCtx(ctx, prog, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("naive err = %v, want context.Canceled", err)
	}
	if _, _, err := MagicEvalCtx(ctx, prog, mustParseAtom(t, "t(n0, Y)"), db); !errors.Is(err, context.Canceled) {
		t.Fatalf("magic err = %v, want context.Canceled", err)
	}
}

// twoChainSrc combines two one-sided rules that walk the same side: Y
// persists through both, X does not.
const twoChainSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- c(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
`

// conflictSrc combines two individually one-sided rules whose
// combination grows both sides (Section 5's caveat): no column persists
// through both rules.
const conflictSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- c(Y, W), t(X, W).
	t(X, Y) :- b(X, Y).
`

// TestStrategyAdaptersAgree: every rule strategy answers a query as naive
// bottom-up evaluation does, for a recursion of one linear rule and for
// Section 5's recursions of several. The one-sided planner takes a
// several-rule recursion only when every bound column persists through
// every rule, as a reduced plan; it declines anything else, and Magic Sets
// and materialization still answer.
func TestStrategyAdaptersAgree(t *testing.T) {
	cases := []struct {
		name, src string
		facts     [][]string
		query     string
		mode      string // the one-sided plan's mode; "" when it declines
		answers   int
	}{
		{"1rule", tcSrc, [][]string{{"a", "x", "y"}, {"a", "y", "x"}, {"b", "y", "z"}}, "t(x, Y)", "context", 1},
		// x reaches goal through a, then c, then b.
		{"2rules-reduced", twoChainSrc, [][]string{{"a", "x", "y"}, {"c", "y", "z"}, {"b", "z", "goal"}}, "t(X, goal)", "reduced", 3},
		// X does not persist: Magic Sets answers.
		{"2rules-declined", twoChainSrc, [][]string{{"a", "x", "y"}, {"b", "y", "goal"}}, "t(x, Y)", "", 1},
		// The reduction drops the bound column X, so nothing would check
		// that both Y columns agree.
		{"2rules-repeated-var", `
			t(X, Y, W) :- a(Y, Z), t(X, Z, W).
			t(X, Y, W) :- c(Y, Z), t(X, Z, W).
			t(X, Y, W) :- b(X, Y, W).
		`, [][]string{{"b", "u", "n1", "n2"}, {"b", "u", "n3", "n3"}, {"a", "n0", "n1"}, {"c", "n9", "n3"}}, "t(u, Y, Y)", "", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := mustProgram(t, c.src)
			db := storage.NewDatabase()
			for _, f := range c.facts {
				db.AddFact(f[0], f[1:]...)
			}
			query := mustParseAtom(t, c.query)
			want := naiveSelect(t, prog, query, db)
			if want.Len() != c.answers {
				t.Fatalf("oracle derived %v, want %d answers", AnswerStrings(want, db.Syms), c.answers)
			}
			if mode := strategiesAgree(t, prog, query, db, want); mode != c.mode {
				t.Fatalf("one-sided mode %q, want %q", mode, c.mode)
			}
		})
	}
	t.Run("2rules-random", func(t *testing.T) {
		reduced := 0
		for _, src := range []string{twoChainSrc, conflictSrc} {
			prog := mustProgram(t, src)
			for seed := int64(0); seed < 3; seed++ {
				db := randomEDBFor(prog, 6, 14, seed)
				for _, qs := range queryPatterns("t", 2) {
					query := mustParseAtom(t, qs)
					if strategiesAgree(t, prog, query, db, naiveSelect(t, prog, query, db)) == "reduced" {
						reduced++
					}
				}
			}
		}
		if reduced == 0 {
			t.Fatal("no query was planned by the reduction")
		}
	})

	// The base-relation lookup answers what the relation holds.
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	ps, err := EDBLookup().Prepare(mustProgram(t, tcSrc), AdornQuery(mustParseAtom(t, "a(x, Y)")))
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := Eval(context.Background(), ps, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := AnswerStrings(rel, db.Syms); len(got) != 1 || got[0] != "x,y" {
		t.Fatalf("edb answers = %v, want [x,y]", got)
	}
}

// strategiesAgree prepares query under every rule strategy, from the
// ground atom and from its skeleton bound by BindArgs, and checks each
// plan's answers — evaluated twice, since a prepared plan is reusable —
// against want. Only the one-sided planner may decline, with
// ErrUnsupported when the recursion has several rules; the returned
// string is its plan's mode, or "" when it declined.
func strategiesAgree(t *testing.T, prog *ast.Program, query ast.Atom, db *storage.Database, want *storage.Relation) string {
	t.Helper()
	defs, err := ast.ExtractRecursion(prog, query.Pred)
	if err != nil {
		t.Fatal(err)
	}
	skel := ast.Skeletonize(query)
	mode := ""
	ctx := context.Background()
	for _, s := range []Strategy{OneSided(), Magic(), Materialize()} {
		ps, err := s.Prepare(prog, AdornQuery(query))
		if err != nil {
			var unsupported *ErrUnsupported
			if s.Name() == StrategyOneSided && (len(defs) == 1 || errors.As(err, &unsupported)) {
				continue
			}
			t.Fatalf("%s %v: %v", s.Name(), query, err)
		}
		ex := ps.Explain()
		if ex.Strategy != s.Name() {
			t.Fatalf("%s: explain names %q", s.Name(), ex.Strategy)
		}
		if s.Name() == StrategyOneSided {
			mode = ex.Mode
			if len(defs) > 1 {
				detail := fmt.Sprintf("%d recursive rules, persistent-column reduction", len(defs))
				if ex.Mode != "reduced" || ex.Detail != detail || ex.Verdict != "" {
					t.Fatalf("%v: explain %v, want mode reduced and detail %q", query, ex, detail)
				}
			}
		}
		sps, err := s.Prepare(prog, AdornedQuery{Atom: skel.Atom, Adornment: skel.Adornment})
		if err != nil {
			t.Fatalf("%s skeleton %v: %v", s.Name(), skel.Atom, err)
		}
		if sps.Explain() != ex {
			t.Fatalf("%s: skeleton explains %v, ground plan %v", s.Name(), sps.Explain(), ex)
		}
		if len(skel.Consts) > 0 {
			if _, err := sps.Build(ctx, db); err == nil {
				t.Fatalf("%s: an unbound skeleton built", s.Name())
			}
		}
		bound, err := sps.BindArgs(skel.Consts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range []PreparedStrategy{ps, ps, bound} {
			rel, _, err := Eval(ctx, p, db)
			if err != nil {
				t.Fatalf("%s %v eval %d: %v", s.Name(), query, i, err)
			}
			if !rel.Equal(want) {
				t.Fatalf("%s %v eval %d: %v != naive %v", s.Name(), query, i,
					AnswerStrings(rel, db.Syms), AnswerStrings(want, db.Syms))
			}
		}
	}
	return mode
}

func TestEDBStrategyDeclinesDerived(t *testing.T) {
	prog, err := parser.ParseProgram(`t(X, Y) :- b(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EDBLookup().Prepare(prog, AdornQuery(mustParseAtom(t, "t(a, Y)"))); err == nil {
		t.Fatal("edb strategy accepted a derived predicate")
	}
	if _, err := EDBLookup().Prepare(prog, AdornQuery(mustParseAtom(t, "b(a, Y)"))); err != nil {
		t.Fatalf("edb strategy declined a base predicate: %v", err)
	}
}

func TestOneSidedStrategyDeclinesDerivedBody(t *testing.T) {
	// The recursion's body atom a is itself derived: the Fig. 9 schema's
	// EDB assumption fails and the strategy must decline.
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(X, Y) :- raw(X, Y), ok(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OneSided().Prepare(prog, AdornQuery(mustParseAtom(t, "t(u, Y)"))); err == nil {
		t.Fatal("onesided strategy accepted a derived body atom")
	}
	// Magic handles it.
	db := storage.NewDatabase()
	db.AddFact("raw", "u", "v")
	db.AddFact("ok", "u")
	db.AddFact("b", "v", "goal")
	ps, err := Magic().Prepare(prog, AdornQuery(mustParseAtom(t, "t(u, Y)")))
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := Eval(context.Background(), ps, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := AnswerStrings(rel, db.Syms); len(got) != 1 || got[0] != "u,goal" {
		t.Fatalf("answers = %v, want [u,goal]", got)
	}
}

func mustParseAtom(t *testing.T, s string) ast.Atom {
	t.Helper()
	q, err := parser.ParseAtom(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// chainDB builds a linear a-chain of n edges ending in one b-edge.
func batchChainDB(t testing.TB, n int) (*ast.Program, *storage.Database) {
	t.Helper()
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		db.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	db.AddFact("b", fmt.Sprintf("n%d", n), "goal")
	return prog, db
}

// TestPlanSkeletonBindMatchesGround: a skeleton compiled from the
// canonical t^bf adornment, bound per query, answers identically to a
// plan compiled directly from the ground query.
func TestPlanSkeletonBindMatchesGround(t *testing.T) {
	prog, db := batchChainDB(t, 20)
	skel := ast.Skeletonize(mustParseAtom(t, "t(n0, Y)"))
	ps, err := OneSided().Prepare(prog, AdornedQuery{Atom: skel.Atom, Adornment: skel.Adornment})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluating the unbound skeleton must fail loudly.
	if _, _, err := Eval(context.Background(), ps, db); err == nil {
		t.Fatal("unbound skeleton evaluated without error")
	}
	for _, start := range []string{"n0", "n7", "n19"} {
		ground := mustParseAtom(t, fmt.Sprintf("t(%s, Y)", start))
		direct, err := OneSided().Prepare(prog, AdornQuery(ground))
		if err != nil {
			t.Fatal(err)
		}
		wantRel, _, err := Eval(context.Background(), direct, db)
		if err != nil {
			t.Fatal(err)
		}
		boundPs, err := ps.BindArgs(ast.C(start))
		if err != nil {
			t.Fatal(err)
		}
		gotRel, _, err := Eval(context.Background(), boundPs, db)
		if err != nil {
			t.Fatal(err)
		}
		if !gotRel.Equal(wantRel) {
			t.Fatalf("%s: bound skeleton answers %v != ground %v",
				start, AnswerStrings(gotRel, db.Syms), AnswerStrings(wantRel, db.Syms))
		}
	}
	// Wrong slot-table width is rejected.
	if _, err := ps.BindArgs(); err == nil {
		t.Fatal("bind with missing slot accepted")
	}
	if _, err := ps.BindArgs(ast.C("a"), ast.C("b")); err == nil {
		t.Fatal("bind with extra slot accepted")
	}
}
