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

func TestStrategyAdaptersAgree(t *testing.T) {
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", "y", "z")
	query := mustParseAtom(t, "t(x, Y)")

	// The oracle is naive bottom-up evaluation, selected by the query.
	res, err := Naive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewRelation(query.Arity(), nil)
	for _, tup := range res.IDB.Relation(query.Pred).Tuples() {
		if matchesQuery(tup, query, db.Syms) {
			want.Insert(tup)
		}
	}
	if want.Len() == 0 {
		t.Fatal("oracle derived no answers")
	}

	// multi, the fifth served strategy, needs two recursive rules and
	// lives above this package: the engine's equivalence tables cover it.
	ctx := context.Background()
	for _, s := range []Strategy{OneSided(), Magic(), Materialize()} {
		ps, err := s.Prepare(prog, AdornQuery(query))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if ps.Explain().Strategy != s.Name() {
			t.Fatalf("%s: explain names %q", s.Name(), ps.Explain().Strategy)
		}
		// A prepared plan is reusable: evaluate twice.
		for i := 0; i < 2; i++ {
			rel, _, err := Eval(ctx, ps, db)
			if err != nil {
				t.Fatalf("%s eval %d: %v", s.Name(), i, err)
			}
			if !rel.Equal(want) {
				t.Fatalf("%s eval %d: %v != naive %v", s.Name(), i,
					AnswerStrings(rel, db.Syms), AnswerStrings(want, db.Syms))
			}
		}
	}
	// The base-relation lookup answers what the relation holds.
	ps, err := EDBLookup().Prepare(prog, AdornQuery(mustParseAtom(t, "a(x, Y)")))
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := Eval(ctx, ps, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := AnswerStrings(rel, db.Syms); len(got) != 1 || got[0] != "x,y" {
		t.Fatalf("edb answers = %v, want [x,y]", got)
	}
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
