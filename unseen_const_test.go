package onesided

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
)

const unseenSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
	sg(X, Y) :- a(W, X), a(Z, Y), sg(W, Z).
	sg(X, Y) :- b(X, Y).
	tagged(X) :- c(X), tag(X, special).
	a(n0, n1). a(n1, n2). b(n2, m0). b(n0, n0). c(n0).
`

// homeProgram is home(X, base) :- c(X): a rule whose head holds a
// constant, which the parser refuses (the paper's head restriction) and
// the evaluators accept from a hand-built program.
func homeProgram() *Program {
	return ast.NewProgram(ast.NewRule(
		ast.Atom{Pred: "home", Args: []ast.Term{ast.V("X"), ast.C("base")}},
		ast.Atom{Pred: "c", Args: []ast.Term{ast.V("X")}}))
}

// naiveAnswers is naiveOracle over the engine's own program and
// database, rendered like Rows.Strings.
func naiveAnswers(t *testing.T, eng *Engine, query string) []string {
	t.Helper()
	db := eng.DB()
	return eval.AnswerStrings(naiveOracle(t, eng.Program(), mustAtom(t, query), db), db.Syms)
}

// TestQueryWritesNothing: a query resolves its constants, it does not
// intern them. A hundred queries naming constants the database has never
// seen — every strategy, Query, QueryStream and QueryBatch — leave the
// symbol table, the write-ahead log and the result cache where they were
// and answer what naive evaluation answers: nothing. A constant that
// occurs only in a rule — a body's, or a hand-built head's, which can
// reach the answers — is a seen one, interned when the rule loaded.
func TestQueryWritesNothing(t *testing.T) {
	eng, err := Open(WithPersistence(t.TempDir()), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Load(unseenSrc); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadProgram(homeProgram()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []string{"special", "base"} {
		if _, ok := eng.DB().Syms.Lookup(c); !ok {
			t.Fatalf("loading the rules did not intern their constant %s", c)
		}
	}
	// From here on nothing interns: not the first evaluation of a rule
	// with a constant in its body either.
	syms, records := eng.DB().Syms.Len(), eng.Log().CommitStats().Records
	for _, q := range []string{"t(n0, Y)", "t(X, m0)", "sg(n1, Y)", "a(n0, Y)", "home(X, base)", "home(n0, Y)"} {
		rows, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveAnswers(t, eng, q); len(want) == 0 || !slices.Equal(rows.Strings(), want) {
			t.Fatalf("%s: %v, naive evaluation's %v", q, rows.Strings(), want)
		}
	}
	if rows, err := eng.Query(ctx, "tagged(X)"); err != nil || rows.Len() != 0 {
		t.Fatalf("tagged(X): %v, err %v; nothing is tagged", rows.Strings(), err)
	}

	entries := eng.CacheStats().Results.Entries
	shapes := []string{"t(%s, Y)", "t(X, %s)", "t(n0, %s)", "sg(%s, Y)", "a(%s, Y)", "home(X, %s)", "nosuchpred(%s)"}
	for i := 0; i < 100; i++ {
		q := fmt.Sprintf(shapes[i%len(shapes)], fmt.Sprintf("nosuch%d", i))
		var rows *Rows
		switch i % 3 {
		case 0:
			rows, err = eng.Query(ctx, q)
		case 1:
			rows, err = eng.QueryStream(ctx, q)
		default:
			var batch []*Rows
			if batch, err = eng.QueryBatch(ctx, []string{"t(n0, Y)", q, "t(X, m0)"}); err == nil {
				if got := batch[0].Strings(); !slices.Equal(got, naiveAnswers(t, eng, "t(n0, Y)")) {
					t.Fatalf("batch member beside %s: %v", q, got)
				}
				rows = batch[1]
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		n := 0
		for range rows.All() {
			n++
		}
		if n != 0 || rows.Len() != 0 || rows.Err() != nil || len(naiveAnswers(t, eng, q)) != 0 {
			t.Fatalf("%s: %d answers (err %v), naive evaluation's %v", q, rows.Len(), rows.Err(), naiveAnswers(t, eng, q))
		}
		if ex := rows.Explain(); ex.Strategy == "" || ex.ResultCache != "" {
			t.Fatalf("%s: explains %v; want the plan's strategy and no result-cache participation", q, ex)
		}
	}
	if got := eng.DB().Syms.Len(); got != syms {
		t.Errorf("symbol table grew from %d to %d names", syms, got)
	}
	if got := eng.Log().CommitStats().Records; got != records {
		t.Errorf("log grew from %d to %d records", records, got)
	}
	if got := eng.CacheStats().Results.Entries; got != entries {
		t.Errorf("result cache grew from %d to %d entries", entries, got)
	}

	// The constant arrives: the same query text now evaluates.
	eng.AddFact("b", "n2", "nosuch0")
	rows, err := eng.Query(ctx, "t(X, nosuch0)")
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveAnswers(t, eng, "t(X, nosuch0)"); len(want) != 3 || !slices.Equal(rows.Strings(), want) {
		t.Fatalf("t(X, nosuch0) once nosuch0 is a fact: %v, naive evaluation's %v", rows.Strings(), want)
	}
}

// TestExplicitProgramConstantsAreSeen: Prepare against an explicit
// program interns that program's constants, so a query naming one of them
// evaluates instead of being answered empty.
func TestExplicitProgramConstantsAreSeen(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	eng.AddFact("c", "n0")
	pq, err := eng.Prepare(homeProgram(), mustAtom(t, "home(X, base)"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Strings(); !slices.Equal(got, []string{"n0,base"}) {
		t.Fatalf("home(X, base) over an explicit program: %v", got)
	}
}
