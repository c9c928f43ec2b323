package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

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

// TestEvalBatchSharesGJoins: a batch of overlapping chain selections
// must answer exactly like per-query evaluation while performing fewer
// total g-join probes (the Section 5 sharing observation).
func TestEvalBatchSharesGJoins(t *testing.T) {
	prog, db := batchChainDB(t, 60)
	skel := ast.Skeletonize(mustParseAtom(t, "t(n0, Y)"))
	ps, err := OneSided().Prepare(prog, AdornedQuery{Atom: skel.Atom, Adornment: skel.Adornment})
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := ps.(BatchPrepared)
	if !ok {
		t.Fatal("one-sided prepared plan does not support batching")
	}
	starts := []string{"n0", "n10", "n20", "n30"}
	binds := make([][]ast.Term, len(starts))
	sumProbes := 0
	var want []*storage.Relation
	for i, s := range starts {
		binds[i] = []ast.Term{ast.C(s)}
		one, err := ps.BindArgs(ast.C(s))
		if err != nil {
			t.Fatal(err)
		}
		rel, st, err := Eval(context.Background(), one, db)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rel)
		sumProbes += st.GProbes
	}
	rels, st, err := bp.EvalBatch(context.Background(), db, binds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != len(starts) {
		t.Fatalf("batch returned %d relations for %d queries", len(rels), len(starts))
	}
	for i := range rels {
		if !rels[i].Equal(want[i]) {
			t.Fatalf("query %d: batch %v != individual %v",
				i, AnswerStrings(rels[i], db.Syms), AnswerStrings(want[i], db.Syms))
		}
	}
	if st.GProbes >= sumProbes {
		t.Fatalf("batch GProbes = %d, want fewer than the per-query sum %d", st.GProbes, sumProbes)
	}
	if st.BatchQueries != len(starts) {
		t.Fatalf("BatchQueries = %d, want %d", st.BatchQueries, len(starts))
	}
}

// TestMagicEvalBatch: same-adornment magic skeletons share one
// semi-naive run over the union of seeds and still answer per query.
func TestMagicEvalBatch(t *testing.T) {
	prog, err := parser.ParseProgram(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	db.AddFact("p", "a", "r")
	db.AddFact("p", "b", "r")
	db.AddFact("p", "c", "s")
	db.AddFact("p", "r", "u")
	db.AddFact("p", "s", "u")
	db.AddFact("sg0", "u", "u")
	db.AddFact("sg0", "r", "r")

	skel := ast.Skeletonize(mustParseAtom(t, "sg(a, Y)"))
	ps, err := Magic().Prepare(prog, AdornedQuery{Atom: skel.Atom, Adornment: skel.Adornment})
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := ps.(BatchPrepared)
	if !ok {
		t.Fatal("magic prepared plan does not support batching")
	}
	starts := []string{"a", "b", "c"}
	binds := make([][]ast.Term, len(starts))
	for i, s := range starts {
		binds[i] = []ast.Term{ast.C(s)}
	}
	rels, st, err := bp.EvalBatch(context.Background(), db, binds)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range starts {
		want, _, err := MagicEval(prog, mustParseAtom(t, fmt.Sprintf("sg(%s, Y)", s)), db)
		if err != nil {
			t.Fatal(err)
		}
		if !rels[i].Equal(want) {
			t.Fatalf("sg(%s, Y): batch %v != magic %v",
				s, AnswerStrings(rels[i], db.Syms), AnswerStrings(want, db.Syms))
		}
	}
	if st.BatchQueries != 3 {
		t.Fatalf("BatchQueries = %d", st.BatchQueries)
	}
}

// TestEvalBatchWideMasks: batches far beyond 64 queries run as ONE
// shared traversal with multi-word owner masks — each distinct context
// is g-joined exactly once, so GProbes stays at (k depth-0 probes +
// distinct contexts) instead of growing per chunk.
func TestEvalBatchWideMasks(t *testing.T) {
	const chain, k = 150, 150
	prog, db := batchChainDB(t, chain)
	skel := ast.Skeletonize(mustParseAtom(t, "t(n0, Y)"))
	ps, err := OneSided().Prepare(prog, AdornedQuery{Atom: skel.Atom, Adornment: skel.Adornment})
	if err != nil {
		t.Fatal(err)
	}
	bp := ps.(BatchPrepared)
	binds := make([][]ast.Term, k)
	for i := range binds {
		binds[i] = []ast.Term{ast.C(fmt.Sprintf("n%d", i))}
	}
	rels, st, err := bp.EvalBatch(context.Background(), db, binds)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchQueries != k {
		t.Fatalf("BatchQueries = %d, want %d", st.BatchQueries, k)
	}
	// Distinct contexts reachable from any start: n1..n{chain} — the
	// chunked implementation re-probed shared contexts once per 64-query
	// chunk, which at k=150 meant nearly 3x this bound.
	maxProbes := k + chain
	if st.GProbes > maxProbes {
		t.Fatalf("GProbes = %d, want <= %d (one probe per distinct context plus depth-0)", st.GProbes, maxProbes)
	}
	// Spot-check answers: every start reaches the single goal.
	for i, rel := range rels {
		if rel.Len() != 1 {
			t.Fatalf("query %d: %d answers, want 1 (%v)", i, rel.Len(), AnswerStrings(rel, db.Syms))
		}
	}
	// Owner-mask bit addressing above word 0 (queries 64..149) matches a
	// direct evaluation.
	for _, i := range []int{63, 64, 100, 149} {
		one, err := ps.BindArgs(ast.C(fmt.Sprintf("n%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Eval(context.Background(), one, db)
		if err != nil {
			t.Fatal(err)
		}
		if !rels[i].Equal(want) {
			t.Fatalf("query %d: batch %v != individual %v",
				i, AnswerStrings(rels[i], db.Syms), AnswerStrings(want, db.Syms))
		}
	}
}
