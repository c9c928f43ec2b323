package onesided

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/storage"
)

// bindExample is one of the five example workloads: a program, a query
// shape written with a placeholder for the bound constant, and the
// constants to sweep the shape over.
type bindExample struct {
	name   string
	open   func(t *testing.T) *Engine
	shape  string // fmt pattern with one %s for the bound constant
	consts []string
	// strategy the planner is expected to choose for the shape (sanity
	// check that the sweep exercises the intended code path).
	strategy string
}

// openWith opens an engine over db and loads src.
func openWith(t *testing.T, db *Database, src string, opts ...Option) *Engine {
	t.Helper()
	if db != nil {
		opts = append(opts, WithDatabase(db))
	}
	eng, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(src); err != nil {
		t.Fatal(err)
	}
	return eng
}

// bindExamples mirrors the five example programs under examples/:
// quickstart and flights (the canonical one-sided TC, bf and fb
// adornments), genealogy (same generation, the Magic Sets fallback),
// marketbasket (buys/likes/cheap, one-sided after optimization), and
// appendixa (the Theorem 3.2 construction, a two-recursive-rule
// definition the one-sided planner serves by the Section 5 persistent-
// column reduction). Three more rows complete the served set: tworule
// (the plain Section 5 shape, a reduced one-sided plan too), seminaive
// (the quickstart program on an engine restricted to
// materialize-then-select) and edb (a base relation of quickstart).
func bindExamples() []bindExample {
	return []bindExample{
		{
			name: "quickstart",
			open: func(t *testing.T) *Engine {
				return openWith(t, nil, `
					t(X, Y) :- a(X, Z), t(Z, Y).
					t(X, Y) :- b(X, Y).
					a(paris, lyon). a(lyon, marseille). a(marseille, toulon).
					b(toulon, nice). b(lyon, grenoble).
				`)
			},
			shape:    "t(%s, Y)",
			consts:   []string{"paris", "lyon", "marseille", "toulon", "nice"},
			strategy: "onesided",
		},
		{
			name: "quickstart-fb",
			open: func(t *testing.T) *Engine {
				return openWith(t, nil, `
					t(X, Y) :- a(X, Z), t(Z, Y).
					t(X, Y) :- b(X, Y).
					a(paris, lyon). a(lyon, marseille). a(marseille, toulon).
					b(toulon, nice). b(lyon, grenoble).
				`)
			},
			shape:    "t(X, %s)",
			consts:   []string{"nice", "grenoble", "paris"},
			strategy: "onesided",
		},
		{
			name: "flights",
			open: func(t *testing.T) *Engine {
				db := NewDatabase()
				datagen.RandomGraph(db, "flight", "apt", 60, 150, 7)
				for i := 0; i < 12; i++ {
					db.AddFact("ferry", fmt.Sprintf("apt%d", i*5), fmt.Sprintf("island%d", i%3))
				}
				return openWith(t, db, `
					reach(X, Y) :- flight(X, Z), reach(Z, Y).
					reach(X, Y) :- ferry(X, Y).
				`)
			},
			shape:    "reach(%s, Y)",
			consts:   []string{"apt0", "apt7", "apt23", "apt59"},
			strategy: "onesided",
		},
		{
			name: "genealogy",
			open: func(t *testing.T) *Engine {
				db, _, _ := datagen.Genealogy(3, 4)
				return openWith(t, db, `
					sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
					sg(X, Y) :- sg0(X, Y).
				`)
			},
			shape:    "sg(%s, Y)",
			consts:   []string{"f0_1", "f1_12", "f2_29"},
			strategy: "magic",
		},
		{
			name: "marketbasket",
			open: func(t *testing.T) *Engine {
				db := datagen.Market(8, 4, 10, 3)
				return openWith(t, db, `
					buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
					buys(X, Y) :- likes(X, Y), cheap(Y).
				`)
			},
			shape:    "buys(%s, Y)",
			consts:   []string{"p0_0", "p1_2", "p3_1", "p7_0"},
			strategy: "onesided",
		},
		{
			name: "appendixa",
			open: func(t *testing.T) *Engine {
				// The Theorem 3.2 construction applied to Example A.1's P
				// (as examples/appendixa builds it via rewrite.AppendixA).
				return openWith(t, nil, `
					q(X1, X2, X3) :- c(X1), q(X1, X2, X3).
					q(X1, X2, X3) :- q(X1, X2, W), eq(W, X3).
					q(X1, X2, X3) :- c(X1), p0(X1, X2), bq(X3).
					c(u). c(w).
					p0(u, v1). p0(w, v2).
					bq(k0). eq(k0, k1). eq(k1, k2).
				`)
			},
			shape:    "q(%s, X2, X3)",
			consts:   []string{"u", "w", "v1"},
			strategy: "onesided",
		},
		{
			name: "tworule",
			open: func(t *testing.T) *Engine {
				return openWith(t, nil, `
					t(X, Y) :- a(Y, Z), t(X, Z).
					t(X, Y) :- c(Y, Z), t(X, Z).
					t(X, Y) :- b(X, Y).
					a(n2, n1). c(n3, n2). a(n4, n3). c(n5, n1).
					b(u, n1). b(w, n3).
				`)
			},
			shape:    "t(%s, Y)",
			consts:   []string{"u", "w", "n1"},
			strategy: "onesided",
		},
		{
			name: "seminaive",
			open: func(t *testing.T) *Engine {
				return openWith(t, nil, quickstartSrc, WithStrategies("seminaive", "edb"))
			},
			shape:    "t(%s, Y)",
			consts:   []string{"paris", "lyon", "marseille", "toulon", "nice"},
			strategy: "seminaive",
		},
		{
			name:     "edb",
			open:     func(t *testing.T) *Engine { return openWith(t, nil, quickstartSrc) },
			shape:    "a(%s, Y)",
			consts:   []string{"paris", "lyon", "nice"},
			strategy: "edb",
		},
	}
}

// naiveOracle answers ground the way the paper defines the semantics:
// naive bottom-up evaluation of prog over db, then the selection.
func naiveOracle(t *testing.T, prog *Program, ground Atom, db *Database) *storage.Relation {
	t.Helper()
	res, err := eval.Naive(prog, db)
	if err != nil {
		t.Fatalf("naive oracle for %v: %v", ground, err)
	}
	want := storage.NewRelation(ground.Arity(), nil)
	rel := res.IDB.Relation(ground.Pred)
	if rel == nil {
		// A predicate no rule derives denotes its base relation.
		if rel = db.Relation(ground.Pred); rel == nil {
			return want
		}
	}
tuples:
	for _, tup := range rel.Tuples() {
		for i, a := range ground.Args {
			if v, ok := db.Syms.Lookup(a.Name); a.IsConst() && (!ok || v != tup[i]) {
				continue tuples
			}
		}
		want.Insert(tup)
	}
	return want
}

// TestBindMatchesPrepareAcrossExamples is the adornment-equivalence
// property test: for each example shape, binding the cached skeleton to
// each constant must yield exactly the answers of (a) a from-scratch
// Prepare of the ground query and (b) the independent
// materialize-then-select oracle.
func TestBindMatchesPrepareAcrossExamples(t *testing.T) {
	ctx := context.Background()
	for _, exm := range bindExamples() {
		t.Run(exm.name, func(t *testing.T) {
			eng := exm.open(t)
			prog := eng.Program()
			first := mustAtom(t, fmt.Sprintf(exm.shape, exm.consts[0]))
			pq, err := eng.Prepare(nil, first)
			if err != nil {
				t.Fatal(err)
			}
			if got := pq.Explain().Strategy; got != exm.strategy {
				t.Fatalf("strategy = %q, want %q (%v)", got, exm.strategy, pq.Explain())
			}
			for _, c := range exm.consts {
				ground := mustAtom(t, fmt.Sprintf(exm.shape, c))
				// (a) Bind on the shared skeleton.
				bound, err := pq.BindAtom(ground)
				if err != nil {
					t.Fatalf("%s: BindAtom: %v", c, err)
				}
				if bound.skeleton != pq.skeleton {
					t.Fatalf("%s: BindAtom did not share the skeleton", c)
				}
				got, err := bound.Query(ctx)
				if err != nil {
					t.Fatalf("%s: %v", c, err)
				}
				// (b) From-scratch Prepare against an explicit program
				// snapshot (bypasses the cache).
				fresh, err := eng.Prepare(prog, ground)
				if err != nil {
					t.Fatalf("%s: fresh prepare: %v", c, err)
				}
				freshRows, err := fresh.Query(ctx)
				if err != nil {
					t.Fatalf("%s: fresh query: %v", c, err)
				}
				// (c) The independent oracle: naive materialization + select.
				oracle := naiveOracle(t, prog, ground, eng.DB())
				if !got.Relation().Equal(oracle) {
					t.Fatalf("%s: bound answers %v != oracle %v",
						c, got.Strings(), eval.AnswerStrings(oracle, eng.DB().Syms))
				}
				if !freshRows.Relation().Equal(oracle) {
					t.Fatalf("%s: fresh answers %v != oracle %v",
						c, freshRows.Strings(), eval.AnswerStrings(oracle, eng.DB().Syms))
				}
			}
			// Engine.Query on a same-shape query must hit the skeleton
			// cache, not re-plan.
			before := eng.CacheStats()
			for _, c := range exm.consts {
				if _, err := eng.Query(ctx, fmt.Sprintf(exm.shape, c)); err != nil {
					t.Fatal(err)
				}
			}
			after := eng.CacheStats()
			if after.Misses != before.Misses {
				t.Fatalf("same-shape queries re-planned: misses %d -> %d", before.Misses, after.Misses)
			}
			if after.Hits-before.Hits != int64(len(exm.consts)) {
				t.Fatalf("cache hits grew by %d, want %d", after.Hits-before.Hits, len(exm.consts))
			}
		})
	}
}

// TestPreparedQueryBindPositional: Bind takes constants in slot (column)
// order and validates the width.
func TestPreparedQueryBindPositional(t *testing.T) {
	eng := openQuickstart(t)
	pq, err := eng.Prepare(nil, mustAtom(t, "t(paris, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if pq.Adornment() != "bf" {
		t.Fatalf("adornment = %q", pq.Adornment())
	}
	if pq.Shape() != "t($0, V0)" {
		t.Fatalf("shape = %q", pq.Shape())
	}
	lyon, err := pq.Bind("lyon")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := lyon.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[lyon,grenoble lyon,nice]" {
		t.Fatalf("bound answers = %v", got)
	}
	if rows.Explain().PlanCache != "bind" {
		t.Fatalf("plan-cache = %q, want bind", rows.Explain().PlanCache)
	}
	if _, err := pq.Bind(); err == nil {
		t.Fatal("Bind with no constants accepted for a 1-slot shape")
	}
	if _, err := pq.Bind("a", "b"); err == nil {
		t.Fatal("Bind with two constants accepted for a 1-slot shape")
	}
	// Shape mismatch is rejected.
	if _, err := pq.BindAtom(mustAtom(t, "t(X, nice)")); err == nil {
		t.Fatal("BindAtom accepted a different adornment")
	}
	if _, err := pq.BindAtom(mustAtom(t, "s(paris, Y)")); err == nil {
		t.Fatal("BindAtom accepted a different predicate")
	}
}

// TestLRUEviction: the plan cache evicts the least-recently-used shape
// once over capacity, and a hit refreshes recency.
func TestLRUEviction(t *testing.T) {
	eng := openQuickstart(t, WithPlanCache(2))
	ctx := context.Background()
	// Three shapes: t^bf, t^fb, and a(b)f — capacity 2.
	if _, err := eng.Query(ctx, "t(paris, Y)"); err != nil { // miss: [bf]
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "t(X, nice)"); err != nil { // miss: [fb bf]
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "t(lyon, Y)"); err != nil { // hit: [bf fb]
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "a(paris, Y)"); err != nil { // miss, evicts fb
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.Evictions != 1 || cs.Entries != 2 {
		t.Fatalf("cache stats = %v, want 1 eviction / 2 entries", cs)
	}
	// t^bf must still be resident (it was refreshed); t^fb must re-plan.
	if _, err := eng.Query(ctx, "t(marseille, Y)"); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats(); got.Misses != cs.Misses {
		t.Fatalf("refreshed shape was evicted: misses %d -> %d", cs.Misses, got.Misses)
	}
	if _, err := eng.Query(ctx, "t(X, grenoble)"); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats(); got.Misses != cs.Misses+1 {
		t.Fatalf("LRU shape was not evicted: misses %d -> %d", cs.Misses, got.Misses)
	}
}
