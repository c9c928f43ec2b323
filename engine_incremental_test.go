package onesided

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
)

// TestResultCacheHitUpdateRebuild walks one bound query through the
// three result-cache paths: first evaluation (rebuilt), repeat at the
// same epoch (hit), repeat after an insert (updated, answers extended
// by the delta), and program change (rebuilt again).
func TestResultCacheHitUpdateRebuild(t *testing.T) {
	eng := openQuickstart(t)
	ctx := context.Background()

	rows, err := eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "rebuilt" {
		t.Fatalf("first query result-cache = %q, want rebuilt", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[paris,grenoble paris,nice]" {
		t.Fatalf("answers = %v", got)
	}

	rows, err = eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "hit" {
		t.Fatalf("repeat query result-cache = %q, want hit", got)
	}

	// A new chain edge: the maintained fixpoint absorbs the delta.
	eng.AddFact("b", "marseille", "aix")
	rows, err = eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "updated" {
		t.Fatalf("post-insert result-cache = %q, want updated", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[paris,aix paris,grenoble paris,nice]" {
		t.Fatalf("updated answers = %v", got)
	}

	// Unrelated inserts leave relevant relations unchanged; the entry
	// re-stamps without touching the fixpoint and reports a hit.
	eng.AddFact("unrelated", "x", "y")
	rows, err = eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "updated" && got != "hit" {
		t.Fatalf("post-unrelated-insert result-cache = %q, want hit or updated", got)
	}

	cs := eng.CacheStats()
	if cs.Results.Rebuilt == 0 || cs.Results.Hits == 0 || cs.Results.Updated == 0 {
		t.Fatalf("result cache counters = %+v, want all three paths exercised", cs.Results)
	}

	// Loading new rules invalidates every cached result.
	if _, err := eng.Load("aux(X) :- d(X).\n"); err != nil {
		t.Fatal(err)
	}
	rows, err = eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "rebuilt" {
		t.Fatalf("post-load result-cache = %q, want rebuilt", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[paris,aix paris,grenoble paris,nice]" {
		t.Fatalf("post-load answers = %v", got)
	}
}

// TestResultCacheKeyedPerBinding: different bound constants of one
// skeleton are independent cache entries.
func TestResultCacheKeyedPerBinding(t *testing.T) {
	eng := openQuickstart(t)
	ctx := context.Background()
	if _, err := eng.Query(ctx, "t(paris, Y)"); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(ctx, "t(lyon, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "rebuilt" {
		t.Fatalf("different constant served %q, want rebuilt", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[lyon,grenoble lyon,nice]" {
		t.Fatalf("answers = %v", got)
	}
	if cs := eng.CacheStats(); cs.Results.Entries != 2 {
		t.Fatalf("result cache entries = %d, want 2", cs.Results.Entries)
	}
}

// TestResultCacheDisabled: WithResultCache(0) evaluates every query and
// reports no result-cache explain field.
func TestResultCacheDisabled(t *testing.T) {
	eng := openQuickstart(t, WithResultCache(0))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		rows, err := eng.Query(ctx, "t(paris, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Explain().ResultCache; got != "" {
			t.Fatalf("result-cache = %q with cache disabled", got)
		}
	}
	if cs := eng.CacheStats(); cs.Results.Hits+cs.Results.Updated+cs.Results.Rebuilt != 0 {
		t.Fatalf("result cache counters moved while disabled: %+v", cs.Results)
	}
}

// TestResultCacheEviction: the LRU bound evicts the least-recently-used
// answer set, which then rebuilds.
func TestResultCacheEviction(t *testing.T) {
	eng := openQuickstart(t, WithResultCache(2))
	ctx := context.Background()
	for _, q := range []string{"t(paris, Y)", "t(lyon, Y)", "t(marseille, Y)"} {
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.CacheStats()
	if cs.Results.Entries != 2 {
		t.Fatalf("entries = %d, want 2", cs.Results.Entries)
	}
	rows, err := eng.Query(ctx, "t(paris, Y)") // evicted: rebuilds
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "rebuilt" {
		t.Fatalf("evicted entry served %q, want rebuilt", got)
	}
}

// incInsertSpec generates random insertable facts for one example
// program's base relations.
type incInsertSpec struct {
	pred string
	args func(rng *rand.Rand, step int) []string
}

// incInsertSpecs maps bindExamples names to their base-relation fact
// generators: a mix of pool constants (densifying the existing graph)
// and fresh ones (growing it).
func incInsertSpecs() map[string][]incInsertSpec {
	pick := func(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }
	cities := []string{"paris", "lyon", "marseille", "toulon", "nice", "grenoble"}
	cityOrFresh := func(rng *rand.Rand, step int) string {
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("c%d_%d", step, rng.Intn(4))
		}
		return pick(rng, cities)
	}
	quickstart := []incInsertSpec{
		{"a", func(rng *rand.Rand, step int) []string {
			return []string{cityOrFresh(rng, step), cityOrFresh(rng, step)}
		}},
		{"b", func(rng *rand.Rand, step int) []string {
			return []string{cityOrFresh(rng, step), cityOrFresh(rng, step)}
		}},
	}
	apt := func(rng *rand.Rand) string { return fmt.Sprintf("apt%d", rng.Intn(60)) }
	people := func(rng *rand.Rand) string { return fmt.Sprintf("f%d_p%d", rng.Intn(3), rng.Intn(4)) }
	market := func(rng *rand.Rand) string { return fmt.Sprintf("p%d_%d", rng.Intn(8), rng.Intn(4)) }
	return map[string][]incInsertSpec{
		"quickstart":    quickstart,
		"quickstart-fb": quickstart,
		"flights": {
			{"flight", func(rng *rand.Rand, step int) []string { return []string{apt(rng), apt(rng)} }},
			{"ferry", func(rng *rand.Rand, step int) []string {
				return []string{apt(rng), fmt.Sprintf("island%d", rng.Intn(5))}
			}},
		},
		"genealogy": {
			{"p", func(rng *rand.Rand, step int) []string { return []string{people(rng), people(rng)} }},
			{"sg0", func(rng *rand.Rand, step int) []string { return []string{people(rng), people(rng)} }},
		},
		"marketbasket": {
			{"knows", func(rng *rand.Rand, step int) []string { return []string{market(rng), market(rng)} }},
			{"likes", func(rng *rand.Rand, step int) []string {
				return []string{market(rng), fmt.Sprintf("item%d", rng.Intn(6))}
			}},
			{"cheap", func(rng *rand.Rand, step int) []string { return []string{fmt.Sprintf("item%d", rng.Intn(6))} }},
		},
		"appendixa": {
			{"c", func(rng *rand.Rand, step int) []string {
				return []string{pick(rng, []string{"u", "w", "x" + fmt.Sprint(step)})}
			}},
			{"p0", func(rng *rand.Rand, step int) []string {
				return []string{pick(rng, []string{"u", "w"}), fmt.Sprintf("v%d", rng.Intn(5))}
			}},
			{"bq", func(rng *rand.Rand, step int) []string { return []string{fmt.Sprintf("k%d", rng.Intn(4))} }},
			{"eq", func(rng *rand.Rand, step int) []string {
				return []string{fmt.Sprintf("k%d", rng.Intn(4)), fmt.Sprintf("k%d", rng.Intn(4))}
			}},
		},
	}
}

// TestIncrementalEquivalenceAcrossExamples is the randomized
// incremental-vs-scratch property test: for each of the five example
// programs, interleave random base-fact inserts with queries and assert
// the engine's (cached, incrementally maintained) answers are set-equal
// to a from-scratch materialize-then-select recompute over the current
// database. Runs under -race in CI.
func TestIncrementalEquivalenceAcrossExamples(t *testing.T) {
	ctx := context.Background()
	specs := incInsertSpecs()
	for _, exm := range bindExamples() {
		exm := exm
		t.Run(exm.name, func(t *testing.T) {
			gens, ok := specs[exm.name]
			if !ok {
				t.Fatalf("no insert specs for example %s", exm.name)
			}
			eng := exm.open(t)
			prog := eng.Program()
			rng := rand.New(rand.NewSource(int64(len(exm.name)) * 7919))
			for step := 0; step < 25; step++ {
				for j := 0; j <= rng.Intn(2); j++ {
					g := gens[rng.Intn(len(gens))]
					eng.AddFact(g.pred, g.args(rng, step)...)
				}
				c := exm.consts[rng.Intn(len(exm.consts))]
				ground := mustAtom(t, fmt.Sprintf(exm.shape, c))
				rows, err := eng.QueryAtom(ctx, ground)
				if err != nil {
					t.Fatalf("step %d %v: %v", step, ground, err)
				}
				oracle, _, err := eval.SelectEval(prog, ground, eng.DB())
				if err != nil {
					t.Fatalf("step %d oracle: %v", step, err)
				}
				if !rows.Relation().Equal(oracle) {
					t.Fatalf("step %d %v: incremental %v != scratch %v",
						step, ground, rows.Strings(), Answers(oracle, eng.DB()))
				}
			}
			cs := eng.CacheStats().Results
			if cs.Hits+cs.Updated+cs.Rebuilt == 0 {
				t.Fatalf("result cache never engaged: %+v", cs)
			}
			t.Logf("%s: result cache %v", exm.name, cs)
		})
	}
}

// TestIncrementalDoesLessWork is the measurable form of the incremental
// claim: after a 1-fact insert on a long-chain Fig. 9 workload, the
// maintained re-query must examine at least 10x fewer tuples than the
// cold recompute did — the update touches the delta, not the chain.
func TestIncrementalDoesLessWork(t *testing.T) {
	const n = 4000
	src := "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	eng.AddFact("b", fmt.Sprintf("n%d", n), "goal")
	ctx := context.Background()

	eng.DB().Stats.Reset()
	rows, err := eng.Query(ctx, "t(n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	cold := rows.Counters()
	if rows.Explain().ResultCache != "rebuilt" {
		t.Fatalf("cold query: %v", rows.Explain())
	}

	eng.AddFact("b", "n2000", "mid")
	rows, err = eng.Query(ctx, "t(n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	inc := rows.Counters()
	if rows.Explain().ResultCache != "updated" {
		t.Fatalf("incremental query: %v", rows.Explain())
	}
	if got := rows.Len(); got != 2 {
		t.Fatalf("answers after insert = %d, want 2 (%v)", got, rows.Strings())
	}
	if inc.TuplesExamined*10 > cold.TuplesExamined {
		t.Fatalf("incremental re-query examined %d tuples, cold recompute %d — want >= 10x reduction",
			inc.TuplesExamined, cold.TuplesExamined)
	}
}

// TestQueryBatchConsultsResultCache: a batch issued after individual
// queries serves current entries from the cache and still answers
// correctly for the rest; a repeated batch is served entirely.
func TestQueryBatchConsultsResultCache(t *testing.T) {
	eng := openQuickstart(t)
	ctx := context.Background()
	if _, err := eng.Query(ctx, "t(paris, Y)"); err != nil {
		t.Fatal(err)
	}
	queries := []string{"t(paris, Y)", "t(lyon, Y)", "t(marseille, Y)"}
	rows, err := eng.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Explain().ResultCache; got != "hit" {
		t.Fatalf("pre-warmed batch member result-cache = %q, want hit", got)
	}
	want := []string{"[paris,grenoble paris,nice]", "[lyon,grenoble lyon,nice]", "[marseille,nice]"}
	for i := range rows {
		if got := fmt.Sprint(rows[i].Strings()); got != want[i] {
			t.Fatalf("query %d answers = %v, want %v", i, got, want[i])
		}
	}
	hitsBefore := eng.CacheStats().Results.Hits
	rows, err = eng.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if got := fmt.Sprint(rows[i].Strings()); got != want[i] {
			t.Fatalf("repeat query %d answers = %v, want %v", i, got, want[i])
		}
	}
	if hits := eng.CacheStats().Results.Hits; hits != hitsBefore+int64(len(queries)) {
		t.Fatalf("repeat batch hits = %d, want %d", hits-hitsBefore, len(queries))
	}
}

// TestResultCacheGuardFlipRebuilds: a delta the retained state cannot
// absorb (an empty factor-group guard flipping non-empty) poisons the
// entry, and the next query rebuilds with correct answers — never
// serves the stale depth-0-only set.
func TestResultCacheGuardFlipRebuilds(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	// d is an anchor-free guard, initially empty: depth-0 answers only.
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y), d(W).
		t(X, Y) :- b(X, Y).
		a(u, v). b(v, goal). b(u, direct).
	`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows, err := eng.Query(ctx, "t(u, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[u,direct]" {
		t.Fatalf("guard-off answers = %v", got)
	}
	eng.AddFact("d", "on")
	rows, err = eng.Query(ctx, "t(u, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "rebuilt" {
		t.Fatalf("post-flip result-cache = %q, want rebuilt (retained state cannot absorb a guard flip)", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[u,direct u,goal]" {
		t.Fatalf("post-flip answers = %v", got)
	}
	// The rebuilt state is maintainable again.
	eng.AddFact("b", "v", "extra")
	rows, err = eng.Query(ctx, "t(u, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "updated" {
		t.Fatalf("post-rebuild insert result-cache = %q, want updated", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[u,direct u,extra u,goal]" {
		t.Fatalf("maintained answers = %v", got)
	}
}

// TestExplicitProgramBindStaysUncached: plans prepared against an
// explicit program carry no program identity in the result-cache key,
// so their rebinds must bypass the cache — two different explicit
// programs may not see each other's answers.
func TestExplicitProgramBindStaysUncached(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	eng.AddFact("edge", "x", "b")
	eng.AddFact("other", "x", "c")
	ctx := context.Background()
	progA, _, err := ParseSource("t(X, Y) :- edge(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	progB, _, err := ParseSource("t(X, Y) :- other(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	query := func(prog *Program) string {
		pq, err := eng.Prepare(prog, mustAtom(t, "t(x, Y)"))
		if err != nil {
			t.Fatal(err)
		}
		bound, err := pq.Bind("x")
		if err != nil {
			t.Fatal(err)
		}
		if bound.Explain().PlanCache != "" {
			t.Fatalf("explicit-program rebind reports plan-cache %q, want uncached", bound.Explain().PlanCache)
		}
		rows, err := bound.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rc := rows.Explain().ResultCache; rc != "" {
			t.Fatalf("explicit-program rebind served result-cache=%q", rc)
		}
		return fmt.Sprint(rows.Strings())
	}
	if got := query(progA); got != "[x,b]" {
		t.Fatalf("progA answers = %v", got)
	}
	if got := query(progB); got != "[x,c]" {
		t.Fatalf("progB answers = %v (cross-program result-cache pollution?)", got)
	}
}
