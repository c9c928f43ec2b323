package onesided

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
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
	node := func(rng *rand.Rand) string { return fmt.Sprintf("n%d", rng.Intn(8)) }
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
		"seminaive": quickstart,
		"edb":       quickstart,
		"tworule": {
			{"a", func(rng *rand.Rand, step int) []string { return []string{node(rng), node(rng)} }},
			{"c", func(rng *rand.Rand, step int) []string { return []string{node(rng), node(rng)} }},
			{"b", func(rng *rand.Rand, step int) []string {
				return []string{pick(rng, []string{"u", "w", "n1"}), node(rng)}
			}},
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
// incremental-vs-scratch property test: for each example program — every
// served strategy plans at least one — interleave random base-fact
// inserts with queries and assert the engine's (cached, incrementally
// maintained) answers are set-equal to naive bottom-up evaluation over
// the current database, and that no entry is evaluated in full twice.
// Runs under -race in CI.
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
			built := make(builtOnce)
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
				oracle := naiveOracle(t, prog, ground, eng.DB())
				if !rows.Relation().Equal(oracle) {
					t.Fatalf("step %d %v: incremental %v != scratch %v",
						step, ground, rows.Strings(), eval.AnswerStrings(oracle, eng.DB().Syms))
				}
				built.check(t, step, ground, rows.Explain())
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
	if inc.FullScans != 0 {
		t.Fatalf("maintained re-query performed %d full scans; the delta joins must probe, not scan (Property 3)", inc.FullScans)
	}
	if inc.TuplesExamined*10 > cold.TuplesExamined {
		t.Fatalf("incremental re-query examined %d tuples, cold recompute %d — want >= 10x reduction",
			inc.TuplesExamined, cold.TuplesExamined)
	}

	// The same holds for taking the exit out again: DRed over the adopted
	// state probes from the retracted tuple, it does not re-walk the chain.
	if _, err := eng.Retract("b", "n2000", "mid"); err != nil {
		t.Fatal(err)
	}
	rows, err = eng.Query(ctx, "t(n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	del := rows.Counters()
	if rows.Explain().ResultCache != "updated" || rows.Len() != 1 {
		t.Fatalf("re-query after the retract: %v, answers %v", rows.Explain(), rows.Strings())
	}
	if del.FullScans != 0 || del.TuplesExamined*10 > cold.TuplesExamined {
		t.Fatalf("re-query after the retract: %d full scans, %d tuples examined (cold recompute %d)",
			del.FullScans, del.TuplesExamined, cold.TuplesExamined)
	}

	t.Run("magic", testMaintainedMagicProbes)
	t.Run("edge-cut", testMaintainedCutIgnoresBallast)
}

// requery runs a maintained re-query and returns its counters, failing
// unless the result cache moved the retained state by the delta.
func requery(t *testing.T, eng *Engine, query string, wantAnswers int) Counters {
	t.Helper()
	rows, err := eng.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "updated" {
		t.Fatalf("%s: result-cache=%q, want updated (%v)", query, got, rows.Explain())
	}
	if rows.Len() != wantAnswers {
		t.Fatalf("%s: %d answers, want %d", query, rows.Len(), wantAnswers)
	}
	return rows.Counters()
}

// testMaintainedMagicProbes is Property 3 under maintenance for the
// Magic Sets plan: same-generation over a depth-6 binary tree (127
// nodes), one p leaf inserted and retracted again. Every delta variant of
// the bound-first rewriting has a bound argument after its Δ atom — Δp at
// sg__bf(X,Y) :- m_sg__bf(X), p(X,W), sg__bf(W,Z), p(Y,Z)'s last atom
// probes sg__bf by Z, then p by W — so no variant scans p (left to right
// sg was called bb, and Δp(Y,Z) in m_sg__bb's rule left the rest of the
// body a cross product to enter through the magic relation); and the
// retraction pass must read p's old state where it is, with counted
// probes, not off a copy.
func testMaintainedMagicProbes(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load("sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).\nsg(X, Y) :- sg0(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	node := func(i int) string { return fmt.Sprintf("g%d", i) }
	for i := 2; i < 128; i++ { // heap numbering: g1 is the root, g64..g127 the leaves
		eng.AddFact("p", node(i), node(i/2))
	}
	eng.AddFact("sg0", node(1), node(1))
	const query = "sg(g64, Y)"
	rows, err := eng.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rows.Explain(); ex.Strategy != "magic" || ex.ResultCache != "rebuilt" || rows.Len() != 64 {
		t.Fatalf("cold %s: %v, %d answers; want a magic plan, rebuilt, 64 leaves", query, ex, rows.Len())
	}
	check := func(what string, c Counters) {
		t.Helper()
		t.Logf("re-query after the %s: %d index lookups, %d tuples examined, %d full scans", what, c.IndexLookups, c.TuplesExamined, c.FullScans)
		if c.FullScans != 0 || c.TuplesExamined > 100 {
			t.Fatalf("re-query after the %s: %d full scans, %d tuples examined; want 0 and <= 100 (p holds 127)",
				what, c.FullScans, c.TuplesExamined)
		}
	}
	eng.AddFact("p", "newleaf", node(63))
	check("leaf insert", requery(t, eng, query, 65))
	if _, err := eng.Retract("p", "newleaf", node(63)); err != nil {
		t.Fatal(err)
	}
	check("leaf retract", requery(t, eng, query, 64))
}

// testMaintainedCutIgnoresBallast: cutting and splicing one edge of the
// 4 000-chain costs what the contexts below the cut cost, not what the a
// relation holds. The pass over the chain alone and the pass with 60 000
// unrelated a edges loaded beside it examine the same number of tuples
// and allocate about the same number of bytes; a pass that copies (or
// re-indexes) a to reconstruct its old state does neither. The second
// cut + splice is the one measured: the first builds a's second-column
// posting list, once, and it is kept.
func testMaintainedCutIgnoresBallast(t *testing.T) {
	const n = 4000
	measure := func(ballast int) (examined int64, bytes uint64) {
		eng, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
			t.Fatal(err)
		}
		facts := make([]Fact, 0, n+ballast)
		for i := 0; i < n; i++ {
			facts = append(facts, Fact{"a", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}})
		}
		for i := 0; i < ballast; i++ {
			facts = append(facts, Fact{"a", []string{fmt.Sprintf("u%d", i), fmt.Sprintf("w%d", i)}})
		}
		if _, err := eng.InsertFacts(facts); err != nil {
			t.Fatal(err)
		}
		eng.AddFact("b", fmt.Sprintf("n%d", n), "goal")
		if _, err := eng.Query(context.Background(), "t(n0, Y)"); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := eng.Retract("a", "n2000", "n2001"); err != nil {
				t.Fatal(err)
			}
			cut := requery(t, eng, "t(n0, Y)", 0)
			eng.AddFact("a", "n2000", "n2001")
			splice := requery(t, eng, "t(n0, Y)", 1)
			runtime.ReadMemStats(&after)
			if cut.FullScans != 0 || splice.FullScans != 0 {
				t.Fatalf("ballast=%d pass %d: %d full scans on the cut, %d on the splice", ballast, pass, cut.FullScans, splice.FullScans)
			}
			examined = cut.TuplesExamined + splice.TuplesExamined
			bytes = after.TotalAlloc - before.TotalAlloc
		}
		return examined, bytes
	}
	aloneExamined, aloneBytes := measure(0)
	ballastExamined, ballastBytes := measure(60000)
	t.Logf("cut + splice of a(n2000,n2001): %d tuples examined, %d bytes alone; %d tuples, %d bytes beside 60000 unrelated edges",
		aloneExamined, aloneBytes, ballastExamined, ballastBytes)
	if aloneExamined != ballastExamined {
		t.Fatalf("tuples examined: %d alone, %d with ballast — the pass read a in proportion to its size", aloneExamined, ballastExamined)
	}
	if lo, hi := min(aloneBytes, ballastBytes), max(aloneBytes, ballastBytes); 4*hi > 5*lo {
		t.Fatalf("bytes allocated: %d alone, %d with ballast — more than 1.25x apart", aloneBytes, ballastBytes)
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

// builtOnce asserts the one-plan-contract under churn: a result-cache
// entry — whatever strategy planned it, whatever its Fig. 9 mode — is
// evaluated in full exactly once, its first build, and every later query
// of it is served hit or updated, whatever mix of inserts and
// retractions arrived in between (these tests never overflow a delta
// tail, evict an entry, or reload the program).
type builtOnce map[string]bool

func (b builtOnce) check(t *testing.T, step int, ground Atom, ex Explain) {
	t.Helper()
	key := ground.String()
	if ex.ResultCache == "rebuilt" && b[key] {
		t.Fatalf("step %d %v: entry rebuilt after its first build: %v", step, ground, ex)
	}
	b[key] = true
}

// queryUpdated re-asks query, requires the result cache to have served
// it by maintenance, and compares the answers with a from-scratch
// one-sided evaluation over the current database.
func queryUpdated(t *testing.T, eng *Engine, query, what string) *Rows {
	t.Helper()
	rows, err := eng.Query(context.Background(), query)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := rows.Explain().ResultCache; got != "updated" {
		t.Fatalf("%s: result-cache = %q, want updated", what, got)
	}
	q := mustAtom(t, query)
	def, err := ast.ExtractDefinition(eng.Program(), q.Pred)
	if err != nil {
		t.Fatal(err)
	}
	scratch, _, err := eval.OneSidedEval(def, q, eng.DB())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Relation().Equal(scratch) {
		t.Fatalf("%s: maintained %v != from-scratch %v", what, rows.Strings(), eval.AnswerStrings(scratch, eng.DB().Syms))
	}
	return rows
}

// TestResultCacheGuardFlipMaintains: an anchor-free factor-group guard
// flipping — empty at build time, then non-empty, then empty again — is
// absorbed by the retained state in both directions; the entry never
// serves the stale set and never rebuilds.
func TestResultCacheGuardFlipMaintains(t *testing.T) {
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
	rows = queryUpdated(t, eng, "t(u, Y)", "guard on")
	if got := fmt.Sprint(rows.Strings()); got != "[u,direct u,goal]" {
		t.Fatalf("post-flip answers = %v", got)
	}
	eng.AddFact("b", "v", "extra")
	rows = queryUpdated(t, eng, "t(u, Y)", "insert with the guard on")
	if got := fmt.Sprint(rows.Strings()); got != "[u,direct u,extra u,goal]" {
		t.Fatalf("maintained answers = %v", got)
	}
	if _, err := eng.Retract("d", "on"); err != nil {
		t.Fatal(err)
	}
	rows = queryUpdated(t, eng, "t(u, Y)", "guard off again")
	if got := fmt.Sprint(rows.Strings()); got != "[u,direct]" {
		t.Fatalf("guard-off-again answers = %v", got)
	}
	if cs := eng.CacheStats().Results; cs.Rebuilt != 1 {
		t.Fatalf("rebuilt = %d, want only the first build: %v", cs.Rebuilt, cs)
	}
}

// TestResultCacheContextModeMaintains is the one-machine behaviour
// contract: after its first build a context-mode (Fig. 9) entry absorbs
// every kind of delta — exit insert, exit retract, a cut, the splice
// that undoes it, a factor group emptied and refilled — as "updated",
// on a plan with an anchor-free group and on Example 3.4's anchored one.
func TestResultCacheContextModeMaintains(t *testing.T) {
	const n = 40
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	cases := []struct {
		name, src, query string
		exit             func(i int, out string) Fact
		group            Fact
	}{
		{
			name:  "anchor-free",
			src:   "t(X, Y) :- a(X, Z), t(Z, Y), d(W).\nt(X, Y) :- b(X, Y).\n",
			query: "t(n0, Y)",
			exit:  func(i int, out string) Fact { return Fact{"b", []string{node(i), out}} },
			group: Fact{"d", []string{"on"}},
		},
		{
			// Example 3.4 with the columns arranged so that a(X, Z) walks
			// down the chain: Z is the carried column, W the group's anchor.
			name:  "anchored",
			src:   "t(X, Y, W) :- a(X, Z), t(Z, Y, V), d(W).\nt(X, Y, W) :- b(X, Y, W).\n",
			query: "t(n0, Y, W)",
			exit:  func(i int, out string) Fact { return Fact{"b", []string{node(i), out, "w0"}} },
			group: Fact{"d", []string{"w1"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(tc.src); err != nil {
				t.Fatal(err)
			}
			var chain []Fact
			for i := 0; i < n; i++ {
				chain = append(chain, Fact{"a", []string{node(i), node(i + 1)}})
			}
			mustInsert := func(fs ...Fact) {
				t.Helper()
				if _, err := eng.InsertFacts(fs); err != nil {
					t.Fatal(err)
				}
			}
			mustRetract := func(fs ...Fact) {
				t.Helper()
				if n, err := eng.RetractFacts(fs); err != nil || n != len(fs) {
					t.Fatalf("retract %v: removed %d, err %v", fs, n, err)
				}
			}
			mustInsert(chain...)
			mustInsert(tc.exit(n, "end"), tc.exit(n/2, "mid"), tc.group)
			rows, err := eng.Query(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if ex := rows.Explain(); ex.Mode != "context" || ex.ResultCache != "rebuilt" {
				t.Fatalf("first query: %v, want a context-mode first build", ex)
			}
			if rows.Len() != 2 {
				t.Fatalf("first answers = %v", rows.Strings())
			}
			want := func(what string, answers int) {
				t.Helper()
				if rows := queryUpdated(t, eng, tc.query, what); rows.Len() != answers {
					t.Fatalf("%s: %d answers, want %d (%v)", what, rows.Len(), answers, rows.Strings())
				}
			}
			mustInsert(tc.exit(5, "early"))
			want("insert exit", 3)
			mustRetract(tc.exit(n/2, "mid"))
			want("retract exit", 2)
			mustRetract(chain[3])
			want("cut", 0)
			mustInsert(chain[3])
			want("splice", 2)
			mustRetract(tc.group)
			want("empty the factor group", 0)
			mustInsert(tc.group)
			want("refill the factor group", 2)
			mustRetract(chain[10], tc.exit(5, "early"))
			mustInsert(Fact{"a", []string{node(10), node(12)}})
			want("cut, bypass and exit retract in one delta", 1)
			if cs := eng.CacheStats().Results; cs.Rebuilt != 1 {
				t.Fatalf("rebuilt = %d, want only the first build: %v", cs.Rebuilt, cs)
			}
		})
	}
}

// TestResultCacheFailedUpdatePoisons: a maintenance pass cut short — by
// cancellation or by an exhausted gas budget — discards the entry, and
// the next query rebuilds it with correct answers.
func TestResultCacheFailedUpdatePoisons(t *testing.T) {
	const n = 200
	load := func(t *testing.T, opts ...Option) *Engine {
		t.Helper()
		eng, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
		eng.AddFact("b", fmt.Sprintf("n%d", n), "end")
		return eng
	}
	rebuildsCorrectly := func(t *testing.T, eng *Engine) {
		t.Helper()
		rows, err := eng.Query(context.Background(), "t(n0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Explain().ResultCache; got != "rebuilt" {
			t.Fatalf("query after a failed update: result-cache = %q, want rebuilt", got)
		}
		if got := fmt.Sprint(rows.Strings()); got != "[n0,end n0,far]" {
			t.Fatalf("answers after the rebuild = %v", got)
		}
	}
	t.Run("cancelled", func(t *testing.T) {
		eng := load(t)
		if _, err := eng.Query(context.Background(), "t(n0, Y)"); err != nil {
			t.Fatal(err)
		}
		// A second arm of the chain: the update must walk it.
		for i := 0; i < n; i++ {
			eng.AddFact("a", fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", i+1))
		}
		eng.AddFact("a", "n0", "m0")
		eng.AddFact("b", fmt.Sprintf("m%d", n), "far")
		pq, err := eng.Prepare(nil, mustAtom(t, "t(n0, Y)"))
		if err != nil {
			t.Fatal(err)
		}
		// Cancel mid-pass: queryCached refuses a dead context up front, so
		// the context dies a few Err checks into the maintenance loop.
		if _, _, err := eng.queryCached(&dyingCtx{Context: context.Background(), after: 3}, pq); !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-pass cancellation returned %v, want context.Canceled", err)
		}
		rebuildsCorrectly(t, eng)
	})
	t.Run("gas", func(t *testing.T) {
		eng := load(t, WithQuota(Quota{MaxDerived: n + 50}))
		if _, err := eng.Query(context.Background(), "t(n0, Y)"); err != nil {
			t.Fatal(err)
		}
		eng.AddFact("b", "n7", "far")
		// Splice a second, longer arm in: the maintenance pass derives more
		// contexts than the budget allows.
		for i := 0; i < 2*n; i++ {
			eng.AddFact("a", fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", i+1))
		}
		eng.AddFact("a", "n0", "m0")
		if _, err := eng.Query(context.Background(), "t(n0, Y)"); !errors.Is(err, ErrGasExhausted) {
			t.Fatalf("over-budget update returned %v, want ErrGasExhausted", err)
		}
		// Cut the arm off again: the rebuild fits the budget.
		if _, err := eng.Retract("a", "n0", "m0"); err != nil {
			t.Fatal(err)
		}
		rebuildsCorrectly(t, eng)
	})
}

// dyingCtx reports context.Canceled from its after-th Err call on. Its
// Done channel is closed from the start, so a loop that polls the channel
// and reads Err only once it has fired reads Err at every poll.
type dyingCtx struct {
	context.Context
	after int
}

func (c *dyingCtx) Done() <-chan struct{} { return closedChan }

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *dyingCtx) Err() error {
	if c.after--; c.after < 0 {
		return context.Canceled
	}
	return nil
}

// TestResultCacheIgnoresUnreadRelations: maintenance consults only the
// relations the retained program reads. A bulk load into an unrelated
// predicate — large enough to overflow that relation's delta tail, so
// its DeltaSince gives up — must not force the entry to rebuild.
func TestResultCacheIgnoresUnreadRelations(t *testing.T) {
	eng := openQuickstart(t)
	ctx := context.Background()
	if _, err := eng.Query(ctx, "t(paris, Y)"); err != nil {
		t.Fatal(err)
	}
	bulk := make([]Fact, 5000)
	for i := range bulk {
		bulk[i] = Fact{"zzz", []string{fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)}}
	}
	if _, err := eng.InsertFacts(bulk); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.DB().Relation("zzz").DeltaSince(1); ok {
		t.Fatal("the bulk load did not overflow zzz's delta tail; the test no longer tests anything")
	}
	rows, err := eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "hit" && got != "updated" {
		t.Fatalf("re-query after an unrelated bulk load: result-cache = %q, want hit or updated", got)
	}
	// And a relation it does read still maintains afterwards.
	eng.AddFact("b", "marseille", "aix")
	rows, err = eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().ResultCache; got != "updated" {
		t.Fatalf("re-query after a related insert: result-cache = %q, want updated", got)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[paris,aix paris,grenoble paris,nice]" {
		t.Fatalf("answers = %v", got)
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

// hookCtx runs fn once, from its at-th Err call — a way to do something
// at a known point inside a maintenance pass, which polls its context
// between rounds.
type hookCtx struct {
	context.Context
	at int
	fn func()
}

// Done is closed from the start, like dyingCtx's: every poll reads Err.
func (c *hookCtx) Done() <-chan struct{} { return closedChan }

func (c *hookCtx) Err() error {
	if c.at--; c.at == 0 {
		c.fn()
	}
	return nil
}

// TestResultCacheRetractionWaitsForMaintenance: delete-rederive
// reconstructs the pre-deletion state as what is there now plus what its
// delta says left, so a retraction must not land between a pass's delta
// collection and its end (Database.HoldRetractions). Here the chain is
// cut, and while the pass is cascading the cut a writer retracts the
// exit that hung below it. Were that retraction to land mid-pass, the
// answer it supported would be a candidate in neither this pass (the
// exit is already gone when the deleted contexts are joined with it)
// nor the next (the context is already gone when the deleted exit is
// joined with it) and would survive both.
func TestResultCacheRetractionWaitsForMaintenance(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	eng.AddFact("b", "n50", "goal")
	eng.AddFact("b", "n40", "x")
	pq, err := eng.Prepare(nil, mustAtom(t, "t(n0, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := pq.Query(context.Background()); err != nil || rows.Len() != 2 {
		t.Fatalf("first build: %v, err %v", rows.Strings(), err)
	}
	if _, err := eng.Retract("a", "n5", "n6"); err != nil {
		t.Fatal(err)
	}
	landed := make(chan struct{})
	ctx := &hookCtx{Context: context.Background(), at: 4, fn: func() {
		go func() {
			defer close(landed)
			if removed, err := eng.Retract("b", "n40", "x"); err != nil || !removed {
				t.Errorf("mid-pass retract: removed=%v err=%v", removed, err)
			}
		}()
		// Give the writer every chance to get in before the pass goes on.
		select {
		case <-landed:
		case <-time.After(20 * time.Millisecond):
		}
	}}
	rows, _, err := eng.queryCached(ctx, pq)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.at > 0 {
		t.Fatalf("the pass polled its context only %d times; the hook never ran", 4-ctx.at)
	}
	if got := rows.Explain().ResultCache; got != "updated" || rows.Len() != 0 {
		t.Fatalf("after the cut: result-cache=%s answers %v", got, rows.Strings())
	}
	<-landed
	eng.AddFact("a", "n5", "n6")
	rows, err = pq.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[n0,goal]" {
		t.Fatalf("after the splice: answers %v, want [n0,goal] (n0,x lost its exit)", got)
	}
}

// TestResultCacheConvergesUnderConcurrentWriters: maintained entries — a
// base lookup, and a context-mode recursion adopted by the semi-naive
// state — are re-asked by readers while several writers insert and
// retract the facts they read. A reader's stamp must never move past a
// mutation it has not replayed: once the writers stop, each entry, served
// from the cache, equals a from-scratch evaluation. (A writer that
// publishes a relation's modification watermark after the epoch has left
// the mutation's stamp loses that mutation to any reader in between; the
// surviving row is stale forever.)
func TestResultCacheConvergesUnderConcurrentWriters(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		eng, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
			t.Fatal(err)
		}
		const chain = 12
		node := func(i int) string { return fmt.Sprintf("n%d", i) }
		for i := 0; i < chain; i++ {
			eng.AddFact("a", node(i), node(i+1))
		}
		queries := []string{"b(n0, X)", "t(n0, Y)", "t(n3, Y)"}
		ctx := context.Background()
		for _, q := range queries {
			if _, err := eng.Query(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		var writers, readers sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 3; w++ {
			writers.Add(1)
			go func(w int, rng *rand.Rand) {
				defer writers.Done()
				// Every exit is inserted once and two thirds of them retracted
				// once, a few steps later, so no later write papers over a
				// lost one; now and then a chain edge is cut or spliced.
				exit := func(i int) (string, string) { return node(i % 4), fmt.Sprintf("w%d_%d", w, i) }
				for i := 0; i < 800; i++ {
					from, to := exit(i)
					eng.AddFact("b", from, to)
					if i >= 5 && i%3 != 0 {
						from, to = exit(i - 5)
						eng.Retract("b", from, to)
					}
					if rng.Intn(8) == 0 {
						k := rng.Intn(chain)
						if removed, _ := eng.Retract("a", node(k), node(k+1)); !removed {
							eng.AddFact("a", node(k), node(k+1))
						}
					}
				}
			}(w, rand.New(rand.NewSource(int64(round*10+w))))
		}
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := eng.Query(ctx, queries[i%len(queries)]); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		fresh, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		fresh.LoadProgram(eng.Program())
		for _, f := range snapshotLive(eng.DB()).facts {
			fresh.AddFact(f.pred, f.args...)
		}
		for _, query := range queries {
			rows, err := eng.Query(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			have := make(map[string]bool)
			for _, row := range rows.Strings() {
				have[row] = true
			}
			var missing []string
			for _, row := range want.Strings() {
				if !have[row] {
					missing = append(missing, row)
				}
				delete(have, row)
			}
			if len(have)+len(missing) > 0 {
				t.Fatalf("round %d %s (result-cache=%s): maintained answers hold stale rows %v and lack %v",
					round, query, rows.Explain().ResultCache, have, missing)
			}
		}
	}
}

// TestRefixMatchesBottomUp: a context-mode entry over ten 2 000-node
// chains absorbs a seeded random sequence of writes. A cut or a splice
// near a chain's head cascades more rounds than a pass's budget allows
// and refixes; a cut in a chain's second half stays under it; exits come
// and go, and the anchor-free guard d flips off and on. After every write
// the maintained answers equal a from-scratch bottom-up evaluation, an
// open subscription's folded events equal the answers, and the entry is
// never rebuilt.
func TestRefixMatchesBottomUp(t *testing.T) {
	const chains, n = 10, 2000
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y), d(W).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	node := func(k, i int) string { return fmt.Sprintf("c%d_%d", k, i) }
	edge := func(k, i int) Fact { return Fact{"a", []string{node(k, i), node(k, i+1)}} }
	guard := Fact{"d", []string{"on"}}
	exits := []Fact{{"b", []string{"r", "direct"}}}
	facts := []Fact{guard}
	for k := 0; k < chains; k++ {
		facts = append(facts, Fact{"a", []string{"r", node(k, 0)}})
		for i := 0; i < n-1; i++ {
			facts = append(facts, edge(k, i))
			if i%100 == 99 {
				exits = append(exits, Fact{"b", []string{node(k, i), fmt.Sprintf("x%d_%d", k, i)}})
			}
		}
	}
	if _, err := eng.InsertFacts(append(facts, exits...)); err != nil {
		t.Fatal(err)
	}
	// The oracle: the query's reachable contexts and answers, evaluated
	// bottom-up from scratch over the current facts.
	oracle, _, err := ParseSource(`
		reach(Z) :- a(r, Z), d(W).
		reach(Z) :- reach(X), a(X, Z).
		ans(Y) :- b(r, Y).
		ans(Y) :- reach(X), b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows, err := eng.Query(ctx, "t(r, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if ex := rows.Explain(); ex.Mode != "context" || ex.ResultCache != "rebuilt" || rows.Len() != len(exits) {
		t.Fatalf("first query: %v, %d answers; want a context-mode build with %d", ex, rows.Len(), len(exits))
	}
	sub, err := eng.Subscribe(ctx, "t(r, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	folded := make(map[string]bool)

	refixes := 0
	check := func(step int, what string) (refixed bool) {
		t.Helper()
		rows, err := eng.Query(ctx, "t(r, Y)")
		if err != nil {
			t.Fatalf("step %d %s: %v", step, what, err)
		}
		ex := rows.Explain()
		if ex.ResultCache == "rebuilt" {
			t.Fatalf("step %d %s: the entry was rebuilt: %v", step, what, ex)
		}
		res, err := eval.SemiNaive(oracle, eng.DB())
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, y := range eval.AnswerStrings(res.IDB.Relation("ans"), eng.DB().Syms) {
			want = append(want, "r,"+y)
		}
		sort.Strings(want)
		if got := rows.Strings(); fmt.Sprint(got) != fmt.Sprint(want) {
			have := make(map[string]bool, len(got))
			for _, row := range got {
				have[row] = true
			}
			var missing []string
			for _, row := range want {
				if !have[row] {
					missing = append(missing, row)
				}
				delete(have, row)
			}
			t.Fatalf("step %d %s: maintained answers hold %d rows bottom-up lacks %v and lack %v", step, what, len(have), have, missing)
		}
		// The pump re-derives on its own goroutine: fold its events until
		// they reach the answers.
		deadline := time.After(10 * time.Second)
		for len(folded) != len(want) || !containsAll(folded, want) {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					t.Fatalf("step %d %s: subscription closed: %v", step, what, sub.Err())
				}
				applyEvent(folded, ev)
			case <-deadline:
				t.Fatalf("step %d %s: folded subscription %d rows never reached the %d answers", step, what, len(folded), len(want))
			}
		}
		refixed = ex.Refixes > refixes
		refixes = ex.Refixes
		return refixed
	}
	check(0, "subscribe")

	rng := rand.New(rand.NewSource(29))
	var cut []Fact
	headRefixed, deepMaintained := 0, 0
	for step := 1; step <= 40; step++ {
		var what string
		retract := func(f Fact) bool {
			removed, err := eng.RetractFacts([]Fact{f})
			if err != nil {
				t.Fatal(err)
			}
			return removed == 1
		}
		insert := func(f Fact) {
			if _, err := eng.InsertFacts([]Fact{f}); err != nil {
				t.Fatal(err)
			}
		}
		op := rng.Intn(5)
		switch {
		case step == 20:
			what, op = "guard off", -1
			retract(guard)
		case step == 21:
			what, op = "guard on", -1
			insert(guard)
		case op == 0:
			e := edge(rng.Intn(chains), rng.Intn(50))
			what = fmt.Sprintf("head cut %v", e.Args)
			if retract(e) {
				cut = append(cut, e)
			}
		case op == 1 && len(cut) > 0:
			j := rng.Intn(len(cut))
			what = fmt.Sprintf("splice %v", cut[j].Args)
			insert(cut[j])
			cut = append(cut[:j], cut[j+1:]...)
		case op == 2:
			e := edge(rng.Intn(chains), n/2+rng.Intn(n/2-1))
			what = fmt.Sprintf("deep cut %v", e.Args)
			if retract(e) {
				cut = append(cut, e)
			}
		case op == 3:
			k, i := rng.Intn(chains), rng.Intn(n)
			e := Fact{"b", []string{node(k, i), fmt.Sprintf("y%d", step)}}
			what = fmt.Sprintf("exit insert %v", e.Args)
			insert(e)
			exits = append(exits, e)
		default:
			j := rng.Intn(len(exits))
			what = fmt.Sprintf("exit retract %v", exits[j].Args)
			retract(exits[j])
			exits = append(exits[:j], exits[j+1:]...)
		}
		refixed := check(step, what)
		switch {
		case op == 0 && refixed:
			headRefixed++
		case op == 2 && !refixed:
			deepMaintained++
		}
	}
	if headRefixed == 0 || deepMaintained == 0 {
		t.Fatalf("%d head cuts refixed, %d deep cuts maintained by rounds; the sequence must take both paths", headRefixed, deepMaintained)
	}
	if cs := eng.CacheStats().Results; cs.Rebuilt != 1 || cs.Refixed != int64(refixes) {
		t.Fatalf("result cache %v; want one build and the entry's %d refixes", cs, refixes)
	}
	t.Logf("%d refixes: %d head cuts refixed, %d deep cuts maintained by rounds", refixes, headRefixed, deepMaintained)
}

// containsAll reports whether set holds every row of rows.
func containsAll(set map[string]bool, rows []string) bool {
	for _, r := range rows {
		if !set[r] {
			return false
		}
	}
	return true
}

// TestRefixOutOfGasPoisons: a refix charges gas as a cold evaluation
// does, and running out inside one poisons the entry like any failed
// maintenance pass.
func TestRefixOutOfGasPoisons(t *testing.T) {
	const n = 2000
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	var facts []Fact
	for i := 0; i < n; i++ {
		facts = append(facts, Fact{"a", []string{fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)}})
		if i%100 == 99 {
			facts = append(facts, Fact{"b", []string{fmt.Sprintf("c%d", i), fmt.Sprintf("x%d", i)}})
		}
	}
	if _, err := eng.InsertFacts(facts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := func(ctx context.Context) (*Rows, error) { return eng.Query(ctx, "t(c0, Y)") }
	if _, err := query(ctx); err != nil {
		t.Fatal(err)
	}
	splice := Fact{"a", []string{"c5", "c6"}}
	if _, err := eng.RetractFacts([]Fact{splice}); err != nil {
		t.Fatal(err)
	}
	if rows, err := query(ctx); err != nil || rows.Explain().Refixes != 1 || rows.Len() != 0 {
		t.Fatalf("head cut: %v, err %v; want a refix and no answers", rows.Explain(), err)
	}
	// Splicing the cut back cascades ≈2 000 rounds against a budget of
	// 125: the pass charges one context a round for its 125 rounds, then
	// the refix charges the ≈2 000 contexts it claims — over the 1 000
	// allowed.
	if _, err := eng.InsertFacts([]Fact{splice}); err != nil {
		t.Fatal(err)
	}
	if _, err := query(WithGas(ctx, 1000)); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("splice on 1 000 gas: err %v, want ErrGasExhausted", err)
	}
	rows, err := query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rows.Explain(); ex.ResultCache != "rebuilt" || rows.Len() != n/100 {
		t.Fatalf("after the failed refix: %v, %d answers; want rebuilt with %d", ex, rows.Len(), n/100)
	}
}
