package onesided

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/parser"
)

const quickstartSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
	a(paris, lyon). a(lyon, marseille). a(marseille, toulon).
	b(toulon, nice). b(lyon, grenoble).
`

func openQuickstart(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(quickstartSrc); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEnginePicksOneSided is the acceptance criterion: on the quickstart
// program, t(paris, Y) must plan with the one-sided strategy and run
// with zero unrestricted scans on any relation.
func TestEnginePicksOneSided(t *testing.T) {
	eng := openQuickstart(t)
	eng.DB().Stats.Reset()
	rows, err := eng.Query(context.Background(), "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ex := rows.Explain()
	if ex.Strategy != "onesided" {
		t.Fatalf("strategy = %q, want onesided (explain: %v)", ex.Strategy, ex)
	}
	if ex.Mode != "context" || ex.CarryArity != 1 {
		t.Fatalf("mode=%q carry=%d, want context/1", ex.Mode, ex.CarryArity)
	}
	if got := rows.Strings(); len(got) != 2 || got[0] != "paris,grenoble" || got[1] != "paris,nice" {
		t.Fatalf("answers = %v", got)
	}
	if fs := eng.DB().Stats.Snapshot().FullScans; fs != 0 {
		t.Fatalf("one-sided evaluation did %d full scans, want 0 (Property 3)", fs)
	}
	if rows.Counters().FullScans != 0 {
		t.Fatalf("per-query counters report %d full scans", rows.Counters().FullScans)
	}
	if rows.Stats().Iterations == 0 || rows.Stats().SeenSize == 0 {
		t.Fatalf("stats not populated: %+v", rows.Stats())
	}
}

// TestEngineFallsBackToMagic: the same-generation recursion is provably
// not one-sided (Theorem 3.4); the engine must fall back to Magic Sets
// and say why the one-sided planner declined.
func TestEngineFallsBackToMagic(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
		p(a, r). p(b, r). p(r, s). sg0(s, s). sg0(r, r).
	`); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(context.Background(), "sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ex := rows.Explain()
	if ex.Strategy != "magic" {
		t.Fatalf("strategy = %q, want magic (explain: %v)", ex.Strategy, ex)
	}
	foundOneSided := false
	for _, r := range ex.Rejected {
		if r.Strategy == "onesided" {
			foundOneSided = true
			if r.Reason == "" {
				t.Fatal("onesided rejection has no reason")
			}
		}
	}
	if !foundOneSided {
		t.Fatalf("rejected list %v does not mention onesided", ex.Rejected)
	}
	// Cross-check against full materialization.
	want, _, err := eval.SelectEval(eng.Program(), mustAtom(t, "sg(a, Y)"), eng.DB())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Relation().Equal(want) {
		t.Fatalf("magic answers %v != materialized %v", rows.Strings(), eval.AnswerStrings(want, eng.DB().Syms))
	}
}

// TestEngineMultiStrategy: a two-recursive-rule recursion with the bound
// column persistent in both rules is planned by the one-sided strategy
// as the Section 5 reduction, with no strategy declining first.
func TestEngineMultiStrategy(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		t(X, Y) :- a(Y, Z), t(X, Z).
		t(X, Y) :- c(Y, Z), t(X, Z).
		t(X, Y) :- b(X, Y).
		a(n2, n1). c(n3, n2). b(u, n1).
	`); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(context.Background(), "t(u, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ex := rows.Explain()
	if ex.Strategy != "onesided" || ex.Mode != "reduced" || ex.CarryArity != 1 ||
		ex.Detail != "2 recursive rules, persistent-column reduction" || len(ex.Rejected) != 0 {
		t.Fatalf("explain = %v, want a reduced onesided plan of 2 rules", ex)
	}
	if got := rows.Strings(); len(got) != 3 {
		t.Fatalf("answers = %v, want u->n1,n2,n3", got)
	}
}

// TestMultiRuleRepeatedQueryVariable: the persistent-column reduction
// drops t(u, Y, Y)'s bound column and evaluates the rest bottom-up, with
// nothing left to check that the two Y columns agree. The default engine
// must still answer as materialization does: the one-sided planner
// declines the repeated variable, as it does for one rule, and Magic
// Sets answers.
func TestMultiRuleRepeatedQueryVariable(t *testing.T) {
	const src = `
		t(X, Y, W) :- a(Y, Z), t(X, Z, W).
		t(X, Y, W) :- c(Y, Z), t(X, Z, W).
		t(X, Y, W) :- b(X, Y, W).
		b(u, n1, n2). b(u, n3, n3). a(n0, n1). c(n9, n3).
	`
	answer := func(opts ...Option) *Rows {
		rows, err := openWith(t, nil, src, opts...).Query(context.Background(), "t(u, Y, Y)")
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := answer(WithStrategies("seminaive")).Strings()
	if fmt.Sprint(want) != "[u,n3,n3]" {
		t.Fatalf("seminaive answers %v, want [u,n3,n3]", want)
	}
	rows := answer()
	if got := rows.Strings(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("default engine answers %v, seminaive %v", got, want)
	}
	if ex := rows.Explain(); ex.Strategy != "magic" {
		t.Fatalf("explain = %v, want Magic Sets after onesided declines", ex)
	}
}

// TestEngineEDBLookup: a query on a base relation answers by indexed
// lookup without any rule machinery.
func TestEngineEDBLookup(t *testing.T) {
	eng := openQuickstart(t)
	rows, err := eng.Query(context.Background(), "a(lyon, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().Strategy; got != "edb" {
		t.Fatalf("strategy = %q, want edb", got)
	}
	if got := rows.Strings(); len(got) != 1 || got[0] != "lyon,marseille" {
		t.Fatalf("answers = %v", got)
	}
}

// TestEnginePlanCache: preparing the same query twice against the
// engine's program reuses the cached plan; loading rules invalidates it.
func TestEnginePlanCache(t *testing.T) {
	eng := openQuickstart(t)
	q := mustAtom(t, "t(paris, Y)")
	pq1, err := eng.Prepare(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	pq2, err := eng.Prepare(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if pq1.skeleton != pq2.skeleton {
		t.Fatal("second Prepare did not reuse the cached plan skeleton")
	}
	if pq1.Explain().PlanCache != "miss" || pq2.Explain().PlanCache != "hit" {
		t.Fatalf("plan-cache states = %q/%q, want miss/hit",
			pq1.Explain().PlanCache, pq2.Explain().PlanCache)
	}
	cs := eng.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %v, want 1 hit / 1 miss", cs)
	}
	if cs.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", cs.Entries)
	}
	// A same-shape query with a different constant shares the skeleton:
	// that is the adornment keying.
	pq5, err := eng.Prepare(nil, mustAtom(t, "t(lyon, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if pq5.skeleton != pq1.skeleton {
		t.Fatal("t(lyon, Y) did not share the t^bf skeleton with t(paris, Y)")
	}
	if got := eng.CacheStats(); got.Hits != 2 || got.Misses != 1 {
		t.Fatalf("cache stats after same-shape query = %v, want 2 hits / 1 miss", got)
	}
	// Both the cached and fresh plan must evaluate identically.
	r1, err := pq1.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pq2.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Strings()) != fmt.Sprint(r2.Strings()) {
		t.Fatalf("cached plan answers differ: %v vs %v", r1.Strings(), r2.Strings())
	}
	// Program change invalidates.
	if _, err := eng.Load(`s(X) :- d(X).`); err != nil {
		t.Fatal(err)
	}
	pq3, err := eng.Prepare(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if pq3.skeleton == pq1.skeleton {
		t.Fatal("plan cache survived a program change")
	}
	// An explicit program is planned fresh, not cached.
	prog := eng.Program()
	pq4, err := eng.Prepare(prog, q)
	if err != nil {
		t.Fatal(err)
	}
	if pq4.skeleton == pq3.skeleton {
		t.Fatal("explicit-program Prepare hit the engine cache")
	}
	if pq4.Explain().PlanCache != "" {
		t.Fatalf("explicit-program plan reports cache state %q", pq4.Explain().PlanCache)
	}
}

// TestEnginePlanCacheDisabled: WithPlanCache(0) turns caching off.
func TestEnginePlanCacheDisabled(t *testing.T) {
	eng := openQuickstart(t, WithPlanCache(0))
	q := mustAtom(t, "t(paris, Y)")
	pq1, _ := eng.Prepare(nil, q)
	pq2, _ := eng.Prepare(nil, q)
	if pq1.skeleton == pq2.skeleton {
		t.Fatal("plans cached with caching disabled")
	}
	if cs := eng.CacheStats(); cs.Hits != 0 {
		t.Fatalf("hits = %d with caching disabled", cs.Hits)
	}
}

// countdownCtx reports cancellation after Err has been consulted n
// times: a deterministic way to cancel mid-fixpoint.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// chainSrc builds a linear chain with n edges, forcing ~n fixpoint
// iterations.
func chainSrc(n int) string {
	src := "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("a(n%d, n%d).\n", i, i+1)
	}
	src += fmt.Sprintf("b(n%d, goal).\n", n)
	return src
}

// TestEngineCancellationMidFixpoint cancels the context partway through
// the Fig. 9 while loop and through the semi-naive delta rounds; both
// must surface context.Canceled instead of completing.
func TestEngineCancellationMidFixpoint(t *testing.T) {
	// The Section 5 shape the reduction claims: X persists through both
	// recursive rules, and the a-chain is walked backwards from the one b
	// edge.
	multiSrc := "t(X, Y) :- a(Y, Z), t(X, Z).\nt(X, Y) :- c(Y, Z), t(X, Z).\nt(X, Y) :- b(X, Y).\nb(u, n200).\n"
	for i := 0; i < 200; i++ {
		multiSrc += fmt.Sprintf("a(n%d, n%d).\n", i, i+1)
	}
	for _, tc := range []struct {
		name       string
		strategies []string
		src, query string
		answers    int
		want       string // Explain().Strategy
	}{
		{"onesided", nil, chainSrc(200), "t(n0, Y)", 1, "onesided"},
		{"multi", nil, multiSrc, "t(u, Y)", 201, "onesided"},
		{"magic", []string{"magic"}, chainSrc(200), "t(n0, Y)", 1, "magic"},
		{"seminaive", []string{"seminaive"}, chainSrc(200), "t(n0, Y)", 1, "seminaive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The result cache would serve the repeat query without
			// evaluating; this test is about cancelling the fixpoint.
			opts := []Option{WithResultCache(0)}
			if tc.strategies != nil {
				opts = append(opts, WithStrategies(tc.strategies...))
			}
			eng, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(tc.src); err != nil {
				t.Fatal(err)
			}
			// Sanity: uncancelled run completes, planned by the strategy the
			// case names.
			rows, err := eng.Query(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Len() != tc.answers {
				t.Fatalf("answers = %v", rows.Strings())
			}
			if got := rows.Explain().Strategy; got != tc.want {
				t.Fatalf("strategy = %q, want %q", got, tc.want)
			}
			// Cancel after a handful of loop checks: the 200-round fixpoint
			// must abort.
			ctx := &countdownCtx{Context: context.Background(), n: 5}
			if _, err := eng.Query(ctx, tc.query); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// An already-cancelled context never starts.
			done, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.Query(done, tc.query); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestEngineConcurrentQueries is the -race acceptance test: N goroutines
// issue a mix of one-sided, magic, and EDB queries against one shared
// Engine while each checks its answers.
func TestEngineConcurrentQueries(t *testing.T) {
	eng := openQuickstart(t)
	if _, err := eng.Load(`
		sg(X, Y) :- q(X, W), q(Y, Z), sg(W, Z).
		sg(X, Y) :- sg1(X, Y).
		q(a, r). q(b, r). sg1(r, r).
	`); err != nil {
		t.Fatal(err)
	}
	type check struct {
		query string
		want  string
	}
	checks := []check{
		{"t(paris, Y)", "[paris,grenoble paris,nice]"},
		{"t(lyon, Y)", "[lyon,grenoble lyon,nice]"},
		{"t(X, nice)", "[lyon,nice marseille,nice paris,nice toulon,nice]"},
		{"sg(a, Y)", "[a,a a,b]"},
		{"a(paris, Y)", "[paris,lyon]"},
	}
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := checks[(g+i)%len(checks)]
				rows, err := eng.Query(context.Background(), c.query)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", c.query, err)
					return
				}
				if got := fmt.Sprint(rows.Strings()); got != c.want {
					errs <- fmt.Errorf("%s: got %v want %v", c.query, got, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cs := eng.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("no plan-cache hits across %d queries (misses=%d)", goroutines*rounds, cs.Misses)
	}
}

// TestEngineConcurrentQueriesWithWriter overlaps queries with fact
// insertion: answers must always be a consistent snapshot (every tuple
// derivable from facts present at some point during the query).
func TestEngineConcurrentQueriesWithWriter(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\nb(hub, end).\n"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eng.AddFact("a", fmt.Sprintf("src%d", i), "hub")
			time.Sleep(time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		rows, err := eng.Query(context.Background(), "t(X, end)")
		if err != nil {
			t.Fatal(err)
		}
		for row := range rows.All() {
			if got := row.Value(1); got != "end" {
				t.Fatalf("row %v does not match selection", row)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestEngineConcurrentLoadAndQuery overlaps rule loading with queries:
// the program is copy-on-write, so in-flight queries keep a consistent
// snapshot and no stale plan survives in the cache. Run under -race.
func TestEngineConcurrentLoadAndQuery(t *testing.T) {
	eng := openQuickstart(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Load(fmt.Sprintf("aux%d(X) :- d(X).\n", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		rows, err := eng.Query(context.Background(), "t(paris, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows.Strings()); got != "[paris,grenoble paris,nice]" {
			t.Fatalf("answers = %v", got)
		}
	}
	close(stop)
	wg.Wait()
	// After the loads settle, a fresh rule must be visible (no stale plan
	// pinned in the cache).
	if _, err := eng.Load("s(X, Y) :- a(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(context.Background(), "s(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows.Strings()); got != "[paris,lyon]" {
		t.Fatalf("post-load answers = %v", got)
	}
}

// TestEngineStreaming: All is a true stream — early break stops it — and
// Sorted is deterministic.
func TestEngineStreaming(t *testing.T) {
	eng := openQuickstart(t)
	rows, err := eng.Query(context.Background(), "t(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() < 4 {
		t.Fatalf("free query returned %d rows", rows.Len())
	}
	n := 0
	for range rows.All() {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early break consumed %d rows", n)
	}
	// Sorted orders by interned tuple values (deterministic across runs
	// with the same load order).
	var prev Tuple
	for row := range rows.Sorted() {
		cur := row.Tuple()
		if prev != nil {
			for k := range cur {
				if cur[k] != prev[k] {
					if cur[k] < prev[k] {
						t.Fatalf("Sorted out of order: %v after %v", cur, prev)
					}
					break
				}
			}
		}
		prev = cur
	}
}

// TestEngineWithStrategiesRestriction: an engine restricted to the
// one-sided strategy rejects queries outside its class instead of
// falling back.
func TestEngineWithStrategiesRestriction(t *testing.T) {
	eng := openQuickstart(t, WithStrategies("onesided"))
	if _, err := eng.Query(context.Background(), "t(X, X)"); err == nil {
		t.Fatal("repeated-variable query should fail with only the onesided strategy")
	}
	// The served set is closed: the naive baseline is a library function
	// (eval.Naive), not a strategy name, and "counting" names nothing.
	if got := fmt.Sprint(StrategyNames()); got != "[edb magic onesided seminaive]" {
		t.Fatalf("served strategies = %s", got)
	}
	// multi-rule recursions are the one-sided planner's: "multi" names no
	// strategy.
	for _, name := range []string{"nosuch", "naive", "counting", "multi"} {
		_, err := Open(WithStrategies(name))
		if err == nil {
			t.Fatalf("strategy name %q should fail Open", name)
		}
		if want := fmt.Sprintf("unknown strategy %q (have [edb magic onesided seminaive])", name); !strings.Contains(err.Error(), want) {
			t.Fatalf("Open(WithStrategies(%q)) = %v, want %q", name, err, want)
		}
	}
}

// TestEngineExplainWithoutEvaluating: Prepare + Explain report the plan
// without touching the data.
func TestEngineExplainWithoutEvaluating(t *testing.T) {
	eng := openQuickstart(t)
	pq, err := eng.Prepare(nil, mustAtom(t, "t(paris, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	ex := pq.Explain()
	if ex.Strategy != "onesided" || ex.Verdict != "one-sided" {
		t.Fatalf("explain = %v", ex)
	}
	if ex.String() == "" {
		t.Fatal("empty explain rendering")
	}
}

// TestEngineMarketBasket: the optimize-then-detect pipeline runs inside
// the planner — the two-sided buys recursion converts and evaluates
// one-sided.
func TestEngineMarketBasket(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
		buys(X, Y) :- likes(X, Y), cheap(Y).
		knows(ann, bob). knows(bob, cal).
		likes(cal, widget). cheap(widget). likes(bob, gold).
	`); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(context.Background(), "buys(ann, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ex := rows.Explain()
	if ex.Strategy != "onesided" || ex.Verdict != "one-sided after optimization" {
		t.Fatalf("explain = %v", ex)
	}
	if got := rows.Strings(); len(got) != 1 || got[0] != "ann,widget" {
		t.Fatalf("answers = %v", got)
	}
}

func mustAtom(t *testing.T, s string) Atom {
	t.Helper()
	q, err := ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestLoadDoesNotRetainSourceText: the lexer returns constants and
// predicate names as substrings of the source, so a database that kept the
// strings it was handed kept every loaded text alive whole. A 16 MB source
// naming a dozen constants goes through parser.Parse and LoadProgram, is
// dropped, and the live heap must be back within 1 MB of where it was.
func TestLoadDoesNotRetainSourceText(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	func() {
		var src strings.Builder
		src.WriteString("% ")
		src.WriteString(strings.Repeat("sixteen megabytes of commentary ", 16<<20/32))
		src.WriteString("\n")
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&src, "edge(from%d, 'To %d').\n", i, i)
		}
		res, err := parser.Parse(src.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadProgram(res.Program); err != nil {
			t.Fatal(err)
		}
	}()
	if got := eng.DB().Syms.Len(); got != 12 {
		t.Fatalf("%d symbols interned, want 12", got)
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Fatalf("live heap %d bytes before the load, %d after the source was dropped: something of it is still referenced", before, after)
	}
}
