package onesided

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
)

// renderedRows returns what a hit answers with in the form Rows.Strings
// gives (comma-joined rows, sorted as strings), after checking it against
// the Rows it came with: the bytes are the relation's rows in Sorted order,
// marshalled; the count and the explanation are the Rows' own; and a Rows
// carries a rendering exactly when it says hit.
func renderedRows(t *testing.T, rows *Rows) []string {
	t.Helper()
	r, ok := rows.Rendered()
	if hit := rows.Explain().ResultCache == "hit"; ok != hit {
		t.Fatalf("Rendered ok=%v on a Rows that explains %q", ok, rows.Explain())
	}
	if !ok {
		return nil
	}
	want := make([][]string, 0, rows.Len())
	for row := range rows.Sorted() {
		want = append(want, row.Strings())
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Answers) != string(wantJSON) {
		t.Fatalf("rendered answers %s, the relation holds %s", r.Answers, wantJSON)
	}
	if r.Count != len(want) {
		t.Fatalf("rendered count %d, %d rows", r.Count, len(want))
	}
	if r.Explain != rows.Explain().String() {
		t.Fatalf("rendered explain %q, Rows explains %q", r.Explain, rows.Explain())
	}
	var decoded [][]string
	if err := json.Unmarshal(r.Answers, &decoded); err != nil {
		t.Fatalf("rendered answers %s: %v", r.Answers, err)
	}
	flat := make([]string, len(decoded))
	for i, row := range decoded {
		flat[i] = strings.Join(row, ",")
	}
	sort.Strings(flat)
	return flat
}

// TestHitRenderingTracksTheAnswers walks one cache entry through every
// way its answers move — insert, retraction, rule load, a batch traversal
// that overwrites it, a cancelled maintenance pass — and requires the hit
// after each to render the moved answers, never the ones before.
func TestHitRenderingTracksTheAnswers(t *testing.T) {
	ctx := context.Background()
	eng := openQuickstart(t)
	const q = "t(paris, Y)"
	step := func(what, mode string, want ...string) {
		t.Helper()
		rows, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := rows.Explain().ResultCache; got != mode {
			t.Fatalf("%s: result-cache=%s, want %s", what, got, mode)
		}
		if got := rows.Strings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: answers %v, want %v", what, got, want)
		}
		if rendered := renderedRows(t, rows); mode == "hit" && !reflect.DeepEqual(rendered, want) {
			t.Fatalf("%s: rendered %v, want %v", what, rendered, want)
		}
	}
	step("cold", "rebuilt", "paris,grenoble", "paris,nice")
	step("repeat", "hit", "paris,grenoble", "paris,nice")
	step("repeat", "hit", "paris,grenoble", "paris,nice")

	eng.AddFact("b", "marseille", "cassis")
	step("after insert", "updated", "paris,cassis", "paris,grenoble", "paris,nice")
	step("after insert", "hit", "paris,cassis", "paris,grenoble", "paris,nice")

	if _, err := eng.Retract("b", "lyon", "grenoble"); err != nil {
		t.Fatal(err)
	}
	step("after retract", "updated", "paris,cassis", "paris,nice")
	step("after retract", "hit", "paris,cassis", "paris,nice")

	// A write the plan never reads moves the stamp, not the answers: the
	// rendering survives it.
	eng.AddFact("unrelated", "x", "y")
	step("after an unread write", "hit", "paris,cassis", "paris,nice")

	if _, err := eng.Load("t(X, Y) :- c(X, Y).\nc(paris, orly)."); err != nil {
		t.Fatal(err)
	}
	step("after rule load", "rebuilt", "paris,cassis", "paris,nice", "paris,orly")
	step("after rule load", "hit", "paris,cassis", "paris,nice", "paris,orly")
}

// TestHitRenderingDroppedByTailOverflow: a delta tail that overflowed
// forces a rebuild in place, on the entry that held a rendering.
func TestHitRenderingDroppedByTailOverflow(t *testing.T) {
	ctx := context.Background()
	eng := openQuickstart(t)
	query := func(mode string, want int) {
		t.Helper()
		rows, err := eng.Query(ctx, "t(paris, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Explain().ResultCache; got != mode {
			t.Fatalf("result-cache=%s, want %s", got, mode)
		}
		if rendered := renderedRows(t, rows); mode == "hit" && len(rendered) != want {
			t.Fatalf("hit renders %d rows, want %d", len(rendered), want)
		}
	}
	query("rebuilt", 2)
	query("hit", 2)
	const bulk = 5000 // past the 2048-entry tail
	facts := make([]Fact, bulk)
	for i := range facts {
		facts[i] = Fact{Pred: "b", Args: []string{"toulon", fmt.Sprintf("x%d", i)}}
	}
	if _, err := eng.InsertFacts(facts); err != nil {
		t.Fatal(err)
	}
	query("rebuilt", 0)
	query("hit", 2+bulk)
}

// TestHitRenderingDroppedByBatchStore: a shared batch traversal that
// overwrites an entry (storeBatchResult) overwrites what its hits render.
func TestHitRenderingDroppedByBatchStore(t *testing.T) {
	ctx := context.Background()
	eng := openQuickstart(t)
	queries := []string{"t(paris, Y)", "t(lyon, Y)"}
	batch := func() {
		t.Helper()
		list, err := eng.QueryBatch(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, rows := range list {
			if rows.Explain().ResultCache != "" || rows.Stats().BatchQueries != len(queries) {
				t.Fatalf("%s was not served by a shared traversal: %v", queries[i], rows.Explain())
			}
		}
	}
	hit := func(want string) {
		t.Helper()
		rows, err := eng.Query(ctx, queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(renderedRows(t, rows)); got != want {
			t.Fatalf("hit renders %s (%v), want %s", got, rows.Explain(), want)
		}
	}
	batch()
	hit("[paris,grenoble paris,nice]")
	// The batch-shared entries hold no fixpoint state: stale, they rejoin
	// the traversal, and its store replaces answers and rendering alike.
	eng.AddFact("b", "marseille", "cassis")
	batch()
	hit("[paris,cassis paris,grenoble paris,nice]")
	// A batch member the pre-pass serves from the cache is a hit like any.
	list, err := eng.QueryBatch(ctx, queries[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(renderedRows(t, list[0])); got != "[paris,cassis paris,grenoble paris,nice]" {
		t.Fatalf("batch member served as a hit renders %s (%v)", got, list[0].Explain())
	}
}

// TestHitRenderingDroppedByPoisonedEntry: a maintenance pass cancelled
// half way leaves nothing a hit could render; the rebuild's hit renders
// the rebuilt answers.
func TestHitRenderingDroppedByPoisonedEntry(t *testing.T) {
	ctx := context.Background()
	const n = 200
	eng := openWith(t, nil, "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n")
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	eng.AddFact("b", fmt.Sprintf("n%d", n), "end")
	query := func(mode, want string) {
		t.Helper()
		rows, err := eng.Query(ctx, "t(n0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Explain().ResultCache; got != mode {
			t.Fatalf("result-cache=%s, want %s", got, mode)
		}
		if mode == "hit" {
			if got := fmt.Sprint(renderedRows(t, rows)); got != want {
				t.Fatalf("hit renders %s, want %s", got, want)
			}
		}
	}
	query("rebuilt", "")
	query("hit", "[n0,end]")
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", i+1))
	}
	eng.AddFact("a", "n0", "m0")
	eng.AddFact("b", fmt.Sprintf("m%d", n), "far")
	pq, err := eng.Prepare(nil, mustAtom(t, "t(n0, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.queryCached(&dyingCtx{Context: ctx, after: 3}, pq, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pass cancellation returned %v, want context.Canceled", err)
	}
	query("rebuilt", "")
	query("hit", "[n0,end n0,far]")
}

// TestHitRenderingAcrossExamples: for every example program and served
// strategy, a hit renders exactly what the evaluation before it answered,
// and explains itself as that response did bar the result-cache field —
// through inserts that move the answers in between.
func TestHitRenderingAcrossExamples(t *testing.T) {
	ctx := context.Background()
	specs := incInsertSpecs()
	for _, exm := range bindExamples() {
		t.Run(exm.name, func(t *testing.T) {
			eng := exm.open(t)
			ground := mustAtom(t, fmt.Sprintf(exm.shape, exm.consts[0]))
			gens := specs[exm.name]
			rng := rand.New(rand.NewSource(int64(len(exm.name)) * 7919))
			for round := 0; round < 4; round++ {
				first, err := eng.QueryAtom(ctx, ground)
				if err != nil {
					t.Fatal(err)
				}
				again, err := eng.QueryAtom(ctx, ground)
				if err != nil {
					t.Fatal(err)
				}
				if again.Explain().ResultCache != "hit" {
					t.Fatalf("round %d: repeat explains %v", round, again.Explain())
				}
				if rendered, want := renderedRows(t, again), first.Strings(); fmt.Sprint(rendered) != fmt.Sprint(want) {
					t.Fatalf("round %d: hit renders %v after a response of %v", round, rendered, want)
				}
				was := first.Explain()
				was.ResultCache, was.PlanCache = "hit", "hit"
				if got := again.Explain().String(); got != was.String() {
					t.Fatalf("round %d: hit explains %q, the response before it %q", round, got, first.Explain())
				}
				for _, g := range gens {
					eng.AddFact(g.pred, g.args(rng, round)...)
				}
			}
		})
	}
}

// TestRenderedExplainIsTheRequests: the plan-cache field of a hit's
// explanation says how THIS request got its plan, whichever request's
// rendering the entry holds.
func TestRenderedExplainIsTheRequests(t *testing.T) {
	ctx := context.Background()
	eng := openQuickstart(t)
	pq, err := eng.Prepare(nil, mustAtom(t, "t(lyon, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"", "hit", "bind", "hit"} {
		var rows *Rows
		if want == "bind" {
			bound, berr := pq.Bind("paris")
			if berr != nil {
				t.Fatal(berr)
			}
			rows, err = bound.Query(ctx)
		} else {
			rows, err = eng.Query(ctx, "t(paris, Y)")
		}
		if err != nil {
			t.Fatal(err)
		}
		renderedRows(t, rows)
		if want == "" {
			continue // the build
		}
		if ex := rows.Explain(); ex.ResultCache != "hit" || ex.PlanCache != want {
			t.Fatalf("request %d explains %v, want a hit with plan-cache=%s", i, ex, want)
		}
	}
}

// TestExplainStringMatchesFormatted pins Explain.String to the text the
// fmt-built version gave.
func TestExplainStringMatchesFormatted(t *testing.T) {
	formatted := func(ex Explain) string {
		var b strings.Builder
		b.WriteString("strategy=" + ex.Strategy)
		if ex.Adornment != "" {
			fmt.Fprintf(&b, " adornment=%s", ex.Adornment)
		}
		if ex.PlanCache != "" {
			fmt.Fprintf(&b, " plan-cache=%s", ex.PlanCache)
		}
		if ex.ResultCache != "" {
			fmt.Fprintf(&b, " result-cache=%s", ex.ResultCache)
		}
		if ex.Mode != "" {
			fmt.Fprintf(&b, " mode=%s carry-arity=%d", ex.Mode, ex.CarryArity)
		}
		if ex.Verdict != "" {
			fmt.Fprintf(&b, " verdict=%q", ex.Verdict)
		}
		if ex.Batches > 0 {
			fmt.Fprintf(&b, " batches=%d", ex.Batches)
		}
		if ex.Overdeleted > 0 || ex.Rederived > 0 {
			fmt.Fprintf(&b, " dred=%d/%d", ex.Overdeleted, ex.Rederived)
		}
		if ex.Refixes > 0 {
			fmt.Fprintf(&b, " refix=%d", ex.Refixes)
		}
		if ex.Detail != "" {
			fmt.Fprintf(&b, " (%s)", ex.Detail)
		}
		for _, r := range ex.Rejected {
			fmt.Fprintf(&b, "; %s declined: %s", r.Strategy, r.Reason)
		}
		return b.String()
	}
	full := Explain{
		Rejected:    []StrategyAttempt{{"onesided", "not \"one-sided\"\n"}, {"multi", "one rule"}},
		PlanCache:   "bind",
		ResultCache: "updated",
		Batches:     17, Overdeleted: 3, Rederived: 0, Refixes: 2,
	}
	full.Strategy, full.Adornment, full.Mode, full.CarryArity = "magic", "bf", "context", 0
	full.Verdict, full.Detail = "one-sided \"after\" optimisation\té", "answer predicate t_bf, 4 rewritten rules"
	rederivedOnly := Explain{Rederived: 2}
	rederivedOnly.Strategy = "edb"
	cases := []Explain{{}, full, rederivedOnly}
	ctx := context.Background()
	for _, exm := range bindExamples() {
		eng := exm.open(t)
		for range 2 {
			rows, err := eng.QueryAtom(ctx, mustAtom(t, fmt.Sprintf(exm.shape, exm.consts[0])))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, rows.Explain())
		}
	}
	for _, ex := range cases {
		if got, want := ex.String(), formatted(ex); got != want {
			t.Errorf("String() = %q, formatted %q", got, want)
		}
	}
}

// TestPlanExplainsAlikeBoundOrNot: PreparedQuery.Explain reads the shared
// skeleton, which is sound because no strategy's report mentions the
// constants — the bound plan of every example explains as its skeleton.
func TestPlanExplainsAlikeBoundOrNot(t *testing.T) {
	for _, exm := range bindExamples() {
		eng := exm.open(t)
		for _, c := range exm.consts {
			pq, err := eng.Prepare(nil, mustAtom(t, fmt.Sprintf(exm.shape, c)))
			if err != nil {
				t.Fatal(err)
			}
			bound, err := pq.plan()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := bound.Explain(), pq.skeleton.prepared.Explain(); got != want {
				t.Errorf("%s(%s): bound plan explains %+v, skeleton %+v", exm.name, c, got, want)
			}
		}
	}
}

// TestLazyBindConcurrentFirstUse: eight goroutines make the first use of
// one PreparedQuery at once, through Query, Stream and Explain. The plan
// binds once — everyone evaluates the same bound plan — and all agree on
// the answers. The result cache is off so that every Query evaluates.
func TestLazyBindConcurrentFirstUse(t *testing.T) {
	eng := openQuickstart(t, WithResultCache(0))
	for round := 0; round < 20; round++ {
		pq, err := eng.Prepare(nil, mustAtom(t, "t(paris, Y)"))
		if err != nil {
			t.Fatal(err)
		}
		if pq.bound != nil {
			t.Fatal("Prepare bound the plan before anything needed it")
		}
		const users = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		plans := make([]PreparedStrategy, users)
		answers := make([][]string, users)
		errs := make([]error, users)
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch u % 4 {
				case 0:
					if rows, err := pq.Query(context.Background()); err != nil {
						errs[u] = err
					} else {
						answers[u] = rows.Strings()
					}
				case 1:
					rows := pq.Stream(context.Background())
					answers[u], errs[u] = rows.Strings(), rows.Err()
				case 2:
					if ex := pq.Explain(); ex.Strategy != "onesided" {
						errs[u] = fmt.Errorf("explain %v", ex)
					}
				}
				plans[u], _ = pq.plan()
			}()
		}
		close(start)
		wg.Wait()
		for u := 0; u < users; u++ {
			if errs[u] != nil {
				t.Fatalf("user %d: %v", u, errs[u])
			}
			if plans[u] == nil || plans[u] != plans[0] {
				t.Fatalf("user %d evaluated plan %p, user 0 plan %p: the query bound twice", u, plans[u], plans[0])
			}
			if u%4 < 2 && fmt.Sprint(answers[u]) != "[paris,grenoble paris,nice]" {
				t.Fatalf("user %d answers %v", u, answers[u])
			}
		}
		if plans[0] == pq.skeleton.prepared {
			t.Fatal("the bound plan is the shared skeleton")
		}
	}
}

// TestBindErrorsStayEager: constants that do not fit the skeleton are
// refused by the call that supplied them, with the strategy's own words,
// though fitting ones now wait for the first evaluation to be bound.
func TestBindErrorsStayEager(t *testing.T) {
	eng := openQuickstart(t)
	pq, err := eng.Prepare(nil, mustAtom(t, "t(paris, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	_, want := pq.skeleton.prepared.BindArgs()
	if _, err := pq.Bind(); err == nil || err.Error() != want.Error() {
		t.Fatalf("Bind() = %v, the strategy says %v", err, want)
	}
	_, want = pq.skeleton.prepared.BindArgs(ast.C("a"), ast.C("b"))
	if _, err := pq.Bind("a", "b"); err == nil || err.Error() != want.Error() {
		t.Fatalf("Bind(a, b) = %v, the strategy says %v", err, want)
	}
	if _, err := eng.bindSkeleton(pq.skeleton, pq.query, []ast.Term{ast.V("X")}, "bind", pq.gen); err == nil {
		t.Fatal("a variable was accepted as a slot value")
	}
}

// TestQueryHitAllocationBudget pins what a result-cache hit allocates in
// Engine.Query: the parse, the skeleton and result keys, the
// PreparedQuery and the Rows — 16 objects when this was written, 59 with
// the answers sorted, resolved and explained per hit — and nothing that
// grows with the answer set.
func TestQueryHitAllocationBudget(t *testing.T) {
	const budget = 20
	ctx := context.Background()
	for _, n := range []int{2, 2000} {
		eng := openWith(t, nil, "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\na(n0, n1).")
		for i := 0; i < n; i++ {
			eng.AddFact("b", "n1", fmt.Sprintf("m%d", i))
		}
		for range 2 { // the build, then the hit that renders
			if _, err := eng.Query(ctx, "t(n0, Y)"); err != nil {
				t.Fatal(err)
			}
		}
		var served Rendered
		allocs := testing.AllocsPerRun(200, func() {
			rows, err := eng.Query(ctx, "t(n0, Y)")
			if err != nil {
				t.Fatal(err)
			}
			served, _ = rows.Rendered()
		})
		if served.Count != n {
			t.Fatalf("answers=%d: the hit renders %d rows", n, served.Count)
		}
		if allocs > budget {
			t.Errorf("answers=%d: a hit allocates %v objects, budget %d", n, allocs, budget)
		}
		t.Logf("answers=%d: %v allocs per hit", n, allocs)
	}
}

// TestMaintainAllocationBudget pins what a maintained re-query allocates
// in Engine.Query when its delta derives no answer: a reduced-mode
// t(X, goal) entry re-queried after |Δ| b facts that do not reach goal.
// The pass reads the inserts where they are — a window over b's own rows
// — so what it allocates does not grow with |Δ|: 41 objects at |Δ| = 32
// and 53 at 576 when the delta was copied into a scratch relation and
// indexed there, 16 at both since.
func TestMaintainAllocationBudget(t *testing.T) {
	const budget, spread, runs = 20, 2, 20
	ctx := context.Background()
	counts := map[int]uint64{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{32, 576} {
		eng := openWith(t, nil, "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\nb(n1, goal).")
		for i := 0; i < 64; i++ {
			eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
		pq, err := eng.Prepare(nil, mustAtom(t, "t(X, goal)"))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := pq.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if mode := rows.Explain().Mode; mode != "reduced" {
			t.Fatalf("t(X, goal) runs in mode %q, want reduced", mode)
		}
		answers := rows.Len()
		writes := make([][]Fact, runs)
		for r := range writes {
			writes[r] = make([]Fact, n)
			for i := range writes[r] {
				writes[r][i] = Fact{"b", []string{fmt.Sprintf("n%d", i%64), fmt.Sprintf("m%d_%d", r, i)}}
			}
		}
		// Measured as testing.AllocsPerRun does — on one processor, the
		// average over the runs — but around the query alone: each run
		// first commits its delta.
		var before, after runtime.MemStats
		var total uint64
		for _, w := range writes {
			if _, err := eng.InsertFacts(w); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			rows, err := pq.Query(ctx)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if ex := rows.Explain(); ex.ResultCache != "updated" || rows.Len() != answers {
				t.Fatalf("|Δ|=%d: re-query result-cache=%s with %d answers, want updated with %d", n, ex.ResultCache, rows.Len(), answers)
			}
			total += after.Mallocs - before.Mallocs
		}
		counts[n] = total / runs
		if counts[n] > budget {
			t.Errorf("|Δ|=%d: a maintained re-query allocates %d objects, budget %d", n, counts[n], budget)
		}
		t.Logf("|Δ|=%d: %d allocs per maintained re-query", n, counts[n])
	}
	if lo, hi := min(counts[32], counts[576]), max(counts[32], counts[576]); hi-lo > spread {
		t.Errorf("a maintained re-query allocates %d objects at |Δ|=32 and %d at |Δ|=576: more than %d apart", counts[32], counts[576], spread)
	}
}
