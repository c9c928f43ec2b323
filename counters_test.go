package onesided

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The evaluators count their probes in a tally of their own and add it
// into Database.Stats when an evaluation or maintenance pass ends. These
// tests pin that nothing is lost on the way: per-query counters are the
// numbers the probes themselves used to add, one atomic at a time, and
// an evaluation that ends early still hands in what it did.

const countersSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
	sg(X, Y) :- a(W, X), a(Z, Y), sg(W, Z).
	sg(X, Y) :- b(X, Y).
`

// countersGraphs are the two fixed inputs: a 300-edge chain with an exit
// at every tenth node, and a 120-node random digraph of out-degree 3 with
// an exit at every fourth. Both hold a(n1, n2).
var countersGraphs = map[string]func(add func(pred string, args ...int)){
	"chain": func(add func(string, ...int)) {
		for i := 0; i < 300; i++ {
			add("a", i, i+1)
			if i%10 == 0 {
				add("b", i, i)
			}
		}
	},
	"digraph": func(add func(string, ...int)) {
		rng := rand.New(rand.NewSource(18))
		add("a", 1, 2)
		for i := 0; i < 120; i++ {
			for k := 0; k < 3; k++ {
				add("a", i, rng.Intn(120))
			}
			if i%4 == 0 {
				add("b", i, i)
			}
		}
	},
}

// openCounters loads a graph into an engine. Every lookup is one probe,
// every evaluation runs on the goroutine that asked for it, every
// semi-naive round in rule order: every count repeats, whatever
// GOMAXPROCS the process runs under.
func openCounters(t *testing.T, graph string) *Engine {
	t.Helper()
	eng := openCtxCase(t, nil, countersSrc)
	var facts []Fact
	countersGraphs[graph](func(pred string, args ...int) {
		f := Fact{Pred: pred}
		for _, a := range args {
			f.Args = append(f.Args, fmt.Sprintf("n%d", a))
		}
		facts = append(facts, f)
	})
	if _, err := eng.InsertFacts(facts); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCountersPinned: Rows.Counters() of a cold context-mode query, a
// reduced-mode query, a Magic Sets query and a maintained re-query, on
// both graphs, are exactly what they were when every probe added itself
// to Database.Stats, and a second engine over the same facts counts the
// Magic Sets query the same again.
func TestCountersPinned(t *testing.T) {
	type step struct {
		query, mode, cache string
		// change moves the database before the query.
		change func(eng *Engine)
	}
	steps := []step{
		{query: "t(n0, Y)", mode: "context", cache: "rebuilt"},
		{query: "t(X, n40)", mode: "reduced", cache: "rebuilt"},
		{query: "sg(n7, Y)", cache: "rebuilt"},
		{query: "t(n0, Y)", mode: "context", cache: "updated", change: func(eng *Engine) {
			eng.AddFact("a", "n5", "fresh")
			eng.AddFact("b", "fresh", "fresh")
		}},
		{query: "t(n0, Y)", mode: "context", cache: "updated", change: func(eng *Engine) {
			if ok, err := eng.Retract("a", "n1", "n2"); !ok || err != nil {
				t.Fatalf("retract: %v, %v", ok, err)
			}
		}},
	}
	// As counted at d89567b, where shard.lookup and Scan added every probe
	// to Database.Stats as it happened — except the Magic Sets rows, which
	// count the bound-first rewriting: sg is called bf, its magic set is
	// n7's ancestors. Left to right it was called bb, its magic set the
	// ancestors crossed with every node, and counted {9262, 40819, 1 full
	// scan} on the chain and {673098, 613199, 4 full scans} on the digraph.
	// The reduced, Magic Sets and retraction rows count one probe per
	// lookup on one-store relations. Over four shards an unrouted lookup
	// counted one probe a shard, and a scan or an early-stopped probe met
	// the rows shard by shard instead of in insertion order: those rows
	// read {41, 168}, {32, 93}, {743, 2250} on the chain and {360, 484},
	// {154887, 52630}, {1106, 842} on the digraph (examined, lookups).
	// The chain's retraction cuts 298 levels below n1: its pass runs the
	// 64 rounds of its budget and refixes, re-running the Fig. 9 loop
	// (which inserts the one answer it reaches into a fresh answer set).
	// Cascading the whole cut, one round per level, it counted {988, 1260}
	// and no insert.
	want := map[string][]Counters{
		"chain": {
			{TuplesExamined: 330, IndexLookups: 602, Inserts: 30},
			{TuplesExamined: 41, IndexLookups: 42, Inserts: 41},
			{TuplesExamined: 32, IndexLookups: 42, Inserts: 1},
			{TuplesExamined: 1, IndexLookups: 2, Inserts: 1},
			{TuplesExamined: 67, IndexLookups: 69, Inserts: 1, Retracts: 30},
		},
		"digraph": {
			{TuplesExamined: 366, IndexLookups: 226, Inserts: 27},
			{TuplesExamined: 360, IndexLookups: 121, Inserts: 120},
			{TuplesExamined: 154521, IndexLookups: 51776, Inserts: 112},
			{TuplesExamined: 1, IndexLookups: 2, Inserts: 1},
			{TuplesExamined: 1289, IndexLookups: 562},
		},
	}
	for _, graph := range []string{"chain", "digraph"} {
		t.Run(graph, func(t *testing.T) {
			eng := openCounters(t, graph)
			for i, s := range steps {
				if s.change != nil {
					s.change(eng)
				}
				rows, err := eng.Query(context.Background(), s.query)
				if err != nil {
					t.Fatal(err)
				}
				ex := rows.Explain()
				if ex.Mode != s.mode || ex.ResultCache != s.cache || rows.Len() == 0 {
					t.Fatalf("%s: %v, %d answers; want mode %q, result-cache %s", s.query, ex, rows.Len(), s.mode, s.cache)
				}
				got := rows.Counters()
				if got != want[graph][i] {
					t.Errorf("%s (%s): counters %+v, want %+v", s.query, s.cache, got, want[graph][i])
				}
				if ex.Strategy == "magic" && got.FullScans != 0 {
					t.Errorf("%s: Magic Sets plan made %d full scans; a bound argument must restrict it (Property 3)", s.query, got.FullScans)
				}
			}
			// Run twice: the Magic Sets query alone, cold, on a fresh engine.
			rows, err := openCounters(t, graph).Query(context.Background(), steps[2].query)
			if err != nil {
				t.Fatal(err)
			}
			if got := rows.Counters(); rows.Explain().Strategy != "magic" || got != want[graph][2] {
				t.Errorf("%s again: %v, counters %+v, want %+v", steps[2].query, rows.Explain(), got, want[graph][2])
			}
		})
	}
}

// TestCountersSurviveEarlyExit: an evaluation cut short — by its context,
// by its gas budget, by a consumer that walks away from the stream —
// still adds the probes it made into Database.Stats, exactly.
func TestCountersSurviveEarlyExit(t *testing.T) {
	dying := func(after int) func() context.Context {
		return func() context.Context { return &dyingCtx{Context: context.Background(), after: after} }
	}
	gas := func(budget int64) func() context.Context {
		return func() context.Context { return WithGas(context.Background(), budget) }
	}
	// want is what the cut-short evaluation had counted at d89567b. The
	// bound-first Magic Sets plan for sg(n7, Y) derives 16 facts in all,
	// so a budget of 10 cuts it short (the left-to-right plan ran out at
	// 50 with {2097, 7800, 1 full scan}). The reduced and Magic Sets cuts
	// counted {9, 36} and {22, 83} (examined, lookups) over four shards,
	// where an unrouted lookup was one probe a shard.
	cuts := []struct {
		name, query string
		ctx         func() context.Context
		err         error
		want        Counters
	}{
		{"cancel/context", "t(n0, Y)", dying(40), context.Canceled, Counters{TuplesExamined: 41, IndexLookups: 75, Inserts: 4}},
		{"cancel/reduced", "t(X, n40)", dying(12), context.Canceled, Counters{TuplesExamined: 9, IndexLookups: 9}},
		{"gas/context", "t(n0, Y)", gas(50), ErrGasExhausted, Counters{TuplesExamined: 51, IndexLookups: 93, Inserts: 5}},
		{"gas/magic", "sg(n7, Y)", gas(10), ErrGasExhausted, Counters{TuplesExamined: 22, IndexLookups: 32}},
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			eng := openCounters(t, "chain")
			before := eng.DB().Stats.Snapshot()
			if _, err := eng.Query(c.ctx(), c.query); !errors.Is(err, c.err) {
				t.Fatalf("%s: err = %v, want %v", c.query, err, c.err)
			}
			if got := eng.DB().Stats.Snapshot().Sub(before); got != c.want {
				t.Errorf("Database.Stats moved by %+v, want %+v", got, c.want)
			}
		})
	}
	t.Run("stream/abandoned", func(t *testing.T) {
		eng := openCounters(t, "chain")
		before := eng.DB().Stats.Snapshot()
		rows, err := eng.QueryStream(context.Background(), "t(n0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		for range rows.All() {
			break
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		// How far the loop got before it saw the consumer leave is the
		// scheduler's business; that its probes were handed in is not.
		got := eng.DB().Stats.Snapshot().Sub(before)
		if got.IndexLookups == 0 || got.TuplesExamined == 0 || got != rows.Counters() {
			t.Fatalf("abandoned stream: Database.Stats moved by %+v, Rows.Counters() %+v", got, rows.Counters())
		}
	})
}

// TestCountersPinnedAcrossExamples: the cold evaluation of every query of
// the bind sweep — the five example programs, which between them take
// every served strategy — counts exactly the probes it counted at
// 367df24, before a conjunction's binding pattern was compiled and a
// level's first-atom probes were staged: the same lookups, rows and scans,
// whatever carries them out. genealogy, the Magic Sets example, counts the
// bound-first rewriting instead and makes no full scan; left to right it
// counted {110, 279, 1}, {644, 690, 1} and {770, 765, 1} (examined,
// lookups, full scans).
func TestCountersPinnedAcrossExamples(t *testing.T) {
	want := map[string][]Counters{
		"quickstart":    {{TuplesExamined: 5, IndexLookups: 8, Inserts: 2}, {TuplesExamined: 4, IndexLookups: 6, Inserts: 2}, {TuplesExamined: 2, IndexLookups: 4, Inserts: 1}, {TuplesExamined: 1, IndexLookups: 2, Inserts: 1}, {IndexLookups: 2}},
		"quickstart-fb": {{TuplesExamined: 4, IndexLookups: 5, Inserts: 4}, {TuplesExamined: 2, IndexLookups: 3, Inserts: 2}, {IndexLookups: 1}},
		"flights":       {{TuplesExamined: 139, IndexLookups: 106, Inserts: 3}, {TuplesExamined: 136, IndexLookups: 106, Inserts: 3}, {TuplesExamined: 137, IndexLookups: 106, Inserts: 3}, {TuplesExamined: 136, IndexLookups: 106, Inserts: 3}},
		"genealogy":     {{TuplesExamined: 22, IndexLookups: 17, Inserts: 2}, {TuplesExamined: 98, IndexLookups: 59, Inserts: 8}, {TuplesExamined: 100, IndexLookups: 78, Inserts: 16}},
		"marketbasket":  {{TuplesExamined: 6, IndexLookups: 11, Inserts: 1}, {TuplesExamined: 3, IndexLookups: 7}, {TuplesExamined: 5, IndexLookups: 9, Inserts: 1}, {TuplesExamined: 5, IndexLookups: 11}},
		"appendixa":     {{TuplesExamined: 9, IndexLookups: 9, FullScans: 1, Inserts: 3}, {TuplesExamined: 9, IndexLookups: 9, FullScans: 1, Inserts: 3}, {IndexLookups: 1}},
		"tworule":       {{TuplesExamined: 6, IndexLookups: 12, Inserts: 5}, {TuplesExamined: 2, IndexLookups: 6, Inserts: 2}, {IndexLookups: 1}},
		"seminaive":     {{TuplesExamined: 6, IndexLookups: 6, FullScans: 1, Inserts: 2}, {TuplesExamined: 6, IndexLookups: 6, FullScans: 1, Inserts: 2}, {TuplesExamined: 6, IndexLookups: 6, FullScans: 1, Inserts: 1}, {TuplesExamined: 6, IndexLookups: 6, FullScans: 1, Inserts: 1}, {TuplesExamined: 6, IndexLookups: 6, FullScans: 1}},
		"edb":           {{TuplesExamined: 1, IndexLookups: 1, Inserts: 1}, {TuplesExamined: 1, IndexLookups: 1, Inserts: 1}, {IndexLookups: 1}},
	}
	for _, exm := range bindExamples() {
		t.Run(exm.name, func(t *testing.T) {
			eng := exm.open(t)
			var got []Counters
			for _, c := range exm.consts {
				rows, err := eng.Query(context.Background(), fmt.Sprintf(exm.shape, c))
				if err != nil {
					t.Fatal(err)
				}
				ex := rows.Explain()
				if ex.Strategy != exm.strategy || ex.ResultCache != "rebuilt" {
					t.Fatalf("%s: %v; want a cold %s evaluation", c, ex, exm.strategy)
				}
				counters := rows.Counters()
				if ex.Strategy == "magic" && counters.FullScans != 0 {
					t.Errorf("%s: Magic Sets plan made %d full scans; a bound argument must restrict it (Property 3)", c, counters.FullScans)
				}
				got = append(got, counters)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[exm.name]) {
				t.Errorf("counters per constant %v:\n got %#v\nwant %#v", exm.consts, got, want[exm.name])
			}
		})
	}
}
