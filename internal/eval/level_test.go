package eval

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/ast"
	"repro/internal/datagen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// hourglass builds an a-graph whose Fig. 9 levels from node "s" alternate
// between `narrow` hub nodes and `wide` mid nodes, `layers` times over:
// s -> h0_* -> m0_* -> h1_* -> m1_* -> ... Every mid points at one hub of
// the next layer, so a wide level's successors collapse onto a narrow one.
// Rings inside each mid layer, edges from each hub back into the mid
// layer below it, and an edge from the last layer back to s re-offer
// contexts the seen-set already holds. With labelled set the relations
// take a third column — the edge label the folded-anchor recursion
// (anchorsSrc) carries with each context.
func hourglass(layers, wide, narrow int, labelled bool) *storage.Database {
	db := storage.NewDatabase()
	fact := func(pred, from, to, label string) {
		if labelled {
			db.AddFact(pred, from, to, label)
		} else {
			db.AddFact(pred, from, to)
		}
	}
	hub := func(j, i int) string { return "h" + strconv.Itoa(j) + "_" + strconv.Itoa(i) }
	mid := func(j, k int) string { return "m" + strconv.Itoa(j) + "_" + strconv.Itoa(k) }
	for i := 0; i < narrow; i++ {
		fact("a", "s", hub(0, i), "p"+strconv.Itoa(i%2))
	}
	for j := 0; j < layers; j++ {
		for k := 0; k < wide; k++ {
			// Two hubs reach every mid, so half the offers of a wide level
			// are duplicates of a claim already made.
			fact("a", hub(j, k%narrow), mid(j, k), "q")
			fact("a", hub(j, (k+1)%narrow), mid(j, k), "q")
			fact("a", mid(j, k), hub(j+1, k%narrow), "q")
			fact("a", mid(j, k), mid(j, (k+1)%wide), "q")
			if k%10 == 0 {
				fact("b", mid(j, k), "e"+strconv.Itoa(k%7), "r")
			}
		}
		for i := 0; i < narrow; i++ {
			fact("a", hub(j+1, i), mid(j, i), "q")
			fact("b", hub(j+1, i), "x"+strconv.Itoa(j), "r")
		}
	}
	fact("a", hub(layers, 0), "s", "q")
	fact("b", "s", "x", "r")
	return db
}

// TestLevelShapesMatchSerial drives the level loop through the shapes
// its two buffers are swapped across — a wide level, then a narrow one,
// then a wide one again, over data with cycles — and requires the answers
// to equal naive bottom-up evaluation's and a streamed run to do the work
// of a plain one. A buffer surviving the level it was filled in (the
// double buffer's hazard) would re-expand old contexts: more iterations
// and probes than contexts claimed, or no termination at all.
func TestLevelShapesMatchSerial(t *testing.T) {
	const layers, wide, narrow = 5, 100, 4
	cases := []struct {
		name, src, query string
		labelled         bool
		carryWidth       int
	}{
		{"bitset-seen", tcSrc, "t(s, Y)", false, 1},
		{"relation-seen-anchored", anchorsSrc, "t(s, Y, P)", true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := mustDef(t, tc.src, "t")
			q := parser.MustParseAtom(tc.query)
			db := hourglass(layers, wide, narrow, tc.labelled)
			compile := func() *Plan {
				plan, err := CompileSelection(d, q)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Mode != ModeContext || plan.CarryArity != tc.carryWidth {
					t.Fatalf("mode %v carry %d, want context mode carrying %d", plan.Mode, plan.CarryArity, tc.carryWidth)
				}
				return plan
			}
			want := naiveSelect(t, d.Program(), q, db)

			// The plain run is the reference; its level widths show the
			// fixture has the shape this test is about.
			plain := compile()
			ce := plain.newContextEval(db, nil)
			var widths []int
			plain.TestIterHook = func(int) { widths = append(widths, ce.carry.n) }
			sAns, sStats, err := ce.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !sAns.Equal(want) {
				t.Fatalf("answers %v != naive %v", AnswerStrings(sAns, db.Syms), AnswerStrings(want, db.Syms))
			}
			if _, bits := ce.seen.(*bitsetSeen); bits != (tc.carryWidth == 1) {
				t.Fatalf("carry width %d ran on seen-set %T", tc.carryWidth, ce.seen)
			}
			if claimed := len(ce.seen.Tuples()); claimed != sStats.SeenSize || sStats.GProbes != claimed+1 {
				t.Fatalf("seen-set holds %d contexts, stats report %d claimed and %d g-probes", claimed, sStats.SeenSize, sStats.GProbes)
			}
			alternations := 0
			for i := 0; i+2 < len(widths); i++ {
				if widths[i] > 4*probeChunk && widths[i+1] > 1 && widths[i+1] < probeChunk && widths[i+2] > 4*probeChunk {
					alternations++
				}
			}
			if alternations < 2 {
				t.Fatalf("level widths %v never go wide, narrow, wide", widths)
			}

			// Streamed and drained: every answer exactly once, the same work.
			streamed := storage.NewRelation(q.Arity(), nil)
			got, stats, err := compile().EvalStreamCtx(context.Background(), db, func(tup storage.Tuple) bool {
				if !streamed.Insert(tup) {
					t.Error("answer streamed twice")
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || !streamed.Equal(want) || stats != sStats {
				t.Fatalf("streamed: %d answers (%d emitted), want %d; stats %+v vs %+v",
					got.Len(), streamed.Len(), want.Len(), stats, sStats)
			}

			// Streamed and abandoned after stop answers: a clean early
			// return, nothing emitted past the stop, nothing invented.
			for _, stop := range []int{1, want.Len() / 2} {
				emitted := 0
				got, _, err = compile().EvalStreamCtx(context.Background(), db, func(tup storage.Tuple) bool {
					emitted++
					if !want.Contains(tup) {
						t.Error("streamed a tuple naive evaluation lacks")
					}
					return emitted < stop
				})
				if err != nil {
					t.Fatalf("stop=%d: %v", stop, err)
				}
				if emitted != stop {
					t.Fatalf("%d answers emitted, consumer stopped at %d", emitted, stop)
				}
				for _, tup := range got.Tuples() {
					if !want.Contains(tup) {
						t.Fatalf("stop=%d: abandoned run holds a tuple naive evaluation lacks", stop)
					}
				}
			}
		})
	}
}

// TestLevelLoopAllocationBudget pins the loop's memory discipline as a
// number: a cold context-mode evaluation of a chain twice as deep must
// not allocate more, because a level reuses its worker's scratch and the
// carry arena instead of building them, and neither may allocate more than
// levelAllocBudget — a unary carry's gather appends to the next level's
// arena and claims there, and no closure is built per level. Both hold
// under a context that cannot be cancelled and under one that can, whose
// poll starts a watcher once the loop has run pollWatchAfter levels.
func TestLevelLoopAllocationBudget(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	measure := func(edges int, cancellable bool) (allocs float64, levels int) {
		w := datagen.ChainTC(edges)
		plan, err := CompileSelection(d, ast.Atom{Pred: "t", Args: []ast.Term{ast.C(w.Start), ast.V("Y")}})
		if err != nil {
			t.Fatal(err)
		}
		var stats EvalStats
		allocs = testing.AllocsPerRun(5, func() {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if cancellable {
				ctx, cancel = context.WithCancel(ctx)
			}
			ans, st, err := plan.EvalCtx(ctx, w.DB)
			cancel()
			if err != nil || ans.Len() != 1 {
				t.Fatalf("chain of %d: %d answers, err %v", edges, ans.Len(), err)
			}
			stats = st
		})
		return allocs, stats.Iterations
	}
	// A cancellable run adds its context's three allocations (the
	// context, its Done channel, its cancel func) and the watcher's: its
	// flag, its quit channel, the goroutine's closure and, when the last
	// run's watcher has not yet exited, a goroutine descriptor.
	const levelAllocBudget, cancellableAllocBudget = 121, 121 + 3 + 4
	for _, cancellable := range []bool{false, true} {
		shallow, shallowLevels := measure(2000, cancellable)
		deep, deepLevels := measure(4000, cancellable)
		extra := deepLevels - shallowLevels
		if extra < 1900 {
			t.Fatalf("chains ran %d and %d levels; the deep one should run about 2000 more", shallowLevels, deepLevels)
		}
		t.Logf("cancellable %v: %.0f allocs over %d levels, %.0f over %d", cancellable, shallow, shallowLevels, deep, deepLevels)
		budget := levelAllocBudget
		if cancellable {
			budget = cancellableAllocBudget
		}
		if max(shallow, deep) > float64(budget) {
			t.Fatalf("cancellable %v: %.0f and %.0f allocs, over the budget of %d", cancellable, shallow, deep, budget)
		}
		if grown := deep - shallow; grown > 16 || grown/float64(extra) >= 0.25 {
			t.Fatalf("cancellable %v: allocations grow with depth: %.0f over %d levels vs %.0f over %d (%.3f per extra level)",
				cancellable, shallow, shallowLevels, deep, deepLevels, grown/float64(extra))
		}
	}
}

// beads builds a seeded a-graph whose Fig. 9 levels from node "s"
// alternate between one context and many: segments of 2 to 9 chain
// edges, each ending in a fan of 2 to 48 nodes that all lead into the
// next segment's head (a diamond). Back edges re-offer contexts the
// seen-set already holds. b holds exits — an item (i0, i1) for the
// permissions shape or a name — p every node's permission for i0 and
// some nodes' for i1, c (a guard) all but a few fan nodes, and d an
// answer behind each exit value. With labelled set a and b take a third
// column, as anchorsSrc reads them, and s has one edge out.
func beads(seed int64, labelled bool) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	nodes := 0
	fresh := func() string { nodes++; return "n" + strconv.Itoa(nodes) }
	var seen []string
	node := func(n string, fan bool) {
		seen = append(seen, n)
		if !fan || rng.Intn(10) != 0 {
			db.AddFact("c", n)
		}
		db.AddFact("p", n, "i0")
		if rng.Intn(3) != 0 {
			db.AddFact("p", n, "i1")
		}
		if rng.Intn(4) == 0 {
			exit := []string{"i0", "i1", "e" + strconv.Itoa(rng.Intn(5))}[rng.Intn(3)]
			if labelled {
				db.AddFact("b", n, exit, "r")
			} else {
				db.AddFact("b", n, exit)
			}
		}
	}
	edge := func(from, to string) {
		if labelled {
			db.AddFact("a", from, to, "q")
		} else {
			db.AddFact("a", from, to)
		}
	}
	for _, v := range []string{"i0", "i1", "e0", "e1", "e2", "e3", "e4"} {
		db.AddFact("d", v, "z"+v)
	}
	db.AddFact("p", "s", "i0")
	db.AddFact("p", "s", "i1")
	head := fresh()
	if labelled {
		db.AddFact("a", "s", head, "p0")
	} else {
		edge("s", head)
	}
	node(head, false)
	for seg := 0; seg < 12; seg++ {
		cur := head
		for i := 1 + rng.Intn(8); i > 0; i-- {
			n := fresh()
			edge(cur, n)
			node(n, false)
			cur = n
		}
		head = fresh()
		for k := 2 + rng.Intn(47); k > 0; k-- {
			m := fresh()
			edge(cur, m)
			edge(m, head)
			node(m, true)
			if rng.Intn(8) == 0 {
				edge(m, seen[rng.Intn(len(seen))])
			}
		}
		node(head, false)
	}
	return db
}

// errAfter is a context whose Done channel is closed from the start and
// whose Err turns non-nil on its call after the first `after`: it cuts an
// evaluation at a chosen cancellation poll.
type errAfter struct {
	context.Context
	after int
}

func (c *errAfter) Done() <-chan struct{} { return closedDone }

func (c *errAfter) Err() error {
	if c.after--; c.after < 0 {
		return context.Canceled
	}
	return nil
}

var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// TestLoneLevelsMatchWalk runs the level loop over graphs whose levels
// alternate between one context — which the worker probes straight
// through — and many, which it stages: a unary carry, the permissions
// shape's binary carry, a folded anchor, a guard atom behind f's first and
// a two-atom g. Run to its end, each gives naive evaluation's answers. Cut
// short — by a context at each of its first 41 Err calls, and by gas
// budgets — each stops at the poll it should, keeps only answers naive
// evaluation has, and adds to Database.Stats exactly what the same cut
// counts with every probe counted as it happens, no tally between. Where
// f and g are one atom each, that is one probe a context expanded and one
// a context joined: IndexLookups = the seed's probe + Σ expanded contexts
// + GProbes (which counts depth 0's probe with the joined contexts').
func TestLoneLevelsMatchWalk(t *testing.T) {
	const (
		permSrc = `
			t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
			t(X, Y) :- b(X, Y).
		`
		guardSrc = `
			t(X, Y) :- a(X, Z), c(Z), t(Z, Y).
			t(X, Y) :- b(X, Y).
		`
		twoExitSrc = `
			t(X, Y) :- a(X, Z), t(Z, Y).
			t(X, Y) :- b(X, W), d(W, Y).
		`
	)
	shapes := []struct {
		name, src, query string
		labelled         bool
		carry            int
		// oneAtom: f and g are one probe a context.
		oneAtom bool
	}{
		{"unary", tcSrc, "t(s, Y)", false, 1, true},
		{"binary", permSrc, "t(s, Y)", false, 2, false},
		{"anchored", anchorsSrc, "t(s, Y, P)", true, 2, true},
		{"second-atom-f", guardSrc, "t(s, Y)", false, 1, false},
		{"two-atom-g", twoExitSrc, "t(s, Y)", false, 1, false},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(sh.name+"/seed="+strconv.Itoa(int(seed)), func(t *testing.T) {
				db := beads(seed, sh.labelled)
				d, q := mustDef(t, sh.src, "t"), parser.MustParseAtom(sh.query)
				plan, err := CompileSelection(d, q)
				if err != nil || plan.Mode != ModeContext || plan.CarryArity != sh.carry {
					t.Fatalf("plan %v, err %v; want a context-mode plan carrying %d", plan, err, sh.carry)
				}
				want := naiveSelect(t, d.Program(), q, db)

				// cut runs the loop under ctx, its probes counted through
				// the run's tally or, live, straight into Database.Stats.
				// polls holds what the gas meter had been charged at each
				// level's poll, and widths each level's contexts.
				type cut struct {
					ce            *contextEval
					stats         EvalStats
					err           error
					counted       storage.Counters
					polls, widths []int
				}
				run := func(ctx context.Context, live bool) cut {
					var c cut
					c.ce = plan.newContextEval(db, nil)
					if live {
						var elsewhere storage.Counters
						c.ce.tally = elsewhere.Tally()
					}
					plan.TestIterHook = func(int) {
						ce := c.ce
						c.polls = append(c.polls, ce.claimed-ce.carry.n+ce.ans.Len())
						c.widths = append(c.widths, ce.carry.n)
					}
					defer func() { plan.TestIterHook = nil }()
					before := db.Stats.Snapshot()
					_, c.stats, c.err = c.ce.run(ctx)
					c.counted = db.Stats.Snapshot().Sub(before)
					return c
				}
				check := func(what string, c cut) {
					t.Helper()
					if !c.ce.ans.Equal(want) {
						for _, tup := range c.ce.ans.Tuples() {
							if !want.Contains(tup) {
								t.Fatalf("%s: answer %v naive evaluation lacks", what, AnswerStrings(tupleRel(tup), db.Syms))
							}
						}
					}
					if c.stats.Iterations != len(c.widths) {
						t.Fatalf("%s: %d levels, %d hook calls", what, c.stats.Iterations, len(c.widths))
					}
					if c.stats.SeenSize == 0 {
						return
					}
					if expanded := c.stats.SeenSize - c.ce.carry.n; sh.oneAtom && c.counted.IndexLookups != int64(1+expanded+c.stats.GProbes) {
						t.Fatalf("%s: %d lookups; one-atom f and g make 1 + %d expanded + %d g-probes", what, c.counted.IndexLookups, expanded, c.stats.GProbes)
					}
				}

				full := run(context.Background(), false)
				if full.err != nil || !full.ce.ans.Equal(want) {
					t.Fatalf("err %v; answers %v, naive evaluation's %v", full.err, AnswerStrings(full.ce.ans, db.Syms), AnswerStrings(want, db.Syms))
				}
				check("full run", full)
				lone, wide := 0, 0
				for _, n := range full.widths {
					switch {
					case n == 1:
						lone++
					case n > probeChunk:
						wide++
					}
				}
				if lone < 10 || wide < 2 {
					t.Fatalf("test premise: level widths %v", full.widths)
				}

				same := func(what string, c cut, ctx func() context.Context) {
					t.Helper()
					check(what, c)
					if live := run(ctx(), true); live.counted != c.counted || live.stats != c.stats {
						t.Fatalf("%s: Database.Stats moved by %+v, %+v counted live; stats %+v, %+v", what, c.counted, live.counted, c.stats, live.stats)
					}
				}
				// Err is asked once before the loop and once a level: the
				// k-th answer that is not nil cuts the loop after k-1 levels.
				for k := 0; k <= 40; k++ {
					ctx := func() context.Context { return &errAfter{Context: context.Background(), after: k} }
					c := run(ctx(), false)
					if !errors.Is(c.err, context.Canceled) || k > 0 && c.stats.Iterations != k-1 {
						t.Fatalf("cut at Err call %d: err %v after %d levels", k+1, c.err, c.stats.Iterations)
					}
					same("cut at Err call "+strconv.Itoa(k+1), c, ctx)
				}
				// The meter is charged at every level's poll with what was
				// claimed and answered since the last: the run stops at the
				// first poll that takes it past its budget.
				for _, budget := range []int64{1, 2, 7, 30, int64(full.stats.SeenSize) / 2, int64(full.stats.SeenSize)} {
					ctx := func() context.Context { return WithMeter(context.Background(), NewMeter(budget)) }
					c := run(ctx(), false)
					if !errors.Is(c.err, ErrGasExhausted) {
						t.Fatalf("budget %d: err %v", budget, c.err)
					}
					for i, charged := range c.polls {
						if int64(charged) > budget {
							t.Fatalf("budget %d: poll %d passed at %d charged", budget, i+1, charged)
						}
					}
					if charged := c.ce.claimed + c.ce.ans.Len(); int64(charged) <= budget {
						t.Fatalf("budget %d: cut at %d charged", budget, charged)
					}
					same("budget "+strconv.Itoa(int(budget)), c, ctx)
				}
			})
		}
	}
}

// TestLoneChainDetoursMatchWalk runs chains whose lone levels leave the
// one-value read mid-run — a key with two successors, a key whose rows
// are a run (one of them a back edge to a context already claimed), a
// tombstoned successor beside a live one, a wide level of probeChunk+1
// contexts whose trailing chunk is one — and end one of three ways: a lone
// row back to a claimed context, a lone row tombstoned, or a run of
// claimed contexts. The detours are made before the first probe, so that
// the bulk build lays them out, or after a first run, so that their rows
// are posted to a built directory. Each run gives naive evaluation's
// answers and counts what the staged walk counts: one probe per context
// expanded and per context joined, and every live row of it examined
// (from a plain-map model of the live edges). Cut at each of its first
// Err calls, it adds to Database.Stats exactly what the same cut counts
// live.
func TestLoneChainDetoursMatchWalk(t *testing.T) {
	const length = 80
	d, q := mustDef(t, tcSrc, "t"), parser.MustParseAtom("t(n0, Y)")
	plan, err := CompileSelection(d, q)
	if err != nil || plan.Mode != ModeContext || plan.CarryArity != 1 {
		t.Fatalf("plan %v, err %v; want a context-mode plan carrying 1", plan, err)
	}
	n := func(i int) string { return "n" + strconv.Itoa(i) }
	for _, tail := range []string{"lone back edge", "tombstoned lone row", "run of claimed"} {
		for _, posted := range []bool{false, true} {
			t.Run(tail+"/posted="+strconv.FormatBool(posted), func(t *testing.T) {
				db := storage.NewDatabase()
				// live models a's live edges and b's exit rows by source.
				live, exits := map[string][]string{}, map[string]int{}
				add := func(from, to string) {
					db.AddFact("a", from, to)
					live[from] = append(live[from], to)
				}
				remove := func(from, to string) {
					if !db.RemoveFact("a", from, to) {
						t.Fatalf("retraction of a(%s, %s) refused", from, to)
					}
					live[from] = slices.DeleteFunc(live[from], func(x string) bool { return x == to })
				}
				for i := 0; i < length-1; i++ {
					if i == 40 {
						// A wide level: n41 and sixteen others, all into n42.
						for j := range probeChunk {
							f := "f" + strconv.Itoa(j)
							add(n(40), f)
							add(f, n(42))
						}
					}
					add(n(i), n(i+1))
					if i%7 == 0 {
						db.AddFact("b", n(i), "e"+strconv.Itoa(i))
						exits[n(i)]++
					}
				}
				add(n(10), "m") // two successors, both into n12
				add("m", n(12))
				db.AddFact("b", "m", "em")
				exits["m"]++
				detours := func() {
					add(n(20), "x") // a run: n21's row and a dead one
					remove(n(20), "x")
					add(n(30), n(5)) // a run: n31 and a back edge
					remove(n(50), n(51))
					add(n(50), n(51)) // a dead row, and the same edge again
					switch tail {
					case "lone back edge":
						add(n(length-1), n(20))
					case "tombstoned lone row":
						add(n(length-1), "z")
						remove(n(length-1), "z")
					case "run of claimed":
						add(n(length-1), n(60))
						add(n(length-1), n(25))
					}
				}
				if !posted {
					detours()
				}

				type cut struct {
					ans     *storage.Relation
					stats   EvalStats
					err     error
					counted storage.Counters
					widths  []int
				}
				run := func(ctx context.Context, live bool) cut {
					var c cut
					ce := plan.newContextEval(db, nil)
					if live {
						var elsewhere storage.Counters
						ce.tally = elsewhere.Tally()
					}
					plan.TestIterHook = func(int) { c.widths = append(c.widths, ce.carry.n) }
					defer func() { plan.TestIterHook = nil }()
					before := db.Stats.Snapshot()
					_, c.stats, c.err = ce.run(ctx)
					c.ans, c.counted = ce.ans, db.Stats.Snapshot().Sub(before)
					return c
				}
				if posted {
					if c := run(context.Background(), false); c.err != nil {
						t.Fatal(c.err)
					}
					detours()
				}
				want := naiveSelect(t, d.Program(), q, db)

				// What the staged walk counts: every context reached from n0
				// is expanded and joined, as n0 is by the seed and depth 0.
				reach, queue := map[string]bool{}, []string{n(0)}
				for len(queue) > 0 {
					from := queue[0]
					queue = queue[1:]
					for _, to := range live[from] {
						if !reach[to] {
							reach[to] = true
							queue = append(queue, to)
						}
					}
				}
				examined := len(live[n(0)]) + exits[n(0)]
				for x := range reach {
					examined += len(live[x]) + exits[x]
				}
				wantCounted := storage.Counters{IndexLookups: int64(2 + 2*len(reach)), TuplesExamined: int64(examined)}

				full := run(context.Background(), false)
				if full.err != nil || !full.ans.Equal(want) {
					t.Fatalf("err %v; answers %v, naive evaluation's %v", full.err, AnswerStrings(full.ans, db.Syms), AnswerStrings(want, db.Syms))
				}
				got := storage.Counters{IndexLookups: full.counted.IndexLookups, TuplesExamined: full.counted.TuplesExamined}
				if full.stats.SeenSize != len(reach) || got != wantCounted || full.counted.FullScans != 0 {
					t.Fatalf("%d contexts, counted %+v; want %d contexts, %+v", full.stats.SeenSize, full.counted, len(reach), wantCounted)
				}
				lone, wide := 0, 0
				for _, w := range full.widths {
					switch {
					case w == 1:
						lone++
					case w == probeChunk+1:
						wide++
					}
				}
				if lone < length-10 || wide != 1 {
					t.Fatalf("test premise: level widths %v", full.widths)
				}
				for k := 0; k <= len(full.widths)+1; k++ {
					ctx := func() context.Context { return &errAfter{Context: context.Background(), after: k} }
					c, l := run(ctx(), false), run(ctx(), true)
					if !errors.Is(c.err, context.Canceled) && k <= len(full.widths) {
						t.Fatalf("cut at Err call %d: err %v", k+1, c.err)
					}
					for _, tup := range c.ans.Tuples() {
						if !want.Contains(tup) {
							t.Fatalf("cut at Err call %d: answer %v naive evaluation lacks", k+1, AnswerStrings(tupleRel(tup), db.Syms))
						}
					}
					if l.counted != c.counted || l.stats != c.stats {
						t.Fatalf("cut at Err call %d: Database.Stats moved by %+v, %+v counted live; stats %+v, %+v", k+1, c.counted, l.counted, c.stats, l.stats)
					}
				}
			})
		}
	}
}

// TestTrailingLoneChunkCountsToItsStop: the last chunk of a wide level
// can hold one context, which is probed alone, its rows yielded one at a
// time; when its first answer stops the run, only the rows read up to
// the stop are counted, not the rest of its run. s's successors are a
// level of probeChunk+1 contexts, and only the last has exit rows: one of
// them or thirty, a run stopped at its first answer counts the same.
func TestTrailingLoneChunkCountsToItsStop(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	plan, err := CompileSelection(d, parser.MustParseAtom("t(s, Y)"))
	if err != nil || plan.Mode != ModeContext {
		t.Fatalf("plan %v, err %v; want a context-mode plan", plan, err)
	}
	stopped := func(exits int) storage.Counters {
		db := storage.NewDatabase()
		last := "m" + strconv.Itoa(probeChunk)
		for i := 0; i <= probeChunk; i++ {
			db.AddFact("a", "s", "m"+strconv.Itoa(i))
		}
		for i := 0; i < exits; i++ {
			db.AddFact("b", last, "y"+strconv.Itoa(i))
		}
		ce := plan.newContextEval(db, func(storage.Tuple) bool { return false })
		before := db.Stats.Snapshot()
		if _, _, err := ce.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ce.carry.n != probeChunk+1 || ce.ans.Len() != 1 {
			t.Fatalf("test premise: stopped at a level of %d contexts, %d answers", ce.carry.n, ce.ans.Len())
		}
		return db.Stats.Snapshot().Sub(before)
	}
	if one, thirty := stopped(1), stopped(30); one != thirty {
		t.Fatalf("stopped at the first answer: %+v counted with one exit row, %+v with thirty", one, thirty)
	}
}
