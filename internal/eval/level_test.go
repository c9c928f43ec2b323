package eval

import (
	"context"
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
// carry arena instead of building them.
func TestLevelLoopAllocationBudget(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	measure := func(edges int) (allocs float64, levels int) {
		w := datagen.ChainTC(edges)
		plan, err := CompileSelection(d, ast.Atom{Pred: "t", Args: []ast.Term{ast.C(w.Start), ast.V("Y")}})
		if err != nil {
			t.Fatal(err)
		}
		var stats EvalStats
		allocs = testing.AllocsPerRun(5, func() {
			ans, st, err := plan.Eval(w.DB)
			if err != nil || ans.Len() != 1 {
				t.Fatalf("chain of %d: %d answers, err %v", edges, ans.Len(), err)
			}
			stats = st
		})
		return allocs, stats.Iterations
	}
	shallow, shallowLevels := measure(2000)
	deep, deepLevels := measure(4000)
	extra := deepLevels - shallowLevels
	if extra < 1900 {
		t.Fatalf("chains ran %d and %d levels; the deep one should run about 2000 more", shallowLevels, deepLevels)
	}
	t.Logf("%.0f allocs over %d levels, %.0f over %d", shallow, shallowLevels, deep, deepLevels)
	if grown := deep - shallow; grown > 16 || grown/float64(extra) >= 0.25 {
		t.Fatalf("allocations grow with depth: %.0f over %d levels vs %.0f over %d (%.3f per extra level)",
			shallow, shallowLevels, deep, deepLevels, grown/float64(extra))
	}
}
