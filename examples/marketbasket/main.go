// Market basket: the paper's buys/likes/cheap recursion (Section 3). As
// written it is two-sided — the recursive rule re-derives cheap(Y) at
// every level — but the [Nau89b] optimization step removes the
// recursively redundant atom and the result is one-sided, unlocking the
// Fig. 9 evaluation schema. The Engine's planner runs this
// optimize-then-detect pipeline automatically: Explain reports the
// verdict "one-sided after optimization".
package main

import (
	"context"
	"fmt"
	"log"

	onesided "repro"
	"repro/internal/analysis"
	"repro/internal/datagen"
	"repro/internal/parser"
	"repro/internal/rewrite"
)

const buysRules = `
	buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
	buys(X, Y) :- likes(X, Y), cheap(Y).
`

func main() {
	// The decision procedure, shown explicitly first.
	def, err := parser.ParseDefinition(buysRules, "buys")
	if err != nil {
		log.Fatal(err)
	}
	before, err := analysis.Classify(def)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("before optimization:", before.Summary())
	dec, err := rewrite.DecideOneSided(def)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision: %v\n", dec.Verdict)
	for _, rm := range dec.Removed {
		fmt.Printf("removed recursively redundant atom: %v\n", rm)
	}
	fmt.Printf("optimized recursive rule: %v\n\n", dec.Optimized.Recursive)

	// 200 people in 40 clusters who know each other in chains; everyone at
	// a chain end likes some item; half the items are cheap. Person p7_5
	// (the end of p7_0's chain) definitely likes a cheap item.
	db := datagen.Market(40, 5, 20, 3)
	db.AddFact("likes", "p7_5", "item2")

	// The Engine runs the same pipeline inside Prepare: the planner
	// optimizes, detects, and compiles the Fig. 9 plan.
	eng, err := onesided.Open(onesided.WithDatabase(db))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Load(buysRules); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	rows, err := eng.Query(ctx, "buys(p7_0, Y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("?- buys(p7_0, Y).  [%s]\n", rows.Explain())
	for row := range rows.Sorted() {
		fmt.Println("  ", row)
	}
	c := rows.Counters()
	fmt.Printf("   examined=%d full-scans=%d seen=%d\n",
		c.TuplesExamined, c.FullScans, rows.Stats().SeenSize)

	// Sanity: magic sets on the ORIGINAL two-sided rule gives the same
	// answers.
	magicEng, err := onesided.Open(onesided.WithDatabase(db),
		onesided.WithStrategies("magic"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := magicEng.Load(buysRules); err != nil {
		log.Fatal(err)
	}
	check, err := magicEng.Query(ctx, "buys(p7_0, Y)")
	if err != nil {
		log.Fatal(err)
	}
	if !check.Relation().Equal(rows.Relation()) {
		log.Fatal("optimization changed the answers!")
	}
	fmt.Printf("   magic sets on the ORIGINAL rule agrees (examined=%d)\n",
		check.Counters().TuplesExamined)
}
