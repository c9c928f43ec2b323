// Quickstart: open an Engine, load the canonical one-sided recursion,
// and let the planner pick the Fig. 9 schema — then print the engine's
// own analysis of the recursion (Engine.Analyze: the Theorem 3.1/3.4
// verdicts and the plan per adornment) and the constructions under it
// (full A/V graph, expansion).
package main

import (
	"context"
	"fmt"
	"log"

	onesided "repro"
	"repro/internal/ast"
	"repro/internal/avgraph"
	"repro/internal/expand"
)

func main() {
	// The paper's Example 2.1: transitive closure, the canonical one-sided
	// recursion, with a small flight network.
	eng, err := onesided.Open()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(paris, lyon). a(lyon, marseille). a(marseille, toulon).
		b(toulon, nice). b(lyon, grenoble).
	`); err != nil {
		log.Fatal(err)
	}

	// The engine plans each selection with the Theorem 3.4 procedure and
	// streams the answers.
	ctx := context.Background()
	for _, qs := range []string{"t(paris, Y)", "t(X, nice)"} {
		rows, err := eng.Query(ctx, qs)
		if err != nil {
			log.Fatal(err)
		}
		st := rows.Stats()
		fmt.Printf("?- %s.   [%s, %d iterations]\n", qs, rows.Explain(), st.Iterations)
		for row := range rows.Sorted() {
			fmt.Println("  ", row)
		}
	}
	fmt.Println()

	// Under the hood: the analysis the planner ran, and the plan it picks
	// for each adornment of t.
	an, err := eng.Analyze("t")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(an)
	fmt.Println()

	// The full A/V graph (Figs. 3–6) of the recursive rule.
	def, err := ast.ExtractDefinition(eng.Program(), "t")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(avgraph.NewFull(def).Render())
	fmt.Println()

	// The expansion (Fig. 1 / Example 2.2).
	for i, s := range expand.Expand(def, 3) {
		fmt.Printf("s%d: %v\n", i, s)
	}
}
