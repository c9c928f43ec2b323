// Appendix A: the undecidability reduction of Theorem 3.2, executed. From
// a linear program P defining a binary predicate p, the construction
// builds Q defining a ternary q such that Q is equivalent to a one-sided
// recursion iff P is bounded. This example runs the construction both
// ways: on a bounded P (where the equivalent nonrecursive P' yields a
// one-sided Q') and shows the Lemma A.1 invariant — the projection of q
// onto its first two columns is exactly p — holding on data, evaluating
// both programs through Engines sharing one database.
package main

import (
	"context"
	"fmt"
	"log"

	onesided "repro"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

func main() {
	// Example A.1's P: bounded (the c(X1) condition is idempotent).
	p, err := onesided.ParseProgram(`
		p(X1, X2) :- c(X1), p(X1, X2).
		p(X1, X2) :- c(X1), p0(X1, X2).
	`)
	if err != nil {
		log.Fatal(err)
	}
	q, err := rewrite.AppendixA(p, "p", "q", "bq", "eq")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("P:")
	fmt.Println(indent(p.String()))
	fmt.Println("Q (the Theorem 3.2 construction):")
	fmt.Println(indent(q.String()))

	// Lemma A.1 on data: with bq nonempty, pi_{1,2}(q) == p. One database,
	// two engines (one per program), both on the materializing strategy.
	db := onesided.NewDatabase()
	db.AddFact("c", "u")
	db.AddFact("c", "w")
	db.AddFact("p0", "u", "v1")
	db.AddFact("p0", "w", "v2")
	db.AddFact("bq", "k0")
	db.AddFact("eq", "k0", "k1")
	db.AddFact("eq", "k1", "k2")

	ctx := context.Background()
	query := func(prog *onesided.Program, qs string) *onesided.Rows {
		eng, err := onesided.Open(onesided.WithDatabase(db),
			onesided.WithProgram(prog.Clone()),
			onesided.WithStrategies("seminaive"))
		if err != nil {
			log.Fatal(err)
		}
		rows, err := eng.Query(ctx, qs)
		if err != nil {
			log.Fatal(err)
		}
		return rows
	}
	pRows := query(p, "p(X1, X2)")
	qRows := query(q, "q(X1, X2, X3)")

	proj := storage.NewRelation(2, nil)
	for row := range qRows.All() {
		t := row.Tuple()
		proj.Insert(storage.Tuple{t[0], t[1]})
	}
	fmt.Printf("Lemma A.1 check: pi_12(q) == p ? %v\n", proj.Equal(pRows.Relation()))
	fmt.Println("q relation:")
	for _, row := range qRows.Strings() {
		fmt.Println("  ", row)
	}

	// P is bounded; its nonrecursive equivalent P' yields a one-sided Q'
	// (Example A.3) — the positive direction of the reduction.
	pPrime, err := onesided.ParseProgram(`
		p(X1, X2) :- c(X1), p0(X1, X2).
	`)
	if err != nil {
		log.Fatal(err)
	}
	qPrime, err := rewrite.AppendixA(pPrime, "p", "q", "bq", "eq")
	if err != nil {
		log.Fatal(err)
	}
	def, err := ast.ExtractDefinition(qPrime, "q")
	if err != nil {
		log.Fatal(err)
	}
	cls, err := analysis.Classify(def)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nQ' built from the bounded P's nonrecursive equivalent:")
	fmt.Println(indent(qPrime.String()))
	fmt.Println("classification:", cls.Summary())
	fmt.Println("\nTheorem 3.2: deciding one-sided-equivalence in general would")
	fmt.Println("decide boundedness of linear programs, which is undecidable [Var88].")
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			out += "  " + s[start:i] + "\n"
			start = i + 1
		}
	}
	return out[:len(out)-1]
}
