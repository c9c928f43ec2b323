package onesided

import (
	"testing"

	"repro/internal/eval"
)

// loadFacts adds the program's ground facts to db and returns its rules.
func loadFacts(p *Program, db *Database) *Program {
	return eval.SplitFacts(p, func(pred string, consts []string) { db.AddFact(pred, consts...) })
}

// TestDumpRoundTripExamples is the parse(Dump()) property over the five
// example workloads: the dump must re-parse, reload into an identical
// fact set, and — because Dump orders lines by rendered text, not by
// interned Values — re-dump to identical bytes.
func TestDumpRoundTripExamples(t *testing.T) {
	for _, ex := range bindExamples() {
		t.Run(ex.name, func(t *testing.T) {
			eng := ex.open(t)
			dump := eng.DB().Dump()
			if dump == "" {
				t.Fatal("example has no facts")
			}
			prog, queries, err := ParseSource(dump)
			if err != nil {
				t.Fatalf("Dump is not parseable: %v\n%s", err, dump)
			}
			if len(queries) != 0 {
				t.Fatalf("Dump emitted queries: %v", queries)
			}
			db2 := NewDatabase()
			rest := loadFacts(prog, db2)
			if len(rest.Rules) != 0 {
				t.Fatalf("Dump emitted non-fact rules: %v", rest.Rules)
			}
			if got := db2.Dump(); got != dump {
				t.Fatalf("round trip changed the dump:\n--- first\n%s--- second\n%s", dump, got)
			}
		})
	}
}

// TestDumpRoundTripHostileNames stresses the quoting path: names the
// lexer cannot read bare, the '#N' rendering of an unknown Value, and an
// arity-0 fact.
func TestDumpRoundTripHostileNames(t *testing.T) {
	db := NewDatabase()
	db.AddFact("city", "New York", "usa")
	db.AddFact("city", "Paris", "france") // capitalized: would lex as a variable
	db.AddFact("odd", "it's", "#3")       // embedded quote; a name that looks like an unknown-Value rendering
	db.AddFact("odd", "", "0sector")      // empty name needs quotes; digit-leading is bare
	db.AddFact("flag")                    // arity-0 must dump as "flag.", not "flag()."
	db.AddFact("Weird Pred", "x")         // predicate itself needs quoting

	dump := db.Dump()
	prog, _, err := ParseSource(dump)
	if err != nil {
		t.Fatalf("hostile dump is not parseable: %v\n%s", err, dump)
	}
	db2 := NewDatabase()
	loadFacts(prog, db2)
	if got := db2.Dump(); got != dump {
		t.Fatalf("hostile round trip changed the dump:\n--- first\n%s--- second\n%s", dump, got)
	}
	if db2.TupleCount() != db.TupleCount() {
		t.Fatalf("tuple count %d -> %d", db.TupleCount(), db2.TupleCount())
	}
}
