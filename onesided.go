package onesided

import (
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

// Core syntax types.
type (
	// Term is a variable or constant.
	Term = ast.Term
	// Atom is a predicate applied to terms.
	Atom = ast.Atom
	// Rule is a Horn clause.
	Rule = ast.Rule
	// Program is a list of rules and facts.
	Program = ast.Program
	// Adornment is a query's bound/free pattern (e.g. "bf" for
	// t(paris, Y)) — the key the Engine's plan cache compiles skeletons
	// under: queries of one adornment share one compiled plan with
	// late-bound constants.
	Adornment = ast.Adornment
)

// QueryShape returns the canonical shape of a query — the plan-cache key
// rendered for humans, e.g. "t($0, V0)" for t(paris, Y). Queries with
// equal shapes share one compiled plan skeleton (PreparedQuery.BindAtom
// rebinds across them); shapes differ when the predicate, the
// adornment, or the variable-repetition pattern differs.
func QueryShape(q Atom) string {
	return displayShape(ast.Skeletonize(q).Key())
}

// Storage types.
type (
	// Database is a named collection of relations with instrumentation.
	Database = storage.Database
	// Relation is a set of fixed-arity tuples.
	Relation = storage.Relation
	// Counters instruments relation access (Property 3 measurements).
	Counters = storage.Counters
	// Tuple is a fixed-arity row of interned values.
	Tuple = storage.Tuple
	// Value is an interned constant symbol.
	Value = storage.Value
)

// EvalStats reports iterations and state size of an evaluation.
type EvalStats = eval.EvalStats

// ParseProgram parses rules and facts in Prolog syntax.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseSource parses a source text that may also contain `?- q(...)`
// queries, returning the program and the queries.
func ParseSource(src string) (*Program, []Atom, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return res.Program, res.Queries, nil
}

// ParseQuery parses a single query atom such as "t(paris, Y)".
func ParseQuery(src string) (Atom, error) { return parser.ParseAtom(src) }

// NewDatabase creates an empty database.
func NewDatabase() *Database { return storage.NewDatabase() }
