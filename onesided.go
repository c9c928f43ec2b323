package onesided

import (
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/avgraph"
	"repro/internal/eval"
	"repro/internal/expand"
	"repro/internal/multi"
	"repro/internal/parser"
	"repro/internal/proof"
	"repro/internal/rewrite"
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
	// Definition is a recursion: one linear recursive rule plus one exit
	// rule (the paper's Section 2 class).
	Definition = ast.Definition
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

// Analysis types.
type (
	// Classification is the full A/V-graph analysis report.
	Classification = analysis.Classification
	// Decision is the outcome of the Theorem 3.4 procedure.
	Decision = rewrite.Decision
	// Verdict enumerates Decision outcomes.
	Verdict = rewrite.Verdict
)

// Verdict values.
const (
	VerdictUnknown     = rewrite.VerdictUnknown
	VerdictOneSided    = rewrite.VerdictOneSided
	VerdictConverted   = rewrite.VerdictConverted
	VerdictBounded     = rewrite.VerdictBounded
	VerdictNotOneSided = rewrite.VerdictNotOneSided
)

// Evaluation types.
type (
	// Plan is a compiled selection (an instantiation of the Fig. 9 schema).
	Plan = eval.Plan
	// EvalStats reports iterations and state size of a plan evaluation.
	EvalStats = eval.EvalStats
	// ErrUnsupported marks selections outside the compiled class; the
	// Engine's strategy chain falls back to Magic Sets for them.
	ErrUnsupported = eval.ErrUnsupported
)

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

// ParseDefinition parses a two-rule recursion for pred.
func ParseDefinition(src, pred string) (*Definition, error) {
	return parser.ParseDefinition(src, pred)
}

// ExtractDefinition locates the recursion for pred inside a parsed program.
func ExtractDefinition(p *Program, pred string) (*Definition, error) {
	return ast.ExtractDefinition(p, pred)
}

// ParseQuery parses a single query atom such as "t(paris, Y)".
func ParseQuery(src string) (Atom, error) { return parser.ParseAtom(src) }

// NewDatabase creates an empty database.
func NewDatabase() *Database { return storage.NewDatabase() }

// LoadFacts moves the ground facts of a program into db, returning the
// remaining rules.
func LoadFacts(p *Program, db *Database) *Program {
	return eval.SplitFacts(p, func(pred string, consts []string) { db.AddFact(pred, consts...) })
}

// Classify runs the full A/V-graph analysis (Theorems 3.1 and 3.3).
func Classify(d *Definition) (*Classification, error) { return analysis.Classify(d) }

// Decide runs the paper's complete optimize-then-detect procedure.
func Decide(d *Definition) (*Decision, error) { return rewrite.DecideOneSided(d) }

// CompileSelection compiles a "column = constant" selection on the
// recursion into a Fig. 9 plan.
func CompileSelection(d *Definition, query Atom) (*Plan, error) {
	return eval.CompileSelection(d, query)
}

// Answers renders an answer relation as sorted comma-separated rows.
func Answers(rel *Relation, db *Database) []string { return eval.AnswerStrings(rel, db.Syms) }

// AVGraph renders the A/V graph of the recursive rule (paper Fig. 2 style).
func AVGraph(d *Definition) string { return avgraph.New(d).Render() }

// FullAVGraph renders the full A/V graph (paper Figs. 3–6 style).
func FullAVGraph(d *Definition) string { return avgraph.NewFull(d).Render() }

// FullAVGraphDOT renders the full A/V graph in Graphviz DOT format.
func FullAVGraphDOT(d *Definition) string {
	return avgraph.NewFull(d).DOT(d.Pred())
}

// ExpandStrings returns renderings of the first k+1 expansion strings
// (Procedure Expand, Fig. 1).
func ExpandStrings(d *Definition, k int) []string {
	ss := expand.Expand(d, k)
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.String()
	}
	return out
}

// BoundednessLevel searches for the smallest depth at which the
// definition's expansion collapses (uniform boundedness certificate via
// conjunctive-query containment). Returns the level and true, or false
// when no bound is found within maxK.
func BoundednessLevel(d *Definition, maxK int) (int, bool) {
	return analysis.BoundednessLevel(d, maxK)
}

// Proofs (the Section 4 lemmas made executable).
type (
	// Proof is a materialized derivation of a tuple; Minimize applies the
	// Lemma 4.1 splicing argument.
	Proof = proof.Proof
)

// FindProof searches for a derivation of the ground tuple (constant
// names) over the database, or nil.
func FindProof(d *Definition, db *Database, tuple []string) *Proof {
	return proof.Find(d, db, tuple)
}

// Multi-rule recursions (the Section 5 extension).
type (
	// MultiDefinition is a recursion with several linear recursive rules.
	MultiDefinition = multi.Definition
	// MultiClassification reports per-rule and combination analyses.
	MultiClassification = multi.Classification
)

// ExtractMulti locates a multi-rule recursion for pred in a program.
func ExtractMulti(p *Program, pred string) (*MultiDefinition, error) {
	return multi.Extract(p, pred)
}

// ClassifyMulti analyses each rule and their combination (union A/V
// graph).
func ClassifyMulti(d *MultiDefinition) (*MultiClassification, error) {
	return multi.Classify(d)
}
