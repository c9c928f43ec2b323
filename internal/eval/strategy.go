package eval

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Strategy names, used by the Engine's registry and Explain reports.
const (
	StrategyOneSided  = "onesided"
	StrategyCounting  = "counting"
	StrategyMagic     = "magic"
	StrategySemiNaive = "seminaive"
	StrategyNaive     = "naive"
	StrategyEDB       = "edb"
)

// AdornedQuery is the planning input: a query atom together with its
// binding pattern. Atom may be a ground query (real constants at bound
// columns) or — the shape-sharing path — a plan skeleton produced by
// ast.Skeletonize, with ast.SlotConst placeholders at bound columns.
// Every analysis a strategy performs depends only on the adornment, so
// a skeleton plan compiled once serves every ground query of that shape
// via BindArgs.
type AdornedQuery struct {
	Atom      ast.Atom
	Adornment ast.Adornment
}

// AdornQuery wraps a query atom (ground or skeleton) with its adornment.
func AdornQuery(q ast.Atom) AdornedQuery {
	return AdornedQuery{Atom: q, Adornment: ast.AdornmentOf(q)}
}

// Strategy is an evaluation method that can plan a query against a
// program. Prepare runs the strategy's analysis once (for the one-sided
// strategy that is the paper's optimize-then-detect procedure, Theorem
// 3.4) and returns a reusable prepared plan, or an error explaining why
// the strategy does not apply — the Engine tries the next strategy in its
// registry. Strategies must be stateless and safe for concurrent use.
type Strategy interface {
	Name() string
	Prepare(p *ast.Program, query AdornedQuery) (PreparedStrategy, error)
}

// PreparedStrategy is a query plan produced by a Strategy. Eval may be
// called many times and concurrently against the same database; the plan
// holds no per-evaluation state.
//
// A plan prepared from a skeleton query is parameterized: its constant
// positions hold ast.SlotConst placeholders and it must not be evaluated
// directly. BindArgs instantiates the slot table — one constant per slot,
// in slot order — returning an evaluable plan; binding is a shallow
// structural substitution, orders of magnitude cheaper than Prepare's
// analysis. A plan prepared from a ground query has zero slots and
// BindArgs() with no arguments returns it unchanged.
type PreparedStrategy interface {
	Explain() StrategyExplain
	Eval(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error)
	BindArgs(consts ...ast.Term) (PreparedStrategy, error)
}

// errUnboundSkeleton rejects evaluation of a plan whose query still
// holds slot placeholders: the skeleton is a template, not a plan.
func errUnboundSkeleton(query ast.Atom) error {
	return fmt.Errorf("eval: plan for %v is a skeleton with %d unbound slots; call BindArgs first",
		query, query.SlotCount())
}

// StreamingPrepared is implemented by prepared plans that can emit
// answers incrementally, before their fixpoint completes. EvalStream
// behaves like Eval but additionally calls emit once per distinct answer
// tuple as soon as it is derived; see Plan.EvalStreamCtx for the emit
// contract. Prepared plans without this interface are evaluated fully
// and their answers streamed afterwards.
type StreamingPrepared interface {
	PreparedStrategy
	EvalStream(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (*storage.Relation, EvalStats, error)
}

// StrategyExplain reports what a prepared plan will do: which strategy
// planned it, the Theorem 3.4 verdict when the planner ran it, the Fig. 9
// mode, carry arity, and parallel worker bound for one-sided plans, and a
// free-form detail line.
type StrategyExplain struct {
	Strategy string
	// Adornment is the query's bound/free pattern — the key the plan
	// skeleton was compiled under (empty for plans prepared before the
	// adornment threading, e.g. hand-built ones).
	Adornment  string
	Verdict    string
	Mode       string
	CarryArity int
	// Workers is the parallel-worker bound the plan will evaluate with
	// (0 when the strategy does not parallelize).
	Workers int
	Detail  string
}

func (e StrategyExplain) String() string {
	s := e.Strategy
	if e.Adornment != "" {
		s += " adornment=" + e.Adornment
	}
	if e.Mode != "" {
		s += " mode=" + e.Mode
	}
	if e.Verdict != "" {
		s += " verdict=" + fmt.Sprintf("%q", e.Verdict)
	}
	if e.Workers > 0 {
		s += fmt.Sprintf(" workers=%d", e.Workers)
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// ---------------------------------------------------------------------------
// One-sided strategy: the paper's planner.

type oneSidedStrategy struct{ workers int }

// OneSided returns the strategy that runs the Theorem 3.4
// optimize-then-detect procedure and, when it concludes the recursion is
// (convertible to) one-sided, compiles the selection into a Fig. 9 plan.
// Evaluation splits each carry batch across GOMAXPROCS workers; use
// OneSidedWorkers to fix the worker count.
func OneSided() Strategy { return oneSidedStrategy{} }

// OneSidedWorkers is OneSided with the parallel worker count pinned to
// workers (<= 0 keeps the GOMAXPROCS default).
func OneSidedWorkers(workers int) Strategy {
	if workers < 0 {
		workers = 0
	}
	return oneSidedStrategy{workers: workers}
}

func (oneSidedStrategy) Name() string { return StrategyOneSided }

func (s oneSidedStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	dec, err := decideForQuery(p, q.Atom)
	if err != nil {
		return nil, err
	}
	plan, err := CompileSelection(dec.Optimized, q.Atom)
	if err != nil {
		return nil, err
	}
	plan.Workers = s.workers
	return &oneSidedPrepared{plan: plan, verdict: dec.Verdict.String(), adornment: q.Adornment}, nil
}

// decideForQuery extracts the two-rule recursion for the query predicate,
// checks that the Fig. 9 schema's EDB assumption holds (no body atom of
// the definition is derived by other rules of the program), and runs the
// Theorem 3.4 decision procedure.
func decideForQuery(p *ast.Program, query ast.Atom) (*rewrite.Decision, error) {
	def, err := ast.ExtractDefinition(p, query.Pred)
	if err != nil {
		return nil, err
	}
	idb := p.IDBPreds()
	for _, r := range []ast.Rule{def.Recursive, def.Exit} {
		for _, a := range r.Body {
			if a.Pred != query.Pred && idb[a.Pred] {
				return nil, fmt.Errorf("body atom %s is derived by other rules; the Fig. 9 schema needs base relations", a.Pred)
			}
		}
	}
	dec, err := rewrite.DecideOneSided(def)
	if err != nil {
		return nil, err
	}
	switch dec.Verdict {
	case rewrite.VerdictOneSided, rewrite.VerdictConverted, rewrite.VerdictBounded:
		return dec, nil
	default:
		return nil, fmt.Errorf("decision procedure: %s", dec.Verdict)
	}
}

type oneSidedPrepared struct {
	plan      *Plan
	verdict   string
	adornment ast.Adornment
}

func (o *oneSidedPrepared) Explain() StrategyExplain {
	return StrategyExplain{
		Strategy:   StrategyOneSided,
		Adornment:  o.adornment.String(),
		Verdict:    o.verdict,
		Mode:       o.plan.Mode.String(),
		CarryArity: o.plan.CarryArity,
		Workers:    o.plan.effectiveWorkers(),
	}
}

func (o *oneSidedPrepared) Eval(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	return o.plan.EvalCtx(ctx, edb)
}

// EvalStream implements StreamingPrepared: context-mode plans emit
// answers per carry batch while the Fig. 9 loop is still running.
func (o *oneSidedPrepared) EvalStream(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (*storage.Relation, EvalStats, error) {
	return o.plan.EvalStreamCtx(ctx, edb, emit)
}

// ---------------------------------------------------------------------------
// Counting strategy: the Fig. 9 plan evaluated with the Counting method's
// per-level state discipline. Applies only to context-mode plans and
// diverges on cyclic data, so it is not in the default auto-selection
// chain; callers opt in by name.

type countingStrategy struct{ maxDepth int }

// Counting returns the Counting-method strategy bounded at maxDepth
// derivation levels (<= 0 selects a default of 1024).
func Counting(maxDepth int) Strategy {
	if maxDepth <= 0 {
		maxDepth = 1024
	}
	return countingStrategy{maxDepth: maxDepth}
}

func (countingStrategy) Name() string { return StrategyCounting }

func (c countingStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	dec, err := decideForQuery(p, q.Atom)
	if err != nil {
		return nil, err
	}
	plan, err := CompileSelection(dec.Optimized, q.Atom)
	if err != nil {
		return nil, err
	}
	if plan.Mode != ModeContext {
		return nil, fmt.Errorf("counting needs a context-mode plan (have %v)", plan.Mode)
	}
	return &countingPrepared{plan: plan, verdict: dec.Verdict.String(), adornment: q.Adornment, maxDepth: c.maxDepth}, nil
}

type countingPrepared struct {
	plan      *Plan
	verdict   string
	adornment ast.Adornment
	maxDepth  int
}

func (c *countingPrepared) Explain() StrategyExplain {
	return StrategyExplain{
		Strategy:   StrategyCounting,
		Adornment:  c.adornment.String(),
		Verdict:    c.verdict,
		Mode:       c.plan.Mode.String(),
		CarryArity: c.plan.CarryArity,
		Detail:     fmt.Sprintf("max depth %d", c.maxDepth),
	}
}

func (c *countingPrepared) Eval(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	if c.plan.NSlots > 0 {
		return nil, EvalStats{}, errUnboundSkeleton(c.plan.Query)
	}
	return c.plan.EvalCountingCtx(ctx, edb, c.maxDepth)
}

// ---------------------------------------------------------------------------
// Magic Sets strategy: the general-purpose fallback. The rewriting runs
// once at Prepare; evaluation is semi-naive over the transformed program.

type magicStrategy struct{}

// Magic returns the Magic Sets strategy.
func Magic() Strategy { return magicStrategy{} }

func (magicStrategy) Name() string { return StrategyMagic }

func (magicStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	mr, err := MagicTransform(p, q.Atom)
	if err != nil {
		return nil, err
	}
	return &magicPrepared{mr: mr, adornment: q.Adornment}, nil
}

type magicPrepared struct {
	mr        *MagicResult
	adornment ast.Adornment
}

func (m *magicPrepared) Explain() StrategyExplain {
	return StrategyExplain{
		Strategy:  StrategyMagic,
		Adornment: m.adornment.String(),
		Detail:    fmt.Sprintf("answer predicate %s, %d rewritten rules", m.mr.AnswerPred, len(m.mr.Program.Rules)),
	}
}

func (m *magicPrepared) Eval(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	if m.mr.Query.HasSlots() {
		return nil, EvalStats{}, errUnboundSkeleton(m.mr.Query)
	}
	return evalAndDrop(m.EvalIncremental(ctx, edb))
}

// evalAndDrop is a cold evaluation through a retained builder: keep the
// answers and the statistics, drop the fixpoint state.
func evalAndDrop(inc *Incremental, err error) (*storage.Relation, EvalStats, error) {
	if err != nil {
		return nil, EvalStats{}, err
	}
	return inc.Answers(), inc.Stats(), nil
}

// ---------------------------------------------------------------------------
// Semi-naive and naive strategies: full materialization plus selection.

type bottomUpStrategy struct{ name string }

// SemiNaiveStrategy returns materialize-with-semi-naive-then-select.
func SemiNaiveStrategy() Strategy { return bottomUpStrategy{name: StrategySemiNaive} }

// NaiveStrategy returns materialize-with-naive-then-select.
func NaiveStrategy() Strategy { return bottomUpStrategy{name: StrategyNaive} }

func (s bottomUpStrategy) Name() string { return s.name }

func (s bottomUpStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	if !headPreds(p)[q.Atom.Pred] {
		return nil, fmt.Errorf("predicate %s is not defined by the program", q.Atom.Pred)
	}
	return &bottomUpPrepared{strategy: s, program: p, query: q.Atom.Clone(), adornment: q.Adornment}, nil
}

type bottomUpPrepared struct {
	strategy  bottomUpStrategy
	program   *ast.Program
	query     ast.Atom
	adornment ast.Adornment
}

func (b *bottomUpPrepared) Explain() StrategyExplain {
	return StrategyExplain{
		Strategy:  b.strategy.name,
		Adornment: b.adornment.String(),
		Detail:    "full materialization then selection",
	}
}

func (b *bottomUpPrepared) Eval(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	if b.query.HasSlots() {
		return nil, EvalStats{}, errUnboundSkeleton(b.query)
	}
	if b.Incremental() {
		return evalAndDrop(b.EvalIncremental(ctx, edb))
	}
	res, err := NaiveCtx(ctx, b.program, edb)
	if err != nil {
		return nil, EvalStats{}, err
	}
	ans := storage.NewRelation(b.query.Arity(), &edb.Stats)
	if rel := res.IDB.Relation(b.query.Pred); rel != nil {
		sel := selectBy(b.query, edb.Syms)
		for _, t := range rel.Tuples() {
			if _, ok := sel(t); ok {
				ans.Insert(t)
			}
		}
	}
	return ans, EvalStats{Iterations: res.Rounds, SeenSize: res.IDB.TupleCount()}, nil
}

// ---------------------------------------------------------------------------
// EDB strategy: a plain indexed lookup for predicates the program does not
// derive. It makes Engine.Query total over the database — base relations
// answer without any rule machinery.

type edbStrategy struct{}

// EDBLookup returns the base-relation lookup strategy.
func EDBLookup() Strategy { return edbStrategy{} }

func (edbStrategy) Name() string { return StrategyEDB }

func (edbStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	if p != nil && p.IDBPreds()[q.Atom.Pred] {
		return nil, fmt.Errorf("predicate %s is derived; use a rule strategy", q.Atom.Pred)
	}
	return &edbPrepared{query: q.Atom.Clone(), adornment: q.Adornment}, nil
}

type edbPrepared struct {
	query     ast.Atom
	adornment ast.Adornment
}

func (e *edbPrepared) Explain() StrategyExplain {
	return StrategyExplain{Strategy: StrategyEDB, Adornment: e.adornment.String(), Detail: "indexed base-relation lookup"}
}

func (e *edbPrepared) Eval(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	if e.query.HasSlots() {
		return nil, EvalStats{}, errUnboundSkeleton(e.query)
	}
	if err := ctx.Err(); err != nil {
		return nil, EvalStats{}, err
	}
	rel := edb.Relation(e.query.Pred)
	ans := storage.NewRelation(e.query.Arity(), &edb.Stats)
	if rel == nil {
		return ans, EvalStats{}, nil
	}
	if rel.Arity() != e.query.Arity() {
		return nil, EvalStats{}, fmt.Errorf("eval: query %v has arity %d, relation has %d", e.query, e.query.Arity(), rel.Arity())
	}
	var bindings []storage.Binding
	for i, a := range e.query.Args {
		if a.IsConst() {
			if v, ok := edb.Syms.Lookup(a.Name); ok {
				bindings = append(bindings, storage.Binding{Col: i, Val: v})
			} else {
				// Unknown constant: no tuple can match.
				return ans, EvalStats{}, nil
			}
		}
	}
	rel.Lookup(bindings, func(t storage.Tuple) bool {
		if matchesQuery(t, e.query, edb.Syms) {
			ans.Insert(t)
		}
		return true
	})
	return ans, EvalStats{SeenSize: ans.Len()}, nil
}
