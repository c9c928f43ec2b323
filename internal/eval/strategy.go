package eval

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Strategy names, used by the Engine's strategy table and Explain reports.
const (
	StrategyOneSided  = "onesided"
	StrategyMagic     = "magic"
	StrategySemiNaive = "seminaive"
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
// chain. Strategies must be stateless and safe for concurrent use.
type Strategy interface {
	Name() string
	Prepare(p *ast.Program, query AdornedQuery) (PreparedStrategy, error)
}

// PreparedStrategy is a query plan produced by a Strategy. Build may be
// called many times and concurrently against the same database; the plan
// holds no per-evaluation state.
//
// Build evaluates the plan and returns the maintained evaluation: the
// answers plus whatever Incremental.Update needs to move them by a signed
// delta. Every plan maintains; a caller that will never see a delta uses
// Eval, which builds and drops the state.
//
// A plan prepared from a skeleton query is parameterized: its constant
// positions hold ast.SlotConst placeholders and Build refuses it.
// BindArgs instantiates the slot table — one constant per slot, in slot
// order — returning an evaluable plan; binding is a shallow structural
// substitution, orders of magnitude cheaper than Prepare's analysis. A
// plan prepared from a ground query has zero slots and BindArgs() with
// no arguments returns it unchanged. BindArgs fails only on a slot table
// of the wrong width or with a non-constant in it.
//
// Explain describes the plan's structure, which binding does not change:
// a skeleton and every plan bound from it explain alike, so a caller
// holding the skeleton need not bind to explain.
type PreparedStrategy interface {
	Explain() StrategyExplain
	BindArgs(consts ...ast.Term) (PreparedStrategy, error)
	Build(ctx context.Context, edb *storage.Database) (*Incremental, error)
}

// Eval is the cold evaluation of any prepared plan: build, keep the
// answers and the statistics, drop the retained state.
func Eval(ctx context.Context, p PreparedStrategy, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	inc, err := p.Build(ctx, edb)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return inc.Answers(), inc.Stats(), nil
}

// errUnboundSkeleton rejects evaluation of a plan whose query still
// holds slot placeholders: the skeleton is a template, not a plan.
func errUnboundSkeleton(query ast.Atom) error {
	return fmt.Errorf("eval: plan for %v is a skeleton with %d unbound slots; call BindArgs first",
		query, query.SlotCount())
}

// StreamingPrepared is implemented by prepared plans that can emit
// answers incrementally, before their fixpoint completes. EvalStream
// is a cold evaluation that additionally calls emit once per distinct
// answer tuple as soon as it is derived; see Plan.EvalStreamCtx for the
// emit contract. Prepared plans without this interface are evaluated
// fully and their answers streamed afterwards.
type StreamingPrepared interface {
	PreparedStrategy
	EvalStream(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (*storage.Relation, EvalStats, error)
}

// StrategyExplain reports what a prepared plan will do: which strategy
// planned it, the Theorem 3.4 verdict when the planner ran it, the Fig. 9
// mode and carry arity for one-sided plans, and a free-form detail line.
type StrategyExplain struct {
	Strategy string
	// Adornment is the query's bound/free pattern — the key the plan
	// skeleton was compiled under (empty for plans prepared before the
	// adornment threading, e.g. hand-built ones).
	Adornment  string
	Verdict    string
	Mode       string
	CarryArity int
	Detail     string
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
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// ---------------------------------------------------------------------------
// One-sided strategy: the paper's planner.

type oneSidedStrategy struct{}

// OneSided returns the strategy that runs the Theorem 3.4
// optimize-then-detect procedure and, when it concludes the recursion is
// (convertible to) one-sided, compiles the selection into a Fig. 9 plan.
// A recursion of several linear rules sharing one exit rule (Section 5)
// skips the procedure: it is planned only when the persistent-column
// reduction applies to every rule, as a ModeReduced plan.
func OneSided() Strategy { return oneSidedStrategy{} }

func (oneSidedStrategy) Name() string { return StrategyOneSided }

func (oneSidedStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	def, more, err := extractForQuery(p, q.Atom)
	if err != nil {
		return nil, err
	}
	if len(more) > 0 {
		plan, err := compileSelection(def, more, q.Atom)
		if err != nil {
			return nil, err
		}
		return &oneSidedPrepared{plan: plan, adornment: q.Adornment}, nil
	}
	dec, err := rewrite.DecideOneSided(def)
	if err != nil {
		return nil, err
	}
	switch dec.Verdict {
	case rewrite.VerdictOneSided, rewrite.VerdictConverted, rewrite.VerdictBounded:
	default:
		return nil, fmt.Errorf("decision procedure: %s", dec.Verdict)
	}
	plan, err := CompileSelection(dec.Optimized, q.Atom)
	if err != nil {
		return nil, err
	}
	return &oneSidedPrepared{plan: plan, verdict: dec.Verdict.String(), adornment: q.Adornment}, nil
}

// extractForQuery extracts the recursion for the query predicate — the
// first linear recursive rule paired with the exit rule, and any further
// recursive rules sharing that exit rule — and checks that the Fig. 9
// schema's EDB assumption holds: no body atom of the recursion is derived
// by other rules of the program.
func extractForQuery(p *ast.Program, query ast.Atom) (*ast.Definition, []ast.Rule, error) {
	defs, err := ast.ExtractRecursion(p, query.Pred)
	if err != nil {
		return nil, nil, err
	}
	var more []ast.Rule
	for _, d := range defs[1:] {
		more = append(more, d.Recursive)
	}
	idb := p.IDBPreds()
	for _, r := range append([]ast.Rule{defs[0].Recursive, defs[0].Exit}, more...) {
		for _, a := range r.Body {
			if a.Pred != query.Pred && idb[a.Pred] {
				return nil, nil, fmt.Errorf("body atom %s is derived by other rules; the Fig. 9 schema needs base relations", a.Pred)
			}
		}
	}
	return defs[0], more, nil
}

type oneSidedPrepared struct {
	plan      *Plan
	verdict   string
	adornment ast.Adornment
}

func (o *oneSidedPrepared) Explain() StrategyExplain {
	ex := StrategyExplain{
		Strategy:   StrategyOneSided,
		Adornment:  o.adornment.String(),
		Verdict:    o.verdict,
		Mode:       o.plan.Mode.String(),
		CarryArity: o.plan.CarryArity,
	}
	if n := len(o.plan.more); n > 0 {
		ex.Detail = fmt.Sprintf("%d recursive rules, persistent-column reduction", n+1)
	}
	return ex
}

// Build evaluates the plan with its mode's evaluator and retains the
// state: see Plan.build.
func (o *oneSidedPrepared) Build(ctx context.Context, edb *storage.Database) (*Incremental, error) {
	return o.plan.build(ctx, edb, nil)
}

// EvalStream implements StreamingPrepared: context-mode plans emit
// answers per carry batch while the Fig. 9 loop is still running.
func (o *oneSidedPrepared) EvalStream(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (*storage.Relation, EvalStats, error) {
	return o.plan.EvalStreamCtx(ctx, edb, emit)
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

// Build retains the rewritten program's semi-naive fixpoint (magic and
// answer predicates included), selecting with the original query atom.
func (m *magicPrepared) Build(ctx context.Context, edb *storage.Database) (*Incremental, error) {
	return buildSelect(ctx, m.mr.Program, m.mr.AnswerPred, m.mr.Query, edb)
}

// ---------------------------------------------------------------------------
// Semi-naive strategy: full materialization plus selection.

type materializeStrategy struct{}

// Materialize returns the "seminaive" strategy: materialize the whole
// program with semi-naive evaluation, then select.
func Materialize() Strategy { return materializeStrategy{} }

func (materializeStrategy) Name() string { return StrategySemiNaive }

func (materializeStrategy) Prepare(p *ast.Program, q AdornedQuery) (PreparedStrategy, error) {
	if !headPreds(p)[q.Atom.Pred] {
		return nil, fmt.Errorf("predicate %s is not defined by the program", q.Atom.Pred)
	}
	return &materializePrepared{program: p, query: q.Atom.Clone(), adornment: q.Adornment}, nil
}

type materializePrepared struct {
	program   *ast.Program
	query     ast.Atom
	adornment ast.Adornment
}

func (m *materializePrepared) Explain() StrategyExplain {
	return StrategyExplain{
		Strategy:  StrategySemiNaive,
		Adornment: m.adornment.String(),
		Detail:    "full materialization then selection",
	}
}

func (m *materializePrepared) Build(ctx context.Context, edb *storage.Database) (*Incremental, error) {
	return buildSelect(ctx, m.program, m.query.Pred, m.query, edb)
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

// Build answers with the indexed lookup. A base-relation selection is
// the one-rule program "answer(args) :- pred(args)" with the query's own
// argument list; its fixpoint — the answers themselves — is adopted by
// the first delta.
func (e *edbPrepared) Build(ctx context.Context, edb *storage.Database) (*Incremental, error) {
	if e.query.HasSlots() {
		return nil, errUnboundSkeleton(e.query)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ans := storage.NewRelation(e.query.Arity(), &edb.Stats)
	if rel := edb.Relation(e.query.Pred); rel != nil {
		if rel.Arity() != e.query.Arity() {
			return nil, fmt.Errorf("eval: query %v has arity %d, relation has %d", e.query, e.query.Arity(), rel.Arity())
		}
		if bindings, known := constBindings(e.query, edb.Syms); known {
			rel.Lookup(bindings, func(t storage.Tuple) bool {
				if matchesQuery(t, e.query, edb.Syms) {
					ans.Insert(t)
				}
				return true
			})
		}
	}
	ansPred := "m_ans__" + e.query.Pred
	return &Incremental{
		prog:  ast.NewProgram(ast.NewRule(ast.Atom{Pred: ansPred, Args: e.query.Args}, e.query)),
		watch: ansPred, edb: edb, ans: ans, stats: EvalStats{SeenSize: ans.Len()},
		adopt: func(idb *storage.Database) {
			idb.Ensure(ansPred, e.query.Arity()).InsertBatch(ans.Tuples())
		},
	}, nil
}

// constBindings turns the query's constants into index bindings; known
// is false when one of them was never interned, so no tuple can match.
func constBindings(query ast.Atom, syms *storage.SymbolTable) (bindings []storage.Binding, known bool) {
	for i, a := range query.Args {
		if a.IsConst() {
			v, ok := syms.Lookup(a.Name)
			if !ok {
				return nil, false
			}
			bindings = append(bindings, storage.Binding{Col: i, Val: v})
		}
	}
	return bindings, true
}
