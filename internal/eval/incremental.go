package eval

import (
	"context"
	"errors"

	"repro/internal/ast"
	"repro/internal/storage"
)

// This file is the incremental-maintenance layer: every prepared plan's
// evaluation is RETAINED and then moved with base-relation deltas
// instead of recomputed from scratch. There is one maintenance machine:
// a plan is a Datalog program plus a watched answer predicate, and its
// retained state is that program's semi-naive fixpoint (snState) —
// inserts extend it through delta variants, retractions through DRed
// (snState.retractPass). Plans whose cold evaluator is not semi-naive
// (the Fig. 9 context loop, the base-relation lookup) keep that evaluator
// for the build and hand the state it reached to the machine when the
// first delta arrives (see Incremental.adopt). A context plan keeps its
// loop for one more job: a pass that cascades past its round budget stops,
// and the loop refixes the state (see Incremental.refix).

// Delta describes the base-relation changes since a retained
// evaluation's build epoch, signed: Add holds one relation of newly
// inserted tuples per predicate and Del one relation of retracted
// tuples, which delta-restricted conjunction atoms probe like any
// relation. Predicates absent from a map are unchanged in that
// direction. An Add entry may overlap state the evaluation already saw —
// replaying overlap is idempotent under set semantics — and a Del entry
// may name tuples the base never held; both directions net out against
// the maintained state.
//
// An Add relation is read, never written, and only during the Update it
// is passed to: the engine hands in the window storage.Relation.DeltaSince
// returns over the base relation's own rows, which is sound only while
// the caller holds the database's retraction hold.
type Delta struct {
	Add map[string]*storage.Relation
	Del map[string]*storage.Relation
}

// Empty reports whether the delta carries no change in either
// direction.
func (d Delta) Empty() bool { return len(d.Add) == 0 && len(d.Del) == 0 }

// Incremental is a maintained evaluation: the materialized answer
// relation plus the retained fixpoint of the program it folds from.
// Answers returns the live relation — Update moves it in place. An
// Incremental is not safe for concurrent use; callers serialize Update
// (the engine's result cache holds one lock per cached entry).
//
// A non-nil Update error — a context cancellation or an exhausted gas
// budget — POISONS the state: the pass may have retracted or derived
// tuples without finishing the propagation, so a retried Update would
// silently skip answers. Discard the Incremental and re-evaluate.
type Incremental struct {
	// prog is the program whose fixpoint is retained and watch the
	// predicate of it the answers fold from. A cold evaluator that reached
	// the fixpoint without the program leaves prog nil and sets render: a
	// build that is dropped before any delta never pays for the rendering.
	prog   *ast.Program
	render func() *ast.Program
	watch  string
	edb    *storage.Database
	// project maps one watched tuple to the answer it contributes (ok
	// false when the selection filters it out); nil when the watched
	// tuples are the answers. The returned tuple may be a shared buffer:
	// the fold hooks run sequentially.
	project func(t storage.Tuple) (out storage.Tuple, ok bool)
	ans     *storage.Relation
	stats   EvalStats
	reads   []string
	// seenOf names the derived predicate whose size Stats reports as
	// SeenSize — the context relation, the reduced recursion — so the
	// statistic means the same before and after a maintenance pass; ""
	// reports the whole derived database.
	seenOf string

	// st is the retained fixpoint. It is nil while the state a cold
	// evaluator reached has not been adopted yet: adopt pours that state
	// — already the fixpoint of prog over the database as of the build —
	// into a fresh snState's derived database, so the first Update pays
	// a copy instead of an initialFixpoint.
	st    *snState
	adopt func(idb *storage.Database)

	// plan is set for a context-mode plan, whose Fig. 9 loop refixes the
	// state when a maintenance pass overruns its round budget (see
	// refixBudget); ops are that loop's operators, compiled on the first
	// refix and kept for the next. Every other plan's cold evaluator is
	// semi-naive itself, so it has nothing cheaper to fall back to.
	plan *Plan
	ops  *contextOps
}

// A context-mode maintenance pass may run refixBudget(n) rounds over a
// state of n contexts before it stops and re-runs the Fig. 9 loop
// instead — the ski-rental rule: quit renting once the rent paid equals
// the price of buying. On a 2-vCPU Xeon a semi-naive round costs ≈2 µs
// (two probes, a claim in the derived relation, a scratch relation
// emptied) and a Fig. 9 level ≈0.1–0.2 µs a context, so a refix over n
// contexts costs what ≈n/16 rounds do. The floor keeps a move of up to
// 64 levels on the O(|Δ|) path however small the state: below it neither
// way costs enough to matter.
const (
	refixFloor       = 64
	contextsPerRound = 16
)

func refixBudget(contexts int) int { return max(refixFloor, contexts/contextsPerRound) }

// Answers returns the live answer relation.
func (inc *Incremental) Answers() *storage.Relation { return inc.ans }

// Stats reports the work of the build plus the maintenance passes since.
func (inc *Incremental) Stats() EvalStats { return inc.stats }

// Reads names every base relation the retained program can read: its
// body predicates, plus its head predicates (a same-name base relation
// seeds a derived one). A delta confined to other predicates cannot
// move the answers.
func (inc *Incremental) Reads() []string {
	if inc.reads == nil {
		set := make(map[string]bool)
		for _, r := range inc.program().Rules {
			set[r.Head.Pred] = true
			for _, a := range r.Body {
				set[a.Pred] = true
			}
		}
		for pred := range set {
			inc.reads = append(inc.reads, pred)
		}
	}
	return inc.reads
}

// program returns the retained program, rendering it on first use.
func (inc *Incremental) program() *ast.Program {
	if inc.prog == nil {
		inc.prog, inc.render = inc.render(), nil
	}
	return inc.prog
}

// fold applies one derived-tuple change to the answers when it is the
// watched predicate's.
func (inc *Incremental) fold(pred string, t storage.Tuple, del bool) {
	if pred != inc.watch {
		return
	}
	if inc.project != nil {
		var ok bool
		if t, ok = inc.project(t); !ok {
			return
		}
	}
	if del {
		inc.ans.Retract(t)
	} else {
		inc.ans.Insert(t)
	}
}

func (inc *Incremental) onNew(pred string, t storage.Tuple) { inc.fold(pred, t, false) }
func (inc *Incremental) onDel(pred string, t storage.Tuple) { inc.fold(pred, t, true) }

// Update moves the retained fixpoint, and through it the answers, by a
// signed delta the database has already absorbed.
func (inc *Incremental) Update(ctx context.Context, delta Delta) error {
	if inc.st == nil {
		st, err := newSNState(inc.program(), inc.edb)
		if err != nil {
			return err
		}
		inc.adopt(st.idb)
		st.rounds = inc.stats.Iterations
		inc.st, inc.adopt = st, nil
	}
	if inc.plan != nil {
		inc.st.budget = refixBudget(inc.seenSize())
	}
	err := inc.st.update(ctx, delta, inc.onNew, inc.onDel)
	if errors.Is(err, errOverBudget) {
		err = inc.refix(ctx)
	}
	if err != nil {
		return err
	}
	inc.stats.Iterations = inc.st.rounds
	inc.stats.Overdeleted, inc.stats.Rederived = inc.st.overdeleted, inc.st.rederived
	inc.stats.SeenSize = inc.seenSize()
	return nil
}

// refix brings a context-mode state to the current database's fixpoint
// the cold way, after a pass overran its budget: it re-runs the plan's
// Fig. 9 loop and moves the live answers and the retained context
// program's two relations to what the loop reached, in place, by their
// differences — which also undoes whatever the abandoned pass had moved.
// The loop charges the context's gas as a cold evaluation does.
func (inc *Incremental) refix(ctx context.Context) error {
	p := inc.plan
	if inc.ops == nil {
		ops := p.compileContextOps(inc.edb.Syms)
		inc.ops = &ops
	}
	ce := p.newContextEval(inc.edb, nil)
	ce.ops = inc.ops
	if _, _, err := ce.run(ctx); err != nil {
		return err
	}
	ctxPred, ansPred := p.contextPreds()
	moveTo(inc.st.idb.Ensure(ctxPred, ce.carryWidth), ce.seen)
	moveTo(inc.st.idb.Ensure(ansPred, ce.ans.Arity()), ce.ans)
	moveTo(inc.ans, ce.ans)
	inc.st.rounds += ce.stats.Iterations
	inc.stats.Refixes++
	return nil
}

// moveTo makes rel hold exactly want's tuples: it inserts what rel lacks
// and retracts what want lacks. Finding the latter walks every row rel
// ever held, tombstones included, so it is skipped when the tuples the
// two share are all rel holds — a move that only grows rel.
func moveTo(rel *storage.Relation, want seenSet) {
	tuples := want.Tuples()
	missing := tuples[:0]
	for _, t := range tuples {
		if !rel.Contains(t) {
			missing = append(missing, t)
		}
	}
	if len(tuples)-len(missing) < rel.Len() {
		for _, t := range rel.Tuples() {
			if !want.Contains(t) {
				rel.Retract(t)
			}
		}
	}
	if len(missing) > 0 {
		rel.InsertBatch(missing)
	}
}

// seenSize is the SeenSize statistic of the retained fixpoint.
func (inc *Incremental) seenSize() int {
	if inc.seenOf == "" {
		return inc.st.idb.TupleCount()
	}
	if rel := inc.st.idb.Relation(inc.seenOf); rel != nil {
		return rel.Len()
	}
	return 0
}

// buildIncremental runs prog's semi-naive fixpoint over edb, retains it,
// and folds the watched predicate into ans.
func buildIncremental(ctx context.Context, prog *ast.Program, watch, seenOf string, edb *storage.Database,
	ans *storage.Relation, project func(storage.Tuple) (storage.Tuple, bool)) (*Incremental, error) {
	st, err := newSNState(prog, edb)
	if err != nil {
		return nil, err
	}
	if err := st.initialFixpoint(ctx); err != nil {
		return nil, err
	}
	inc := &Incremental{prog: prog, watch: watch, seenOf: seenOf, edb: edb, project: project, ans: ans, st: st}
	if rel := st.idb.Relation(watch); rel != nil {
		for _, t := range rel.Tuples() {
			inc.onNew(watch, t)
		}
	}
	inc.stats = EvalStats{Iterations: st.rounds, SeenSize: inc.seenSize()}
	return inc, nil
}

// selectBy is the materialize-then-select projection: a watched tuple
// is an answer when it matches the query's constants.
func selectBy(query ast.Atom, syms *storage.SymbolTable) func(storage.Tuple) (storage.Tuple, bool) {
	return func(t storage.Tuple) (storage.Tuple, bool) { return t, matchesQuery(t, query, syms) }
}

// buildSelect is buildIncremental for the materialize-then-select
// plans (full one-sided mode, Magic Sets, the semi-naive strategy): the
// watched predicate may differ from the query predicate (Magic Sets
// watches the adorned answer predicate while selecting with the
// original query atom).
func buildSelect(ctx context.Context, prog *ast.Program, watch string, query ast.Atom, edb *storage.Database) (*Incremental, error) {
	if query.HasSlots() {
		return nil, errUnboundSkeleton(query)
	}
	ans := storage.NewRelation(query.Arity(), &edb.Stats)
	return buildIncremental(ctx, prog, watch, "", edb, ans, selectBy(query, edb.Syms))
}

// buildReduced is buildIncremental for the persistent-column reduction
// (Section 4, and rule by rule for Section 5's multi-rule recursions):
// reduced is the recursion for query's predicate after the bound
// persistent columns were substituted and dropped, keep the original
// column of each reduced column. The reduced recursion materializes and
// every reduced tuple re-expands through the dropped constant columns.
func buildReduced(ctx context.Context, reduced *ast.Program, query ast.Atom, keep []int, edb *storage.Database) (*Incremental, error) {
	if query.HasSlots() {
		return nil, errUnboundSkeleton(query)
	}
	out := queryConsts(query, edb.Syms)
	expand := func(t storage.Tuple) (storage.Tuple, bool) {
		for ri, oi := range keep {
			out[oi] = t[ri]
		}
		return out, true
	}
	ans := storage.NewRelation(query.Arity(), &edb.Stats)
	inc, err := buildIncremental(ctx, reduced, query.Pred, query.Pred, edb, ans, expand)
	if err != nil {
		return nil, err
	}
	inc.stats.CarryArity = len(keep)
	return inc, nil
}

// build evaluates a bound plan with its mode's evaluator and retains the
// state. Reduced and full plans retain the semi-naive fixpoint they
// evaluate with. For a context plan the Fig. 9 loop is the evaluator;
// what it reached — the seen-set and the answers — is the fixpoint of
// the plan's context program (contextprog.go), held as-is until a delta
// needs the maintenance machine. emit, which only the context loop
// serves, streams each answer as it is derived (see EvalStreamCtx); a
// state cut short by emit is not a fixpoint and must be dropped.
func (p *Plan) build(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (*Incremental, error) {
	if p.NSlots > 0 {
		return nil, errUnboundSkeleton(p.Query)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Mode == ModeContext {
		ce := p.newContextEval(edb, emit)
		if _, _, err := ce.run(ctx); err != nil {
			return nil, err
		}
		ctxPred, ansPred := p.contextPreds()
		// The closure keeps the two relations, not the evaluator: the compiled
		// operators and factor-group tables are garbage from here on.
		seen, ans, carryWidth := ce.seen, ce.ans, ce.carryWidth
		return &Incremental{
			render: p.contextProgram, watch: ansPred, seenOf: ctxPred, edb: edb, ans: ans, stats: ce.stats, plan: p,
			adopt: func(idb *storage.Database) {
				idb.Ensure(ctxPred, carryWidth).InsertBatch(seen.Tuples())
				idb.Ensure(ansPred, ans.Arity()).InsertBatch(ans.Tuples())
			},
		}, nil
	}
	var inc *Incremental
	var err error
	if p.Mode == ModeReduced {
		prog := p.reduced.Program()
		for _, r := range p.more {
			prog.Rules = append(prog.Rules, r.Clone())
		}
		inc, err = buildReduced(ctx, prog, p.Query, p.keepCols, edb)
	} else {
		inc, err = buildSelect(ctx, p.Def.Program(), p.Query.Pred, p.Query, edb)
	}
	if err != nil {
		return nil, err
	}
	inc.stats.CarryArity = p.CarryArity
	return inc, nil
}
