package eval

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
)

// ruleVariant is one delta version of a rule body, with the head compiled
// against the variant's own slot space. It owns its evaluation buffers:
// a compiled program belongs to one evaluation, whose rounds run their
// jobs one after the other, so a variant is only ever in one traversal at
// a time — which keeps a semi-naive round, run once per Fig. 9 level when
// a maintained chain is cut or spliced, free of per-round buffer
// allocation.
type ruleVariant struct {
	conj *compiledConj
	head []argRef
	run  *runBuf
}

// runBuf is the reusable state of a conjunction evaluation. Variants are
// copied by value and share their buffers, so the one-traversal-at-a-time
// invariant is asserted on every traversal (acquire), not assumed: a
// traversal started from inside another of the same variant panics
// instead of silently mixing the two traversals' bindings.
type runBuf struct {
	slots []storage.Value
	tuple storage.Tuple // the projected head
	sc    *conjScratch
	busy  bool
}

func (b *runBuf) acquire() {
	if b.busy {
		panic("eval: one compiled rule variant evaluated by two traversals at once")
	}
	b.busy = true
}

// release ends a traversal. The buffers outlive it — they are retained
// with the compiled program — so the relations the scratch was bound to,
// live and left alike, are let go here: a finished round's delta
// relations and a finished pass's deletions must not stay reachable from
// every variant that read them.
func (b *runBuf) release() {
	clear(b.sc.rels)
	clear(b.sc.left)
	b.busy = false
}

func newRunBuf(conj *compiledConj, headArity int) *runBuf {
	return &runBuf{
		slots: make([]storage.Value, conj.nslots),
		tuple: make(storage.Tuple, headArity),
		sc:    conj.newScratch(),
	}
}

// derive evaluates the variant, yielding every derived head tuple in
// the variant's reused buffer (copy to retain). A non-nil left makes the
// non-delta atoms read the state before those tuples left (see
// compiledConj.bindLeft); tally is the running pass's (compiledConj.bind).
func (v ruleVariant) derive(res resolver, left map[string]*storage.Relation, tally *storage.Tally, yield func(t storage.Tuple)) {
	b := v.run
	b.acquire()
	defer b.release()
	v.conj.bind(b.sc, res, tally)
	if left != nil {
		v.conj.bindLeft(b.sc, left)
	}
	v.conj.step(0, b.slots, b.sc, func(s []storage.Value) bool {
		for i, h := range v.head {
			if h.isConst {
				b.tuple[i] = h.val
			} else {
				b.tuple[i] = s[h.slot]
			}
		}
		yield(b.tuple)
		return true
	})
}

// compiledRule is a rule prepared for bottom-up evaluation.
type compiledRule struct {
	src ast.Rule
	// variants are the delta versions of the body: variant i marks the
	// i-th IDB body occurrence as the delta atom. For rules without IDB
	// body atoms there is a single variant with no delta atom.
	variants []ruleVariant
	headPred string
	// edbVariants maps a body index holding an EDB atom to the variant
	// that marks it as the delta atom — the incremental-maintenance
	// counterpart of variants, built lazily on the first Update (see
	// snState.update).
	edbVariants map[int]ruleVariant
	// check is the head-bound satisfiability variant DRed's rederive
	// phase probes ("is this head tuple still derivable by this rule?"),
	// built lazily on the first retraction (see snState.derivable).
	check *headCheck
}

// headCheck is a rule compiled for head-bound satisfiability: the head
// argument slots are interned first and filled from a candidate tuple —
// the body is compiled with all of them bound — and the body conjunction,
// fully existential since no solution values are read, stops at the first
// witness.
type headCheck struct {
	conj *compiledConj
	head []argRef
	run  *runBuf
}

// holds reports whether the rule body has a solution deriving head
// tuple t, counting its probes in tally.
func (hc *headCheck) holds(res resolver, tally *storage.Tally, t storage.Tuple) bool {
	b := hc.run
	b.acquire()
	defer b.release()
	// Fill the head slots, then require t to be the head under them: a
	// constant column, or a variable's second column (q(X, X)), that
	// disagrees means the rule cannot derive t.
	for i, h := range hc.head {
		if !h.isConst {
			b.slots[h.slot] = t[i]
		}
	}
	for i, h := range hc.head {
		if h.isConst && t[i] != h.val || !h.isConst && b.slots[h.slot] != t[i] {
			return false
		}
	}
	found := false
	hc.conj.bind(b.sc, res, tally)
	hc.conj.step(0, b.slots, b.sc, func([]storage.Value) bool {
		found = true
		return false
	})
	return found
}

// compileHeadCheck builds the head-bound satisfiability variant of a
// rule.
func compileHeadCheck(r ast.Rule, idb map[string]bool, syms *storage.SymbolTable) *headCheck {
	ss := newSlotSpace()
	head := make([]argRef, len(r.Head.Args))
	bound := make(map[string]bool)
	for i, t := range r.Head.Args {
		if t.IsConst() {
			head[i] = argRef{isConst: true, val: syms.Intern(t.Name)}
			continue
		}
		head[i] = argRef{slot: ss.slot(t.Name)}
		bound[t.Name] = true
	}
	idbFlags := make([]bool, len(r.Body))
	for i, a := range r.Body {
		idbFlags[i] = idb[a.Pred]
	}
	conj := compileConj(r.Body, &compileConjOpts{idbFlags: idbFlags}, ss, syms, bound, map[string]bool{})
	return &headCheck{conj: conj, head: head, run: newRunBuf(conj, 0)}
}

// variantFor returns the delta variant of cr that marks body index i as
// the delta atom, compiling (and caching) EDB variants on demand.
func (cr *compiledRule) variantFor(i int, cp *program, syms *storage.SymbolTable) ruleVariant {
	if cp.idb[cr.src.Body[i].Pred] {
		k := 0
		for j := 0; j < i; j++ {
			if cp.idb[cr.src.Body[j].Pred] {
				k++
			}
		}
		return cr.variants[k]
	}
	if cr.edbVariants == nil {
		cr.edbVariants = make(map[int]ruleVariant)
	}
	v, ok := cr.edbVariants[i]
	if !ok {
		v = compileRuleVariant(cr.src, cp.idb, syms, i)
		cr.edbVariants[i] = v
	}
	return v
}

// program holds the compiled rules and the IDB/EDB split used by the
// bottom-up engines.
type program struct {
	rules []*compiledRule
	idb   map[string]bool
	arity map[string]int
	facts []ast.Rule
}

// headPreds returns the set of predicates defined by any rule or fact of p
// (the IDB in the engine's sense: everything it may derive or seed).
func headPreds(p *ast.Program) map[string]bool {
	s := make(map[string]bool)
	for _, r := range p.Rules {
		s[r.Head.Pred] = true
	}
	return s
}

// compileProgram validates and compiles every rule.
func compileProgram(p *ast.Program, syms *storage.SymbolTable) (*program, error) {
	arity, err := p.Arities()
	if err != nil {
		return nil, err
	}
	cp := &program{idb: headPreds(p), arity: arity}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			if !r.IsFact() {
				return nil, fmt.Errorf("eval: rule %v has an empty body but a non-ground head", r)
			}
			cp.facts = append(cp.facts, r)
			continue
		}
		// Safety: every head variable must occur in the body.
		bodyVars := make(map[string]bool)
		for _, a := range r.Body {
			for _, t := range a.Args {
				if t.IsVar() {
					bodyVars[t.Name] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar() && !bodyVars[t.Name] {
				return nil, fmt.Errorf("eval: rule %v is unsafe: head variable %s not in body", r, t.Name)
			}
		}
		cr := &compiledRule{src: r, headPred: r.Head.Pred}
		// Build the non-delta variant (used by the first round and by
		// Naive) and one delta variant per IDB body occurrence.
		var idbIdx []int
		for i, a := range r.Body {
			if cp.idb[a.Pred] {
				idbIdx = append(idbIdx, i)
			}
		}
		if len(idbIdx) == 0 {
			cr.variants = []ruleVariant{compileRuleVariant(r, cp.idb, syms, -1)}
		} else {
			for _, i := range idbIdx {
				cr.variants = append(cr.variants, compileRuleVariant(r, cp.idb, syms, i))
			}
		}
		cp.rules = append(cp.rules, cr)
	}
	return cp, nil
}

// compileRuleVariant compiles one delta variant of a rule: body index
// delta (when >= 0) is marked as the alt atom the resolver redirects to
// a delta relation. The variant works for IDB deltas (semi-naive rounds)
// and EDB deltas (incremental maintenance) alike — the resolver decides
// what the alt relation is.
func compileRuleVariant(r ast.Rule, idb map[string]bool, syms *storage.SymbolTable, delta int) ruleVariant {
	ss := newSlotSpace()
	flags := make([]bool, len(r.Body))
	if delta >= 0 {
		flags[delta] = true
	}
	idbFlags := make([]bool, len(r.Body))
	for i, a := range r.Body {
		idbFlags[i] = idb[a.Pred]
	}
	conj := compileConj(r.Body, &compileConjOpts{altFlags: flags, idbFlags: idbFlags}, ss, syms, nil, r.Head.VarSet())
	// Head compiled against the same slot space; head variables
	// occur in the body (safety), so their slots already exist.
	head := make([]argRef, len(r.Head.Args))
	for i, t := range r.Head.Args {
		if t.IsConst() {
			head[i] = argRef{isConst: true, val: syms.Intern(t.Name)}
		} else {
			head[i] = argRef{slot: ss.slot(t.Name)}
		}
	}
	return ruleVariant{conj: conj, head: head, run: newRunBuf(conj, len(head))}
}

// Result is the outcome of bottom-up evaluation: the derived (IDB)
// database plus iteration statistics.
type Result struct {
	// IDB holds the derived relations (sharing the input symbol table).
	IDB *storage.Database
	// Rounds is the number of fixpoint iterations performed.
	Rounds int
}

// SemiNaive evaluates the program bottom-up with the semi-naive strategy
// over the EDB database. Predicates defined by rules or facts of the
// program are derived into a fresh database; a relation in edb with the
// same name as a derived predicate seeds it (this is what uniform
// containment needs, and it is harmless otherwise).
func SemiNaive(p *ast.Program, edb *storage.Database) (*Result, error) {
	return SemiNaiveCtx(context.Background(), p, edb)
}

// SemiNaiveCtx is SemiNaive with cancellation: the fixpoint loop checks
// ctx between rounds and returns ctx.Err() when it fires.
func SemiNaiveCtx(ctx context.Context, p *ast.Program, edb *storage.Database) (*Result, error) {
	st, err := newSNState(p, edb)
	if err != nil {
		return nil, err
	}
	if err := st.initialFixpoint(ctx); err != nil {
		return nil, err
	}
	return st.result(), nil
}

// snState is a retained semi-naive evaluation: the compiled program, the
// derived database, and the round counter. Once idb holds the program's
// fixpoint — computed by initialFixpoint, or reached by another
// evaluator and loaded in (Incremental.adopt) — it can be moved in place
// with signed base-relation deltas (update): the delta-driven
// maintenance pass the engine's result cache runs instead of
// recomputing the fixpoint from scratch. An snState is not safe for
// concurrent use; callers serialize initialFixpoint/update.
type snState struct {
	cp     *program
	edb    *storage.Database
	idb    *storage.Database
	rounds int
	// overdeleted and rederived count DRed's work over the state's life:
	// candidates retractPass took out of the fixpoint, and those of them
	// it put back because a derivation remained.
	overdeleted, rederived int

	// free is the running pass's scratch: emptied delta, candidate and
	// round-delete relations by arity, handed out again by scratch. It
	// exists from the start of an initialFixpoint or update to its end —
	// a state at rest holds no relation but its derived database.
	free map[int][]*storage.Relation
	// tally counts the running pass's probes of the base relations; it is
	// empty between passes.
	tally storage.Tally
	// budget, when positive, bounds the rounds one update may run: the
	// delta rounds plus DRed's in-component cascade rounds, counted in
	// spent. A pass that would run one more stops with errOverBudget,
	// leaving the state half-moved for its owner to repair (see
	// Incremental.refix).
	budget, spent int

	// Deletion-maintenance machinery, built lazily by ensureStrata on
	// the first retraction: the SCC condensation of the IDB dependency
	// graph in dependencies-first order, which predicates sit in a cycle,
	// the rules indexed by head, and the program's ground facts as
	// relations (a fact survives any retraction).
	strata      [][]string
	recursive   map[string]bool
	rulesByHead map[string][]*compiledRule
	factRels    map[string]*storage.Relation
}

// newSNState compiles the program and seeds the derived database with
// the program's facts and same-name EDB relations.
func newSNState(p *ast.Program, edb *storage.Database) (*snState, error) {
	cp, err := compileProgram(p, edb.Syms)
	if err != nil {
		return nil, err
	}
	st := &snState{cp: cp, edb: edb, idb: storage.NewDatabaseWith(edb.Syms), tally: edb.Stats.Tally()}
	// Seed: program facts and same-name EDB relations. The seeds need no
	// delta bookkeeping because the first round evaluates every rule
	// against the full (seeded) relations.
	for pred := range cp.idb {
		arity, ok := cp.arity[pred]
		if !ok {
			continue
		}
		rel := st.idb.Ensure(pred, arity)
		if seed := edb.Relation(pred); seed != nil {
			for _, t := range seed.Tuples() {
				rel.Insert(t)
			}
		}
	}
	for _, f := range cp.facts {
		t := factTuple(f, edb.Syms)
		st.idb.Ensure(f.Head.Pred, len(t)).Insert(t)
	}
	return st, nil
}

// factTuple interns a ground fact's arguments.
func factTuple(f ast.Rule, syms *storage.SymbolTable) storage.Tuple {
	t := make(storage.Tuple, len(f.Head.Args))
	for i, c := range f.Head.Args {
		t[i] = syms.Intern(c.Name)
	}
	return t
}

// result wraps the current derived state.
func (st *snState) result() *Result { return &Result{IDB: st.idb, Rounds: st.rounds} }

// resolve builds a resolver over the retained state with the delta table
// *useDelta serving alt (delta-atom) lookups. It takes the table by
// reference so that a loop builds one resolver and moves the table under
// it from round to round; nil means no delta table at all.
func (st *snState) resolve(useDelta *map[string]*storage.Relation) resolver {
	return func(pred string, alt bool) *storage.Relation {
		switch {
		case alt && useDelta == nil:
			return nil
		case alt:
			return (*useDelta)[pred]
		case st.cp.idb[pred]:
			return st.idb.Relation(pred)
		}
		return st.edb.Relation(pred)
	}
}

// beginPass opens the scratch free list of one maintenance or evaluation
// pass; the returned function drops it, and with it every relation the
// pass did not publish, and adds the pass's probe counts into the
// database's Counters. Deferred, it runs however the pass ends.
func (st *snState) beginPass() (end func()) {
	st.free = make(map[int][]*storage.Relation)
	st.spent = 0
	return func() {
		st.free = nil
		st.tally.Flush()
	}
}

// errOverBudget stops a maintenance pass that has run its round budget.
var errOverBudget = errors.New("eval: maintenance pass over its round budget")

// spend counts one round of the running pass against the budget.
func (st *snState) spend() error {
	st.spent++
	if st.budget > 0 && st.spent > st.budget {
		return errOverBudget
	}
	return nil
}

// scratch returns an empty untracked relation for the running pass, a
// recycled one when the pass has emptied one of that arity. A one-tuple
// round then costs no arena block, no dedup table and no relation header.
func (st *snState) scratch(arity int) *storage.Relation {
	if l := st.free[arity]; len(l) > 0 {
		st.free[arity] = l[:len(l)-1]
		return l[len(l)-1]
	}
	return storage.NewRelation(arity, nil)
}

// recycle empties the table m and every relation in it, which the pass
// must be done reading, onto the free list.
func (st *snState) recycle(m map[string]*storage.Relation) {
	for pred, r := range m {
		r.Reset()
		st.free[r.Arity()] = append(st.free[r.Arity()], r)
		delete(m, pred)
	}
}

// deltaRel returns pred's relation in the delta table m, taking an empty
// one from the pass's scratch on first use.
func (st *snState) deltaRel(m map[string]*storage.Relation, pred string) *storage.Relation {
	r := m[pred]
	if r == nil {
		r = st.scratch(st.cp.arity[pred])
		m[pred] = r
	}
	return r
}

// roundDelta extends m (nil starts a fresh table) with an empty delta
// relation for every head the jobs can derive.
func (st *snState) roundDelta(m map[string]*storage.Relation, jobs []roundJob) map[string]*storage.Relation {
	if m == nil {
		m = make(map[string]*storage.Relation)
	}
	for _, j := range jobs {
		st.deltaRel(m, j.cr.headPred)
	}
	return m
}

// initialFixpoint runs the full semi-naive evaluation: one unrestricted
// first round, then delta rounds to fixpoint.
func (st *snState) initialFixpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer st.beginPass()()
	var first []roundJob
	for _, cr := range st.cp.rules {
		first = append(first, roundJob{cr: cr, v: cr.variants[0]})
	}
	newDelta := st.roundDelta(nil, first)
	// The first round's delta atoms range over whole relations.
	st.runRound(first, st.resolve(nil), newDelta, true)
	st.rounds++
	return st.deltaLoop(ctx, newDelta, nil)
}

// deltaLoop drives delta rounds until no new tuples appear. onNew, when
// non-nil, observes every genuinely new derived tuple (including the
// contents of the caller's seeding round) — the hook incremental
// answer-relation maintenance rides on.
//
// newDelta's relations come from the pass's scratch (deltaRel), and each
// round's go back to it once the next round has read them: the two
// tables and their relations alternate for the length of the loop.
func (st *snState) deltaLoop(ctx context.Context, newDelta map[string]*storage.Relation, onNew func(pred string, t storage.Tuple)) error {
	meter := MeterFrom(ctx)
	var jobs []roundJob
	var delta, spare map[string]*storage.Relation
	res := st.resolve(&delta)
	var buf storage.Tuple // onNew's view of a promoted tuple
	done := ctx.Done()
	for {
		if err := expired(ctx, done); err != nil {
			return err
		}
		// Promote.
		delta = newDelta
		fresh := 0
		for pred, d := range delta {
			if d.Len() == 0 {
				continue
			}
			fresh += d.Len()
			if onNew != nil {
				if len(buf) < d.Arity() {
					buf = make(storage.Tuple, d.Arity())
				}
				d.LookupBuf(nil, buf, func(t storage.Tuple) bool {
					onNew(pred, t)
					return true
				})
			}
		}
		if fresh == 0 {
			st.recycle(delta)
			return nil
		}
		// Gas: the promoted delta is exactly the round's genuinely new
		// derived tuples — one charge per semi-naive round.
		if err := meter.Charge(fresh); err != nil {
			return err
		}
		// One job per derived body occurrence whose predicate just grew: a
		// variant restricted to an empty delta derives nothing (so rules
		// with no derived body atom never run after round 1).
		jobs = jobs[:0]
		for _, cr := range st.cp.rules {
			k := 0
			for _, a := range cr.src.Body {
				if !st.cp.idb[a.Pred] {
					continue
				}
				if d := delta[a.Pred]; d != nil && d.Len() > 0 {
					jobs = append(jobs, roundJob{cr: cr, v: cr.variants[k]})
				}
				k++
			}
		}
		if len(jobs) == 0 {
			st.recycle(delta)
			return nil
		}
		if err := st.spend(); err != nil {
			return err
		}
		newDelta = st.roundDelta(spare, jobs)
		st.runRound(jobs, res, newDelta, false)
		st.rounds++
		st.recycle(delta)
		spare = delta
	}
}

// update extends the retained fixpoint with a signed base-relation
// delta — the delta-driven maintenance pass. Retractions run first
// through retractPass (DRed: over-delete, re-derive, propagate); then,
// for every rule body occurrence of a changed EDB predicate, the rule
// evaluates with that occurrence restricted to the insert delta (the
// other atoms see the already-updated full relations; under set
// semantics this covers every new combination), and same-name EDB
// deltas of derived predicates seed directly. The new head tuples then
// propagate through ordinary delta rounds. The program is negation-free,
// so once retractions have settled the insert pass is monotone.
//
// onNew observes every genuinely new derived tuple and onDel every
// tuple that actually left the fixpoint (over-deleted tuples that
// re-derive are reported through neither); either hook may be nil, and
// the tuple a hook receives is only valid for the duration of the call.
// A pass that overruns st.budget returns errOverBudget with the state
// and the hooks' view of it half-moved.
func (st *snState) update(ctx context.Context, delta Delta, onNew, onDel func(pred string, t storage.Tuple)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer st.beginPass()()
	if len(delta.Del) > 0 {
		if err := st.retractPass(ctx, delta.Del, onNew, onDel); err != nil {
			return err
		}
	}
	if len(delta.Add) == 0 {
		return nil
	}
	newDelta := make(map[string]*storage.Relation)
	// Same-name EDB deltas of derived predicates seed the IDB directly
	// (the uniform-containment seeding, maintained); the others are what
	// the EDB-delta round below starts from.
	for pred, rel := range delta.Add {
		if !st.cp.idb[pred] {
			continue
		}
		arity, ok := st.cp.arity[pred]
		if !ok || rel.Arity() != arity {
			continue
		}
		idbRel := st.idb.Ensure(pred, arity)
		for _, t := range rel.Tuples() {
			if idbRel.Insert(t) {
				st.deltaRel(newDelta, pred).Insert(t)
			}
		}
	}
	// EDB-delta variants: one job per (rule, changed EDB occurrence).
	var jobs []roundJob
	for _, cr := range st.cp.rules {
		for i, a := range cr.src.Body {
			if st.cp.idb[a.Pred] || delta.Add[a.Pred] == nil {
				continue
			}
			jobs = append(jobs, roundJob{cr: cr, v: cr.variantFor(i, st.cp, st.edb.Syms)})
		}
	}
	if len(jobs) > 0 {
		st.runRound(jobs, st.resolve(&delta.Add), st.roundDelta(newDelta, jobs), false)
		st.rounds++
	}
	return st.deltaLoop(ctx, newDelta, onNew)
}

// ensureStrata lazily builds the deletion-maintenance indexes: Tarjan's
// SCC over the IDB dependency graph (an edge from each rule head to
// each derived body predicate), whose pop order is dependencies-first —
// exactly the order retractPass wants — plus the recursive-component
// marks, the head index, and the ground-fact relations.
func (st *snState) ensureStrata() {
	if st.strata != nil {
		return
	}
	st.rulesByHead = make(map[string][]*compiledRule)
	adj := make(map[string][]string)
	for _, cr := range st.cp.rules {
		st.rulesByHead[cr.headPred] = append(st.rulesByHead[cr.headPred], cr)
		for _, a := range cr.src.Body {
			if st.cp.idb[a.Pred] {
				adj[cr.headPred] = append(adj[cr.headPred], a.Pred)
			}
		}
	}
	preds := make([]string, 0, len(st.cp.idb))
	for pred := range st.cp.idb {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	index := make(map[string]int, len(preds))
	low := make(map[string]int, len(preds))
	onstack := make(map[string]bool)
	var stack []string
	counter := 0
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onstack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onstack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onstack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			st.strata = append(st.strata, comp)
		}
	}
	for _, v := range preds {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	st.recursive = make(map[string]bool, len(preds))
	for _, comp := range st.strata {
		rec := len(comp) > 1
		if !rec {
			for _, w := range adj[comp[0]] {
				if w == comp[0] {
					rec = true
					break
				}
			}
		}
		for _, pred := range comp {
			st.recursive[pred] = rec
		}
	}
	st.factRels = make(map[string]*storage.Relation)
	for _, f := range st.cp.facts {
		t := factTuple(f, st.edb.Syms)
		if st.factRels[f.Head.Pred] == nil {
			st.factRels[f.Head.Pred] = storage.NewRelation(len(t), nil)
		}
		st.factRels[f.Head.Pred].Insert(t)
	}
}

// retractPass is DRed (delete-rederive) over the retained fixpoint,
// stratified: components of the dependency graph settle in
// dependencies-first order, so by the time a component runs, every
// deletion below it is final — a non-recursive component needs exactly
// one over-delete pass and a per-tuple support recheck (the on-demand
// form of counting maintenance: a tuple dies exactly when its last
// derivation does), while a recursive component additionally cascades
// candidates within itself and rederives through the ordinary delta
// rounds. Within a component: (1) collect over-delete candidates from
// the settled deletions, with non-delta atoms reading the OLD state;
// (2) retract all candidates; (3) re-insert every candidate still
// derivable from what remains and propagate those survivors; (4) report
// the tuples that actually died and publish them as settled deletions
// for the components above.
//
// The old state is read, never built: a settled predicate's pre-deletion
// relation is its live relation plus deleted[pred], and a traversal
// probes the two in turn (compiledConj.bindLeft) — work proportional to
// the deletions and what they reach, whatever the relation's size, and
// counted in the base relations' Counters like any other probe. The two
// parts are disjoint (a settled deletion is gone from the live relation;
// the engine nets its Del sets against the current state); a caller's
// Del tuple that is still live, or never was, can only produce a second
// or a phantom solution, hence an extra candidate, which step (3)
// re-derives or finds absent. In-component predicates have no left part:
// their idb relations are untouched until step (2).
func (st *snState) retractPass(ctx context.Context, del map[string]*storage.Relation, onNew, onDel func(pred string, t storage.Tuple)) error {
	st.ensureStrata()
	meter := MeterFrom(ctx)
	syms := st.edb.Syms
	live := st.resolve(nil)
	// from is the table the candidate-collecting traversals' delta atoms
	// read: the settled deletions, then each round-delete table in turn.
	var from map[string]*storage.Relation
	fromRes := st.resolve(&from)

	// deleted holds the FINAL per-predicate deletions: the caller's Del
	// sets for EDB predicates, and — filled in as each component
	// settles — the tuples that actually left each derived predicate.
	deleted := make(map[string]*storage.Relation, len(del))
	for pred, rel := range del {
		if !st.cp.idb[pred] && rel.Len() > 0 {
			deleted[pred] = rel
		}
	}

	done := ctx.Done()
	for _, comp := range st.strata {
		if err := expired(ctx, done); err != nil {
			return err
		}
		rec := st.recursive[comp[0]]
		cand := make(map[string]*storage.Relation)
		// roundDel collects the candidates a cascade round finds, for the
		// next round to start from; spare is the emptied table of the
		// round before, and the two swap.
		roundDel, spare := make(map[string]*storage.Relation), make(map[string]*storage.Relation)
		addCand := func(pred string, t storage.Tuple) {
			if rel := st.idb.Relation(pred); rel == nil || !rel.Contains(t) {
				return
			}
			if st.deltaRel(cand, pred).Insert(t) && rec {
				st.deltaRel(roundDel, pred).Insert(t)
			}
		}
		// collect makes a candidate of every head some rule of the
		// component derives from a tuple of from, the other body atoms
		// reading the old state.
		collect := func(table map[string]*storage.Relation) {
			from = table
			for _, pred := range comp {
				for _, cr := range st.rulesByHead[pred] {
					for i, a := range cr.src.Body {
						if d := from[a.Pred]; d == nil || d.Len() == 0 {
							continue
						}
						cr.variantFor(i, st.cp, syms).derive(fromRes, deleted, &st.tally, func(t storage.Tuple) { addCand(cr.headPred, t) })
					}
				}
			}
		}
		// Same-name removals of a derived predicate un-seed it directly
		// (the uniform-containment seeding, maintained).
		for _, pred := range comp {
			if d := del[pred]; d != nil && d.Arity() == st.cp.arity[pred] {
				for _, t := range d.Tuples() {
					addCand(pred, t)
				}
			}
		}
		// (1) Candidates from the settled deletions below.
		collect(deleted)
		// In-component cascade: candidates beget candidates through the
		// component's own cycles.
		for len(roundDel) > 0 {
			if err := expired(ctx, done); err != nil {
				return err
			}
			fresh := 0
			for _, rd := range roundDel {
				fresh += rd.Len()
			}
			if err := meter.Charge(fresh); err != nil {
				return err
			}
			if err := st.spend(); err != nil {
				return err
			}
			roundDel, spare = spare, roundDel
			collect(spare)
			st.recycle(spare)
		}
		total := 0
		for _, c := range cand {
			total += c.Len()
		}
		if total == 0 {
			continue
		}
		// (2) Over-delete: retract every candidate.
		for pred, c := range cand {
			rel := st.idb.Relation(pred)
			for _, t := range c.Tuples() {
				rel.Retract(t)
			}
		}
		st.overdeleted += total
		// (3) Re-derive: a candidate survives when some derivation
		// remains in the post-deletion state; survivors propagate like
		// any insert delta (rederiving in-component dependents).
		if err := meter.Charge(total); err != nil {
			return err
		}
		rederived := make(map[string]*storage.Relation)
		for pred, c := range cand {
			rel := st.idb.Relation(pred)
			for _, t := range c.Tuples() {
				if st.derivable(live, pred, t) && rel.Insert(t) {
					st.deltaRel(rederived, pred).Insert(t)
					st.rederived++
				}
			}
		}
		if len(rederived) > 0 {
			if err := st.deltaLoop(ctx, rederived, onNew); err != nil {
				return err
			}
		}
		// (4) Settle: report and publish what actually died.
		for pred, c := range cand {
			rel := st.idb.Relation(pred)
			for _, t := range c.Tuples() {
				if rel.Contains(t) {
					continue
				}
				st.deltaRel(deleted, pred).Insert(t)
				if onDel != nil {
					onDel(pred, t)
				}
			}
		}
		st.recycle(cand)
	}
	return ctx.Err()
}

// derivable reports whether t still has a derivation for pred in the
// current state, which live resolves: a same-name EDB seed, a program
// fact, or a rule body witness found by the head-bound satisfiability
// check.
func (st *snState) derivable(live resolver, pred string, t storage.Tuple) bool {
	if seed := st.edb.Relation(pred); seed != nil && seed.Arity() == len(t) && seed.Contains(t) {
		return true
	}
	if fr := st.factRels[pred]; fr != nil && fr.Contains(t) {
		return true
	}
	for _, cr := range st.rulesByHead[pred] {
		if cr.check == nil {
			cr.check = compileHeadCheck(cr.src, st.cp.idb, st.edb.Syms)
		}
		if cr.check.holds(live, &st.tally, t) {
			return true
		}
	}
	return false
}

// roundJob is one unit of a semi-naive round: a rule restricted to one
// of its delta variants.
type roundJob struct {
	cr *compiledRule
	v  ruleVariant
}

// runRound evaluates one semi-naive round's jobs, one after the other. A
// job inserts into the idb and delta relations the later jobs read, and
// bottom-up evaluation is monotone: a tuple seen "early" (inserted by an
// earlier job of the round) can only add derivations that dedup away or
// would otherwise arrive via the next round's delta.
func (st *snState) runRound(jobs []roundJob, res resolver, newDelta map[string]*storage.Relation, firstRound bool) {
	for _, j := range jobs {
		st.applyRule(j.cr, j.v, res, newDelta, firstRound)
	}
}

// applyRule runs the given variant of a rule, inserting derived heads into
// st.idb and recording genuinely new tuples in newDelta (when the head's delta
// relation exists; Naive passes none). When firstRound is true, delta atoms
// resolve to the full relation (the first round evaluates everything
// unrestricted).
func (st *snState) applyRule(cr *compiledRule, v ruleVariant, res resolver, newDelta map[string]*storage.Relation, firstRound bool) {
	arity := len(cr.src.Head.Args)
	headRel := st.idb.Ensure(cr.headPred, arity)
	resolveVariant := res
	if firstRound {
		resolveVariant = func(pred string, alt bool) *storage.Relation {
			return res(pred, false)
		}
	}
	nd := newDelta[cr.headPred]
	v.derive(resolveVariant, nil, &st.tally, func(t storage.Tuple) {
		if headRel.Insert(t) && nd != nil {
			nd.Insert(t)
		}
	})
}

// Naive evaluates the program with the naive strategy: every rule against
// full relations each round, until no new tuples appear. It is the
// baseline the paper's Section 1 contrasts specialized algorithms with.
func Naive(p *ast.Program, edb *storage.Database) (*Result, error) {
	return NaiveCtx(context.Background(), p, edb)
}

// NaiveCtx is Naive with cancellation, checked between rounds. It shares
// the semi-naive state's compilation and seeding and differs in the loop.
func NaiveCtx(ctx context.Context, p *ast.Program, edb *storage.Database) (*Result, error) {
	st, err := newSNState(p, edb)
	if err != nil {
		return nil, err
	}
	defer st.tally.Flush()
	res := st.resolve(nil)
	meter := MeterFrom(ctx)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := st.idb.TupleCount()
		for _, cr := range st.cp.rules {
			st.applyRule(cr, cr.variants[0], res, nil, true)
		}
		st.rounds++
		after := st.idb.TupleCount()
		// Gas: charge the round's genuinely new tuples.
		if err := meter.Charge(after - before); err != nil {
			return nil, err
		}
		if after == before {
			return st.result(), nil
		}
	}
}

// SplitFacts hands each ground fact of a parsed program to fact
// (predicate and constant names, in program order) and returns the
// program without them — data and rules arrive in one source text, and
// each caller admits the data its own way.
func SplitFacts(p *ast.Program, fact func(pred string, consts []string)) *ast.Program {
	rest := ast.NewProgram()
	for _, r := range p.Rules {
		if r.IsFact() {
			names := make([]string, len(r.Head.Args))
			for i, t := range r.Head.Args {
				names[i] = t.Name
			}
			fact(r.Head.Pred, names)
			continue
		}
		rest.Rules = append(rest.Rules, r)
	}
	return rest
}
