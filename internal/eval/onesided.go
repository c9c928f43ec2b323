package eval

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/bitset"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Mode identifies which instantiation of the Fig. 9 schema a compiled
// selection uses.
type Mode int

const (
	// ModeFull: the query binds no column; plain semi-naive evaluation.
	ModeFull Mode = iota
	// ModeReduced: every bound column is persistent (the same variable in
	// that position of the head and the recursive body atom). The constant
	// is substituted into both rules, the column dropped, and the reduced
	// recursion evaluated bottom-up — the Aho–Ullman (Fig. 7) shape: the
	// selection constant surfaces in the exit-rule instances and evaluation
	// proceeds from that end of the expansion strings.
	ModeReduced
	// ModeContext: some bound column is not persistent. The evaluation
	// walks the expansion strings from the selection end, carrying the
	// distinct bindings of the recursive call's constrained columns — the
	// Henschen–Naqvi (Fig. 8) shape.
	ModeContext
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeReduced:
		return "reduced"
	case ModeContext:
		return "context"
	}
	return "unknown"
}

// ErrUnsupported is returned by CompileSelection for queries outside the
// compiler's class (repeated query variables, or recursions that shuffle a
// free head variable into a different recursive-call column — a shape that
// Theorem 3.1 excludes from the one-sided class).
type ErrUnsupported struct{ Reason string }

func (e *ErrUnsupported) Error() string { return "eval: unsupported selection: " + e.Reason }

// Plan is a compiled selection on a recursion, an instantiation of the
// paper's Fig. 9 schema.
//
// A plan compiled from a skeleton query (ast.SlotConst placeholders at
// bound columns) is an adornment-keyed template: NSlots > 0, and Bind
// must instantiate the slot table before evaluation. All the structural
// analysis — mode choice, carry columns, anchors, factoring — depends
// only on which columns are bound, so the template is shared across
// every ground query of the shape.
type Plan struct {
	// Def is the original definition. A Section 5 recursion of several
	// linear rules is planned with its first recursive rule here and the
	// others, which share Def's exit rule, reduced alongside (see more).
	Def *ast.Definition
	// Query is the selection atom (constants at bound columns).
	Query ast.Atom
	// NSlots is the number of late-bound constant slots (0 for a ground
	// plan, which evaluates directly).
	NSlots int
	// Mode is the chosen schema instantiation.
	Mode Mode
	// CarryArity is the arity of the carry/seen state the plan maintains:
	// the paper's headline metric (1 for the canonical recursion, 2 for
	// transitive closure with permissions, wider for many-sided shapes).
	CarryArity int
	// TestIterHook, when non-nil, is called after each completed Fig. 9
	// while-loop iteration with the 1-based iteration number. It exists
	// so tests can observe fixpoint progress relative to streamed
	// answers; production callers leave it nil.
	TestIterHook func(iter int)

	// levelRoom is the capacity the level arenas of the plan's runs have
	// reached (levelWorker.keepRoom), which a run starts its arenas at. A
	// skeleton and every plan bound from it share it, so that a query does
	// not grow its arenas from nothing.
	levelRoom *atomic.Int64

	// Reduction (ModeReduced/ModeContext): the definition after persistent
	// bound columns were substituted and dropped.
	reduced  *ast.Definition
	keepCols []int // original column index of each reduced column
	// more holds a multi-rule recursion's further recursive rules,
	// reduced like reduced.Recursive; a plan with more is ModeReduced.
	more []ast.Rule

	// Context mode internals.
	ctxCols       []int          // reduced recursive-call columns carried, sorted
	fixedCols     map[int]string // reduced call columns holding constants
	foldedAnchors []string       // anchor variables carried with the context
	factored      []factorGroup
	boundCols     map[int]string // reduced head columns bound by the query
}

// factorGroup is a set of recursive-rule EDB atoms independent of the
// context columns; it is evaluated once and cross-multiplied into the
// answers (the d(Z) case of Example 3.4).
type factorGroup struct {
	atoms   []ast.Atom
	anchors []string // anchor variables bound by this group (may be empty)
}

// EvalStats reports the work a plan evaluation performed.
type EvalStats struct {
	// Iterations is the number of Fig. 9 while-loop iterations.
	Iterations int
	// SeenSize is the number of tuples accumulated in seen (state size).
	SeenSize int
	// GProbes is the number of g-join probes a context-mode evaluation
	// performed: one per depth-0 exit join plus one per carried context
	// joined against the exit rule.
	GProbes int
	// CarryArity echoes the plan's state arity.
	CarryArity int
	// Batches is the number of carry batches the level loop walked: the
	// seed batch plus one per Fig. 9 iteration (context mode only).
	Batches int
	// Overdeleted and Rederived are delete-rederive's work over the
	// maintenance passes since the build, cumulative like Iterations:
	// derived tuples the passes took out as candidates for deletion, and
	// those of them put back because another derivation remained. Their
	// difference is what actually left the fixpoint.
	Overdeleted int
	Rederived   int
	// Refixes counts the maintenance passes since the build that overran
	// their round budget and re-ran the Fig. 9 loop instead (context mode
	// only, see Incremental.refix).
	Refixes int
}

// CompileSelection compiles a "column = constant" selection (possibly
// binding several columns) on the recursion into a Fig. 9 plan. The query
// atom must use the definition's predicate with constants at bound columns
// and distinct variables elsewhere.
func CompileSelection(d *ast.Definition, query ast.Atom) (*Plan, error) {
	return compileSelection(d, nil, query)
}

// compileSelection is CompileSelection for a recursion of one or more
// linear rules: d pairs the first recursive rule with the exit rule and
// more holds the others, which share that exit rule. Several rules
// combine the way Section 5 notes they can — through the Section 4
// persistent-column reduction, rule by rule — so with more rules every
// bound column must be persistent in every rule and the plan is
// ModeReduced; any other selection is unsupported.
func compileSelection(d *ast.Definition, more []ast.Rule, query ast.Atom) (*Plan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if query.Pred != d.Pred() || query.Arity() != d.Arity() {
		return nil, fmt.Errorf("eval: query %v does not match predicate %s/%d", query, d.Pred(), d.Arity())
	}
	seenVar := make(map[string]bool)
	for _, a := range query.Args {
		if a.IsVar() {
			if seenVar[a.Name] {
				return nil, &ErrUnsupported{Reason: fmt.Sprintf("repeated query variable %s", a.Name)}
			}
			seenVar[a.Name] = true
		}
	}

	p := &Plan{Def: d, Query: query.Clone(), NSlots: query.SlotCount(), levelRoom: new(atomic.Int64)}
	ad := ast.AdornmentOf(query)
	split := analysis.SplitBinding(d, ad)
	if len(more) > 0 {
		for i, r := range append([]ast.Rule{d.Recursive}, more...) {
			if s := analysis.SplitBinding(&ast.Definition{Recursive: r, Exit: d.Exit}, ad); len(s.Context) > 0 {
				return nil, &ErrUnsupported{Reason: fmt.Sprintf(
					"bound column %d is not persistent in recursive rule %d", s.Context[0]+1, i+1)}
			}
		}
		if len(split.Persistent) == 0 {
			return nil, &ErrUnsupported{Reason: fmt.Sprintf("%d recursive rules and no bound column", len(more)+1)}
		}
	}
	if len(split.Persistent) == 0 && len(split.Context) == 0 {
		p.Mode = ModeFull
		p.CarryArity = d.Arity()
		p.reduced = d.Clone()
		p.keepCols = identityCols(d.Arity())
		return p, nil
	}

	// Reduce persistent bound columns: substitute the constant (or slot
	// placeholder, for a skeleton) for the head variable in each rule,
	// then drop the column everywhere.
	constFor := func(col int) ast.Term { return query.Args[col] }
	p.reduced, p.keepCols = rewrite.ReducePersistent(d, split.Persistent, constFor)
	for _, r := range more {
		red, _ := rewrite.ReducePersistent(&ast.Definition{Recursive: r, Exit: d.Exit}, split.Persistent, constFor)
		p.more = append(p.more, red.Recursive)
	}

	if len(split.Context) == 0 {
		p.Mode = ModeReduced
		p.CarryArity = p.reduced.Arity()
		return p, nil
	}

	p.Mode = ModeContext
	if err := p.compileContext(split.Context, query); err != nil {
		return nil, err
	}
	return p, nil
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// compileContext performs the context-mode analysis on the reduced
// definition: which recursive-call columns to carry, which free head
// variables are anchors, and which atom groups factor out.
func (p *Plan) compileContext(otherBoundOrig []int, query ast.Atom) error {
	red := p.reduced
	head := red.Recursive.Head
	rec := red.RecursiveAtom()
	edbAtoms := red.NonrecursiveBody()
	persistent := red.PersistentColumns()

	// Reduced column index of each original bound column.
	origToRed := make(map[int]int)
	for ri, oi := range p.keepCols {
		origToRed[oi] = ri
	}
	p.boundCols = make(map[int]string)
	for _, oc := range otherBoundOrig {
		p.boundCols[origToRed[oc]] = query.Args[oc].Name
	}

	boundHeadVars := make(map[string]bool)
	for rc := range p.boundCols {
		if v := head.Args[rc]; v.IsVar() {
			boundHeadVars[v.Name] = true
		}
	}
	edbVars := make(map[string]bool)
	for _, a := range edbAtoms {
		for _, t := range a.Args {
			if t.IsVar() {
				edbVars[t.Name] = true
			}
		}
	}

	// Carried call columns and fixed (constant) call columns.
	p.fixedCols = make(map[int]string)
	inS := make(map[int]bool)
	for j, t := range rec.Args {
		if t.IsConst() {
			p.fixedCols[j] = t.Name
			continue
		}
		if edbVars[t.Name] || boundHeadVars[t.Name] {
			p.ctxCols = append(p.ctxCols, j)
			inS[j] = true
		}
	}
	sort.Ints(p.ctxCols)

	// A carried variable that no EDB atom constrains is only determined
	// below depth 1 if its own head column is also carried (its value then
	// flows from the context); otherwise the deeper value is existential
	// and the selection cannot drive this recursion from this side.
	headCol := make(map[string]int)
	for i, t := range head.Args {
		if t.IsVar() {
			headCol[t.Name] = i
		}
	}
	for _, j := range p.ctxCols {
		v := rec.Args[j].Name
		if edbVars[v] {
			continue
		}
		if i, ok := headCol[v]; !ok || !inS[i] {
			return &ErrUnsupported{Reason: fmt.Sprintf(
				"carried call column %d holds head variable %s whose deeper value is existential", j+1, v)}
		}
	}

	// Classify head columns; collect anchors.
	inCall := make(map[string]bool)
	for _, t := range rec.Args {
		if t.IsVar() {
			inCall[t.Name] = true
		}
	}
	var anchors []string
	for i, t := range head.Args {
		if !t.IsVar() {
			continue
		}
		if _, bound := p.boundCols[i]; bound {
			continue
		}
		if persistent[i] {
			continue
		}
		if edbVars[t.Name] {
			anchors = append(anchors, t.Name)
			continue
		}
		if inCall[t.Name] {
			return &ErrUnsupported{Reason: fmt.Sprintf(
				"free head variable %s flows into a different recursive-call column (many-sided shuffle)", t.Name)}
		}
		return &ErrUnsupported{Reason: fmt.Sprintf("free head variable %s unreachable from the body", t.Name)}
	}

	// Factor the EDB atoms into connectivity components; bound head
	// variables act as constants and do not connect atoms.
	comps := atomComponents(edbAtoms, boundHeadVars)
	ctxVars := make(map[string]bool)
	for _, j := range p.ctxCols {
		ctxVars[rec.Args[j].Name] = true
	}
	anchorSet := make(map[string]bool)
	for _, a := range anchors {
		anchorSet[a] = true
	}
	for _, comp := range comps {
		touchesCtx := false
		var compAnchors []string
		vars := make(map[string]bool)
		for _, a := range comp {
			for _, t := range a.Args {
				if t.IsVar() {
					vars[t.Name] = true
				}
			}
		}
		for v := range vars {
			if ctxVars[v] {
				touchesCtx = true
			}
			if anchorSet[v] {
				compAnchors = append(compAnchors, v)
			}
		}
		sort.Strings(compAnchors)
		if touchesCtx {
			p.foldedAnchors = append(p.foldedAnchors, compAnchors...)
			continue
		}
		p.factored = append(p.factored, factorGroup{atoms: comp, anchors: compAnchors})
	}
	sort.Strings(p.foldedAnchors)
	p.CarryArity = len(p.foldedAnchors) + len(p.ctxCols)
	return nil
}

// atomComponents groups atoms into connected components, where two atoms
// connect when they share a variable not in the excluded set.
func atomComponents(atoms []ast.Atom, exclude map[string]bool) [][]ast.Atom {
	n := len(atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := make(map[string]int)
	for i, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() || exclude[t.Name] {
				continue
			}
			if j, ok := byVar[t.Name]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[t.Name] = i
			}
		}
	}
	groups := make(map[int][]ast.Atom)
	var order []int
	for i, a := range atoms {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([][]ast.Atom, 0, len(groups))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// carryNeeded names the variables the carry projection reads: the folded
// anchors plus the context-column variables of the (substituted) call
// atom. Conjunction atoms binding only other variables become existential
// semijoins.
func (p *Plan) carryNeeded(rec ast.Atom) map[string]bool {
	out := make(map[string]bool)
	for _, v := range p.foldedAnchors {
		out[v] = true
	}
	for _, j := range p.ctxCols {
		if t := rec.Args[j]; t.IsVar() {
			out[t.Name] = true
		}
	}
	return out
}

// substBound returns atoms with bound head variables replaced by their
// query constants.
func (p *Plan) substBound(atoms []ast.Atom) []ast.Atom {
	s := make(ast.Subst)
	head := p.reduced.Recursive.Head
	for rc, c := range p.boundCols {
		if v := head.Args[rc]; v.IsVar() {
			s[v.Name] = ast.C(c)
		}
	}
	return s.ApplyAtoms(atoms)
}

// Eval runs the compiled plan over the EDB, returning the answer relation
// (full tuples of the defined predicate matching the selection).
func (p *Plan) Eval(edb *storage.Database) (*storage.Relation, EvalStats, error) {
	return p.EvalCtx(context.Background(), edb)
}

// EvalCtx is Eval with cancellation: the Fig. 9 while loop (and the
// bottom-up fixpoints the other modes delegate to) checks ctx between
// iterations and returns ctx.Err() when it fires.
func (p *Plan) EvalCtx(ctx context.Context, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	return p.EvalStreamCtx(ctx, edb, nil)
}

// EvalStreamCtx is EvalCtx with an incremental answer sink: when emit is
// non-nil it is called exactly once per distinct answer tuple, as soon as
// the tuple is derived. In context mode the exit-rule (depth-0) answers
// and each carry batch's g-join answers are emitted while the fixpoint is
// still running, so consumers see first answers before the final
// iteration; the other modes materialize first and emit afterwards. The
// tuple passed to emit is only valid for the duration of the call (clone
// it to retain); emit may be called from the evaluation goroutine only,
// and returning false stops the evaluation early without error, with the
// answers derived so far.
func (p *Plan) EvalStreamCtx(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (*storage.Relation, EvalStats, error) {
	inc, err := p.build(ctx, edb, emit)
	if err != nil {
		return nil, EvalStats{}, err
	}
	// Reduced and full plans materialize the fixpoint in bulk, then stream.
	if p.Mode != ModeContext && !emitAll(inc.Answers(), emit) {
		// The sink stopped mid-stream; surface a cancellation if the
		// stop came from ctx rather than a deliberate consumer break.
		if cerr := ctx.Err(); cerr != nil {
			return nil, inc.Stats(), cerr
		}
	}
	return inc.Answers(), inc.Stats(), nil
}

// emitAll streams a materialized answer relation through emit, returning
// false when emit stopped the stream early.
func emitAll(ans *storage.Relation, emit func(storage.Tuple) bool) bool {
	if emit == nil || ans == nil {
		return true
	}
	for _, t := range ans.Tuples() {
		if !emit(t) {
			return false
		}
	}
	return true
}

// groupResult is a factored group's materialized anchor bindings.
type groupResult struct {
	anchors []string
	tuples  []storage.Tuple // values of the group's anchors (deduped)
}

// colSrc says where one answer column's value comes from during g-join
// assembly.
type colSrc struct {
	kind int // 0 const, 1 exit slot, 2 folded anchor, 3 factored group
	val  storage.Value
	idx  int // slot / anchor index / group index
	pos  int // position within the factored group
}

// contextEval is one evaluation of a context-mode plan, run on the
// goroutine that asked for it: the seen-set and answer state, plus the
// loop's own memory — the level worker (compiled f and g, their scratch)
// and the carry arena, see level.go. The evaluator is not retained past
// run: callers keep ans and seen and let the rest go.
type contextEval struct {
	p       *Plan
	syms    *storage.SymbolTable
	resolve resolver
	// ops are the compiled operators; nil compiles them afresh at run.
	ops *contextOps

	ans        *storage.Relation
	seen       seenSet
	carryWidth int
	nAnchors   int

	// emit, when non-nil, receives each distinct answer tuple once;
	// stopped latches a false return from it and ends the run.
	emit    func(storage.Tuple) bool
	stopped bool

	stats EvalStats

	groups []groupResult
	srcs   []colSrc

	// w is the level worker, built once the run reaches the loop; carry is
	// the level being read, and claimed the contexts claimed so far — every
	// carry's width summed, which is the seen-set's size. tally counts the
	// probes of every phase — depth 0, factor groups, seed, levels — until
	// run adds them into the database's Counters on its way out.
	w       *levelWorker
	carry   carryBuf
	claimed int
	tally   storage.Tally
}

// contextOps is a bound context-mode plan's compiled Fig. 9 operators.
// They are immutable, so one set serves any number of runs.
type contextOps struct {
	d0   d0Ops
	seed seedOps
	f    fOps
	g    gOps
}

// compileContextOps compiles the depth-0 join, the seed, f and g.
func (p *Plan) compileContextOps(syms *storage.SymbolTable) contextOps {
	return contextOps{d0: p.compileD0(syms), seed: p.compileSeed(syms), f: p.compileF(syms), g: p.compileG(syms)}
}

// d0Ops is the compiled depth-0 exit join of a bound context-mode plan:
// the exit rule with the bound head columns substituted. Immutable after
// compilation.
type d0Ops struct {
	conj     *compiledConj
	headRefs catom
	nslots   int
}

// compileD0 builds the depth-0 join.
func (p *Plan) compileD0(syms *storage.SymbolTable) d0Ops {
	exitHead := p.reduced.Exit.Head
	exitSubst := make(ast.Subst)
	for rc, c := range p.boundCols {
		if v := exitHead.Args[rc]; v.IsVar() {
			exitSubst[v.Name] = ast.C(c)
		}
	}
	d0Atoms := exitSubst.ApplyAtoms(p.reduced.Exit.Body)
	d0Head := exitSubst.ApplyAtom(exitHead)
	ss := newSlotSpace()
	conj := compileConj(d0Atoms, nil, ss, syms, nil, d0Head.VarSet())
	headRefs := compileAtom(d0Head, ss, syms, false)
	return d0Ops{conj: conj, headRefs: headRefs, nslots: len(ss.varSlot)}
}

// run evaluates the compiled depth-0 join, feeding each assembled answer
// tuple to sink. The tuple is scratch; sink copies what it keeps and
// returns false to stop.
func (d d0Ops) run(p *Plan, syms *storage.SymbolTable, resolve resolver, tally *storage.Tally, sink func(storage.Tuple) bool) {
	slots := make([]storage.Value, d.nslots)
	out := queryConsts(p.Query, syms)
	d.conj.run(resolve, tally, slots, func(s []storage.Value) bool {
		for ri, oi := range p.keepCols {
			ref := d.headRefs.args[ri]
			if ref.isConst {
				out[oi] = ref.val
			} else {
				out[oi] = s[ref.slot]
			}
		}
		return sink(out)
	})
}

// evalFactoredGroups materializes the plan's factor groups with the
// selection constants substituted. ok is false when some group is empty,
// in which case no depth >= 1 derivation exists and the caller stops
// after depth 0.
func (p *Plan) evalFactoredGroups(syms *storage.SymbolTable, resolve resolver, tally *storage.Tally) (groups []groupResult, ok bool) {
	for _, fg := range p.factored {
		atoms := p.substBound(fg.atoms)
		ss := newSlotSpace()
		needed := make(map[string]bool)
		for _, v := range fg.anchors {
			needed[v] = true
		}
		conj := compileConj(atoms, nil, ss, syms, nil, needed)
		anchorSlots := make([]int, len(fg.anchors))
		for i, v := range fg.anchors {
			anchorSlots[i] = ss.slot(v)
		}
		rel := storage.NewRelation(len(fg.anchors), nil)
		slots := make([]storage.Value, len(ss.varSlot))
		tup := make(storage.Tuple, len(fg.anchors))
		conj.run(resolve, tally, slots, func(s []storage.Value) bool {
			for i, sl := range anchorSlots {
				tup[i] = s[sl]
			}
			rel.Insert(tup)
			return true
		})
		if rel.Len() == 0 {
			return nil, false
		}
		groups = append(groups, groupResult{anchors: fg.anchors, tuples: rel.Tuples()})
	}
	return groups, true
}

// seedAtoms returns the seed conjunction's atoms: the reduced recursive
// rule's non-factored EDB atoms, before bound-variable substitution.
func (p *Plan) seedAtoms() []ast.Atom {
	factoredIdx := make(map[string]bool)
	for _, fg := range p.factored {
		for _, a := range fg.atoms {
			factoredIdx[a.String()] = true
		}
	}
	var out []ast.Atom
	for _, a := range p.reduced.NonrecursiveBody() {
		if !factoredIdx[a.String()] {
			out = append(out, a)
		}
	}
	return out
}

// seedOps is the compiled seed conjunction — all non-factored EDB atoms
// with the selection constants substituted — plus the carry projection.
// Immutable after compilation.
type seedOps struct {
	conj   *compiledConj
	proj   *carryProj
	nslots int
}

// compileSeed builds the seed conjunction.
func (p *Plan) compileSeed(syms *storage.SymbolTable) seedOps {
	seedAtoms := p.substBound(p.seedAtoms())
	// Bound head variables may occur in the recursive call too; the
	// projection must see them as constants at seed depth.
	seedRec := p.substBound([]ast.Atom{p.reduced.RecursiveAtom()})[0]
	ss := newSlotSpace()
	conj := compileConj(seedAtoms, nil, ss, syms, nil, p.carryNeeded(seedRec))
	return seedOps{conj: conj, proj: p.carryProjection(ss, seedRec, syms), nslots: len(ss.varSlot)}
}

// run evaluates the compiled seed conjunction, yielding each projected
// carry tuple (anchors then context columns). Tuples are scratch and
// may repeat; the caller deduplicates.
func (so seedOps) run(p *Plan, syms *storage.SymbolTable, resolve resolver, tally *storage.Tally, yield func(storage.Tuple)) {
	slots := make([]storage.Value, so.nslots)
	tup := make(storage.Tuple, len(p.foldedAnchors)+len(p.ctxCols))
	so.conj.run(resolve, tally, slots, func(s []storage.Value) bool {
		so.proj.project(s, tup)
		yield(tup)
		return true
	})
}

// fOps is the compiled carry-transition operator f: one application of
// the recursive rule deeper, with the context columns bound from the
// carried tuple.
type fOps struct {
	conj      *compiledConj
	proj      *carryProj
	headSlots []int
	nslots    int
	// rowCols, when f is one atom probed by one context column, is the
	// column of that atom's row each successor context column copies:
	// the level worker then has storage gather those columns
	// (levelWorker.gather). nil for any other f.
	rowCols []int
}

// compileF builds the f operator. It reads only the reduced definition
// and the fixed call columns — never the selection constants at bound
// head columns (those flow through the carried context) — so for a
// slot-free reduced definition the operator is shared verbatim by every
// query of the adornment.
func (p *Plan) compileF(syms *storage.SymbolTable) fOps {
	head := p.reduced.Recursive.Head
	rec := p.reduced.RecursiveAtom()
	edbAtoms := p.reduced.NonrecursiveBody()
	fSS := newSlotSpace()
	// Bind order: context slots first so compileConj treats them as bound.
	initBound := make(map[string]bool)
	for _, j := range p.ctxCols {
		if v := head.Args[j]; v.IsVar() {
			initBound[v.Name] = true
		}
	}
	fixedHead := make(ast.Subst)
	for j, c := range p.fixedCols {
		if v := head.Args[j]; v.IsVar() {
			fixedHead[v.Name] = ast.C(c)
		}
	}
	fAtoms := fixedHead.ApplyAtoms(edbAtoms)
	f := fOps{}
	f.conj = compileConj(fAtoms, nil, fSS, syms, initBound, p.carryNeeded(fixedHead.ApplyAtom(rec)))
	f.proj = p.carryProjection(fSS, fixedHead.ApplyAtom(rec), syms)
	f.headSlots = make([]int, len(p.ctxCols))
	for i, j := range p.ctxCols {
		f.headSlots[i] = fSS.slot(head.Args[j].Name)
	}
	f.nslots = len(fSS.varSlot)
	f.rowCols = rowCols(f.conj, f.proj)
	return f
}

// rowCols maps each context column of a carry projection to the column of
// a one-atom conjunction's row it is read from. It is nil unless the
// conjunction is one non-existential atom with one slot key and no
// repeated variable, and every context column is a variable of that atom
// — then a row matching the key is the solution, column for column.
func rowCols(c *compiledConj, proj *carryProj) []int {
	if len(c.probes) != 1 {
		return nil
	}
	pp := &c.probes[0]
	if len(pp.keys) != 1 || pp.keys[0].ref.isConst || pp.exist || len(pp.eqs) > 0 {
		return nil
	}
	cols := make([]int, len(proj.ctxRefs))
	for i, r := range proj.ctxRefs {
		if r.isConst {
			return nil
		}
		cols[i] = -1
		if r.slot == pp.keys[0].ref.slot {
			cols[i] = pp.keys[0].col
		}
		for _, o := range pp.outs {
			if o.slot == r.slot {
				cols[i] = o.col
			}
		}
		if cols[i] < 0 {
			return nil
		}
	}
	return cols
}

// gOps is the compiled answer-join operator g: the exit rule probed per
// carried context, plus the head-assembly map. Sources of kind 0 (query
// constants) carry no value — the evaluation fills them with its plan's
// constants (fillQueryConsts).
type gOps struct {
	conj     *compiledConj
	ctxSlots []int
	nslots   int
	srcs     []colSrc
}

// compileG builds the g operator against the reduced exit rule.
func (p *Plan) compileG(syms *storage.SymbolTable) gOps {
	head := p.reduced.Recursive.Head
	exitHead := p.reduced.Exit.Head
	gSS := newSlotSpace()
	gInitBound := make(map[string]bool)
	for _, j := range p.ctxCols {
		if v := exitHead.Args[j]; v.IsVar() {
			gInitBound[v.Name] = true
		}
	}
	gFixed := make(ast.Subst)
	for j, c := range p.fixedCols {
		if v := exitHead.Args[j]; v.IsVar() {
			gFixed[v.Name] = ast.C(c)
		}
	}
	gAtoms := gFixed.ApplyAtoms(p.reduced.Exit.Body)
	g := gOps{}
	g.conj = compileConj(gAtoms, nil, gSS, syms, gInitBound, exitHead.VarSet())
	g.ctxSlots = make([]int, len(p.ctxCols))
	for i, j := range p.ctxCols {
		g.ctxSlots[i] = gSS.slot(exitHead.Args[j].Name)
	}

	// Head assembly: for each original column, where does the value come
	// from? Group indices follow p.factored order, which every per-query
	// evaluation of the groups preserves.
	g.srcs = make([]colSrc, p.Def.Arity())
	foldedIdx := make(map[string]int)
	for i, v := range p.foldedAnchors {
		foldedIdx[v] = i
	}
	groupIdx := make(map[string][2]int)
	for gi, fg := range p.factored {
		for pi, v := range fg.anchors {
			groupIdx[v] = [2]int{gi, pi}
		}
	}
	redOf := make(map[int]int)
	for ri, oi := range p.keepCols {
		redOf[oi] = ri
	}
	for oi := 0; oi < p.Def.Arity(); oi++ {
		if a := p.Query.Args[oi]; a.IsConst() {
			g.srcs[oi] = colSrc{kind: 0}
			continue
		}
		ri := redOf[oi]
		hv := head.Args[ri]
		if hv.IsVar() {
			if i, ok := foldedIdx[hv.Name]; ok {
				g.srcs[oi] = colSrc{kind: 2, idx: i}
				continue
			}
			if gp, ok := groupIdx[hv.Name]; ok {
				g.srcs[oi] = colSrc{kind: 3, idx: gp[0], pos: gp[1]}
				continue
			}
		}
		// Persistent column: the exit rule binds it.
		ev := exitHead.Args[ri]
		g.srcs[oi] = colSrc{kind: 1, idx: gSS.slot(ev.Name)}
	}
	g.nslots = len(gSS.varSlot)
	return g
}

// queryConsts returns, for each original column whose source is a query
// constant (colSrc kind 0), the interned value; other columns are zero.
func queryConsts(query ast.Atom, syms *storage.SymbolTable) storage.Tuple {
	out := make(storage.Tuple, query.Arity())
	for i, a := range query.Args {
		if a.IsConst() {
			out[i] = syms.Intern(a.Name)
		}
	}
	return out
}

// newContextEval constructs the evaluation state for a bound
// context-mode plan: the answer and seen relations plus the environment
// the compiled operators run in. run executes the Fig. 9 loop; the
// seen-set and answers it reaches are retained afterwards and adopted
// by the incremental layer (Plan.build).
func (p *Plan) newContextEval(edb *storage.Database, emit func(storage.Tuple) bool) *contextEval {
	syms := edb.Syms
	ce := &contextEval{
		p:       p,
		syms:    syms,
		resolve: func(pred string, alt bool) *storage.Relation { return edb.Relation(pred) },
		emit:    emit,
		ans:     storage.NewRelation(p.Def.Arity(), &edb.Stats),
		tally:   edb.Stats.Tally(),
	}
	ce.nAnchors = len(p.foldedAnchors)
	ce.carryWidth = ce.nAnchors + len(p.ctxCols)
	if ce.carryWidth == 1 {
		// Unary carry: the seen-set is a bitset over the dense interned
		// Value space — the Fig. 9 membership test becomes a word
		// operation. Sized to the symbol table now; it grows if a value
		// interned later ever reaches it.
		ce.seen = &bitsetSeen{set: bitset.NewSet(syms.Len())}
	} else {
		ce.seen = storage.NewRelation(ce.carryWidth, nil)
	}
	ce.stats = EvalStats{CarryArity: p.CarryArity}
	return ce
}

// seenSet is the carry-loop dedup/claim set: Offer returns true exactly
// once per tuple, and Tuples materializes the members (the incremental
// layer adopts them as the context program's context relation, and a
// refix folds them in with Contains). The loop counts what it claimed
// itself (contextEval.claimed). *storage.Relation implements it directly;
// bitsetSeen replaces the relation for unary carries.
type seenSet interface {
	Offer(storage.Tuple) bool
	Contains(storage.Tuple) bool
	Tuples() []storage.Tuple
}

// bitsetSeen adapts bitset.Set to seenSet for width-1 carry tuples.
type bitsetSeen struct {
	set *bitset.Set
}

func (b *bitsetSeen) Offer(t storage.Tuple) bool { return b.set.Add(int(t[0])) }

func (b *bitsetSeen) Contains(t storage.Tuple) bool { return b.set.Has(int(t[0])) }

func (b *bitsetSeen) Tuples() []storage.Tuple {
	arena := make([]storage.Value, 0, b.set.Len())
	out := make([]storage.Tuple, 0, b.set.Len())
	b.set.Range(func(v int) bool {
		n := len(arena)
		arena = append(arena, storage.Value(v))
		out = append(out, arena[n:n+1:n+1])
		return true
	})
	return out
}

// run executes the full Fig. 9 evaluation over the state: seed the carry
// from the first application of the recursive rule (restricted by the
// selection constants), then per level join the new contexts with the
// exit rule (g, emitting answers incrementally) and apply the recursive
// rule one level deeper (f) until no new contexts appear. The seen-set
// deduplicates the contexts, and the depth-0 answers from the exit rule
// alone are emitted before the loop starts.
func (ce *contextEval) run(ctx context.Context) (*storage.Relation, EvalStats, error) {
	p, syms := ce.p, ce.syms
	defer ce.tally.Flush()

	// An already-expired context must fail even when the evaluation would
	// finish without entering the while loop (empty carry): the serving
	// layer relies on deadline errors surfacing deterministically.
	if err := ctx.Err(); err != nil {
		return nil, ce.stats, err
	}

	// Gas: the derived-tuple budget is charged at batch granularity — the
	// growth of the seen-set plus the answer set since the last charge —
	// so one check per Fig. 9 iteration bounds a runaway recursion. A
	// level does not charge when there is no meter.
	meter := MeterFrom(ctx)
	charged := 0
	charge := func() error {
		cur := ce.claimed + ce.ans.Len()
		err := meter.Charge(cur - charged)
		charged = cur
		return err
	}

	var ops contextOps
	if ce.ops != nil {
		ops = *ce.ops
	} else {
		ops = p.compileContextOps(syms)
	}

	// Depth-0: exit rule with the bound head columns substituted. These
	// are the first streamed answers — no fixpoint work precedes them.
	ce.stats.GProbes++
	ops.d0.run(p, syms, ce.resolve, &ce.tally, ce.emitAnswer)
	if ce.stopped {
		return ce.finish(ctx)
	}
	if err := charge(); err != nil {
		return nil, ce.stats, err
	}

	// Factored groups: evaluate once with the selection constants; any
	// empty group kills all depth>=1 derivations.
	groups, ok := p.evalFactoredGroups(syms, ce.resolve, &ce.tally)
	if !ok {
		// No depth>=1 derivations are possible; answers are depth-0 only.
		return ce.finish(ctx)
	}
	ce.groups = groups

	// Fill the query-constant sources (kind 0) with this plan's values.
	ce.srcs = fillQueryConsts(ops.g.srcs, queryConsts(p.Query, syms))
	// The two halves of a level. A context is claimed through the seen-set
	// (levelWorker.claim): Offer returns true exactly once per tuple, so
	// the next level is a set. Only g's answers can stop the evaluation.
	w := newLevelWorker(&ops.f, &ops.g, ce.nAnchors, p.Def.Arity(), &ce.carry, ce.seen, ce.resolve, &ce.tally)
	ce.w = w
	w.size(p.levelRoom)
	w.f.emit = func(s []storage.Value) bool {
		w.claim(w.successor(s))
		return true
	}
	w.g.emit = func(s []storage.Value) bool {
		return ce.emitProducts(0, s, w.anchors, w.out)
	}

	// Seed contexts, claimed exactly as a level's successors are and
	// collected in the same buffer.
	ops.seed.run(p, syms, ce.resolve, &ce.tally, w.claim)
	w.advance()
	ce.claimed += ce.carry.n

	// Fig. 9 while loop, one batch per level: g joins the new contexts
	// (streaming their answers), f produces the next level. A level of
	// one context — every level of a chain — is stepped alone (lone),
	// and a unary one's successors are claimed where the carry is.
	ce.stats.Batches++
	ce.stats.GProbes += ce.carry.n
	w.exits()
	poll := newPoll(ctx)
	defer poll.stop()
	for ce.carry.n > 0 && !ce.stopped {
		if err := poll.err(); err != nil {
			return nil, ce.stats, err
		}
		if meter != nil {
			if err := charge(); err != nil {
				ce.stats.SeenSize = ce.claimed
				return nil, ce.stats, err
			}
		}
		ce.stats.Iterations++
		ce.stats.Batches++
		switch {
		case ce.carry.n != 1:
			w.expand()
		case !w.lone(&w.f, 0):
			w.advance()
		}
		ce.claimed += ce.carry.n
		if p.TestIterHook != nil {
			p.TestIterHook(ce.stats.Iterations)
		}
		ce.stats.GProbes += ce.carry.n
		if ce.carry.n != 1 {
			w.exits()
		} else {
			w.lone(&w.g, 0)
		}
	}
	if err := charge(); err != nil {
		ce.stats.SeenSize = ce.claimed
		return nil, ce.stats, err
	}
	return ce.finish(ctx)
}

// fillQueryConsts copies a g operator's source table with the kind-0
// (query constant) entries holding the plan's interned values.
func fillQueryConsts(srcs []colSrc, qc storage.Tuple) []colSrc {
	out := make([]colSrc, len(srcs))
	copy(out, srcs)
	for oi := range out {
		if out[oi].kind == 0 {
			out[oi].val = qc[oi]
		}
	}
	return out
}

// finish closes out a context-mode evaluation. A stop latched by the
// emit sink is a clean early stop when the consumer asked for it, but a
// cancellation when ctx fired — the two reach emitAnswer the same way,
// so the distinction is recovered from ctx itself.
func (ce *contextEval) finish(ctx context.Context) (*storage.Relation, EvalStats, error) {
	ce.stats.SeenSize = ce.claimed
	if ce.w != nil {
		ce.w.keepRoom(ce.p.levelRoom)
	}
	if ce.stopped {
		if err := ctx.Err(); err != nil {
			return nil, ce.stats, err
		}
	}
	return ce.ans, ce.stats, nil
}

// emitProducts assembles answers for one g-join solution, crossing in the
// factored groups, and routes them through emitAnswer. out is the
// caller's scratch tuple. Returns false when the evaluation should stop.
func (ce *contextEval) emitProducts(gi int, s []storage.Value, anchorPart, out storage.Tuple) bool {
	if gi == len(ce.groups) {
		for oi, src := range ce.srcs {
			switch src.kind {
			case 0:
				out[oi] = src.val
			case 1:
				out[oi] = s[src.idx]
			case 2:
				out[oi] = anchorPart[src.idx]
			}
		}
		return ce.emitAnswer(out)
	}
	for _, gt := range ce.groups[gi].tuples {
		for oi, src := range ce.srcs {
			if src.kind == 3 && src.idx == gi {
				out[oi] = gt[src.pos]
			}
		}
		if !ce.emitProducts(gi+1, s, anchorPart, out) {
			return false
		}
	}
	return true
}

// emitAnswer records one answer tuple, forwarding genuinely new tuples to
// the streaming sink. Returns false once the sink has asked to stop.
func (ce *contextEval) emitAnswer(out storage.Tuple) bool {
	// Offer, not Insert: answer emission is duplicate-heavy, and Offer
	// finds a duplicate without taking the relation's write lock.
	if ce.ans.Offer(out) && ce.emit != nil && !ce.emit(out) {
		ce.stopped = true
	}
	return !ce.stopped
}

// carryProj maps conjunction solutions to carry tuples.
type carryProj struct {
	anchorSlots []int
	ctxRefs     []argRef
}

// carryProjection computes slot references for the folded anchors and the
// context columns of the recursive call.
func (p *Plan) carryProjection(ss *slotSpace, rec ast.Atom, syms *storage.SymbolTable) *carryProj {
	cp := &carryProj{}
	for _, v := range p.foldedAnchors {
		cp.anchorSlots = append(cp.anchorSlots, ss.slot(v))
	}
	for _, j := range p.ctxCols {
		t := rec.Args[j]
		if t.IsConst() {
			cp.ctxRefs = append(cp.ctxRefs, argRef{isConst: true, val: syms.Intern(t.Name)})
		} else {
			cp.ctxRefs = append(cp.ctxRefs, argRef{slot: ss.slot(t.Name)})
		}
	}
	return cp
}

// project fills a carry tuple (anchors then ctx) from a solution.
func (cp *carryProj) project(s []storage.Value, tup storage.Tuple) {
	for i, sl := range cp.anchorSlots {
		tup[i] = s[sl]
	}
	cp.fillCtx(s, tup, len(cp.anchorSlots))
}

// projectCtx fills a carry tuple using a fixed anchor part.
func (cp *carryProj) projectCtx(s []storage.Value, anchorPart storage.Tuple, tup storage.Tuple) {
	copy(tup, anchorPart)
	cp.fillCtx(s, tup, len(anchorPart))
}

func (cp *carryProj) fillCtx(s []storage.Value, tup storage.Tuple, off int) {
	for i, r := range cp.ctxRefs {
		if r.isConst {
			tup[off+i] = r.val
		} else {
			tup[off+i] = s[r.slot]
		}
	}
}

// OneSidedEval compiles and evaluates a selection in one call.
func OneSidedEval(d *ast.Definition, query ast.Atom, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	plan, err := CompileSelection(d, query)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return plan.Eval(edb)
}

// OneSidedEvalCtx is OneSidedEval with cancellation.
func OneSidedEvalCtx(ctx context.Context, d *ast.Definition, query ast.Atom, edb *storage.Database) (*storage.Relation, EvalStats, error) {
	plan, err := CompileSelection(d, query)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return plan.EvalCtx(ctx, edb)
}
