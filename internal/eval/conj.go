package eval

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
)

// argRef is a compiled atom argument: a constant value or a variable slot.
type argRef struct {
	isConst bool
	val     storage.Value
	slot    int
}

// catom is a compiled atom: predicate plus argument references. alt marks
// the atom to be resolved against the alternate (delta) relation by the
// resolver; idb marks derived predicates (an ordering tie-break, see
// compileConj: derived relations — magic sets in particular — are skewed
// toward the query constants, which makes them poor probe targets).
type catom struct {
	pred string
	args []argRef
	alt  bool
	idb  bool
}

// probePlan is what compileConj knows of an atom at its place in the
// order: which arguments are bound when the walk reaches it. Boundness is
// static — the order is fixed from the slots bound on entry, every caller
// enters with exactly those, and an atom binds all of its variables — so
// the walk never asks whether a slot is bound: it probes by keys, rejects
// a row that breaks eqs, and copies outs.
type probePlan struct {
	// keys are the bound arguments, the probe's bindings: constants and
	// slots bound on entry or by an earlier atom.
	keys []probeKey
	// outs are the first occurrences of the variables the atom binds.
	outs []colSlot
	// eqs pair each further occurrence of such a variable with its first:
	// p(X, X) keeps the rows whose two columns agree.
	eqs [][2]int
	// exist marks an atom none of whose bindings are read by later atoms
	// or by the caller's projection: the first matching tuple suffices (a
	// semijoin). This is what keeps the Example 3.4 d-lookup a
	// nonemptiness check instead of a scan per iteration.
	exist bool
	// off is the atom's segment offset into conjScratch.keys.
	off int
}

// probeKey is one bound argument: column col holds the constant ref.val
// or the value of slot ref.slot.
type probeKey struct {
	col int
	ref argRef
}

// colSlot says column col's value goes to slot.
type colSlot struct{ col, slot int }

// accept applies the plan's free arguments to a row matching its keys:
// false when a repeated variable's columns disagree, else the row's
// values are in their slots — t, the lookup's reused buffer, is done with
// before the walk probes again.
func (pp *probePlan) accept(t storage.Tuple, slots []storage.Value) bool {
	for _, e := range pp.eqs {
		if t[e[0]] != t[e[1]] {
			return false
		}
	}
	for _, o := range pp.outs {
		slots[o.slot] = t[o.col]
	}
	return true
}

// compiledConj is a conjunction compiled against a variable-slot space and
// ordered for evaluation.
type compiledConj struct {
	nslots  int
	varSlot map[string]int
	atoms   []catom
	// probes[i] is atom i's probe plan.
	probes []probePlan
	// totalKeys is the length of a scratch's binding array and maxArity
	// the widest atom (the lookup buffer size).
	totalKeys int
	maxArity  int
}

// conjScratch is the reusable per-traversal state of a conjunction
// evaluation: each atom's relation as bind last resolved it (and, for a
// traversal over a pre-deletion state, the tuples that have left it, see
// bindLeft), the tally its probes are counted in, per-atom probe bindings
// carved out of one backing array — columns and constants filled in once,
// here — plus the buffer storage lookups yield rows into. One scratch
// serves the whole step recursion — each atom index owns a disjoint
// segment, and a yielded row is fully consumed before the next lookup
// overwrites the buffer — but it must not be shared across goroutines.
// Hot callers hold one per operator, bind it once per evaluation and
// reuse it across contexts via step; run itself makes a fresh one per call.
type conjScratch struct {
	rels   []*storage.Relation
	left   []*storage.Relation // nil until bindLeft
	tally  *storage.Tally
	keys   []storage.Binding
	tupBuf storage.Tuple
}

// newScratch allocates a scratch sized for this conjunction. bind it
// before the first step.
func (c *compiledConj) newScratch() *conjScratch {
	sc := &conjScratch{
		rels:   make([]*storage.Relation, len(c.atoms)),
		keys:   make([]storage.Binding, c.totalKeys),
		tupBuf: make(storage.Tuple, c.maxArity),
	}
	for i := range c.probes {
		pp := &c.probes[i]
		for j, k := range pp.keys {
			sc.keys[pp.off+j] = storage.Binding{Col: k.col, Val: k.ref.val}
		}
	}
	return sc
}

// bind resolves every atom's relation into sc, once for all the
// traversals that follow: the hot loop reads a slice element instead of
// taking the database's lock and hashing the predicate name per atom per
// context. A relation object lives as long as its database, so the
// resolution stays valid for the evaluation; callers whose resolver
// changes between traversals (a semi-naive round's delta table) bind
// again before each. tally is where those traversals count their probes:
// the calling goroutine's own (see tallies), or nil to count in the
// relations' shared Counters.
func (c *compiledConj) bind(sc *conjScratch, res resolver, tally *storage.Tally) {
	for i := range c.atoms {
		sc.rels[i] = res(c.atoms[i].pred, c.atoms[i].alt)
	}
	sc.tally = tally
}

// bindLeft makes the traversals that follow read every non-delta atom's
// relation as it was before a deletion: the atom ranges over what bind
// resolved it to — the live tuples — and then over left[pred], the tuples
// that left it. Nothing is copied or re-indexed; step probes the second
// relation with the bindings it probed the first with. The two parts are
// disjoint when left holds exactly what was retracted; if they overlap, a
// solution is merely found twice.
func (c *compiledConj) bindLeft(sc *conjScratch, left map[string]*storage.Relation) {
	if sc.left == nil {
		sc.left = make([]*storage.Relation, len(c.atoms))
	}
	for i := range c.atoms {
		if !c.atoms[i].alt {
			sc.left[i] = left[c.atoms[i].pred]
		}
	}
}

// resolver locates the relation for a predicate; alt requests the delta
// variant during semi-naive evaluation. A nil return means an empty
// relation.
type resolver func(pred string, alt bool) *storage.Relation

// slotSpace assigns slots to variable names across a rule.
type slotSpace struct {
	varSlot map[string]int
}

func newSlotSpace() *slotSpace { return &slotSpace{varSlot: make(map[string]int)} }

func (ss *slotSpace) slot(v string) int {
	if s, ok := ss.varSlot[v]; ok {
		return s
	}
	s := len(ss.varSlot)
	ss.varSlot[v] = s
	return s
}

// compileAtom compiles one atom against the slot space, interning constants.
func compileAtom(a ast.Atom, ss *slotSpace, syms *storage.SymbolTable, alt bool) catom {
	args := make([]argRef, len(a.Args))
	for i, t := range a.Args {
		if t.IsConst() {
			args[i] = argRef{isConst: true, val: syms.Intern(t.Name)}
		} else {
			args[i] = argRef{slot: ss.slot(t.Name)}
		}
	}
	return catom{pred: a.Pred, args: args, alt: alt}
}

// compileConjOpts carries optional per-atom metadata for compileConj.
type compileConjOpts struct {
	// altFlags marks delta atoms (pinned to the front).
	altFlags []bool
	// idbFlags marks derived-predicate atoms (they lose ordering ties
	// among atoms with a bound argument).
	idbFlags []bool
}

// compileConj compiles a conjunction of atoms, ordering them greedily so
// that atoms whose variables are already bound (by initBound slots or by
// earlier atoms) come first; atoms tagged alt (delta atoms) are pinned to
// the front. Among atoms with a bound argument, derived-predicate atoms
// lose ordering ties to base atoms (derived relations, magic sets
// especially, are skewed toward the query constants and make poor probe
// targets); among atoms with none, written order decides. Greedy
// bound-first ordering is what makes the selection constant restrict the
// evaluation (Property 3). needed names the variables the caller reads
// from solutions (nil means all).
func compileConj(atoms []ast.Atom, opts *compileConjOpts, ss *slotSpace, syms *storage.SymbolTable, initBound map[string]bool, needed map[string]bool) *compiledConj {
	cs := make([]catom, len(atoms))
	for i, a := range atoms {
		alt := opts != nil && opts.altFlags != nil && opts.altFlags[i]
		cs[i] = compileAtom(a, ss, syms, alt)
		if opts != nil && opts.idbFlags != nil {
			cs[i].idb = opts.idbFlags[i]
		}
	}

	bound := make(map[int]bool)
	for v, b := range initBound {
		if b {
			bound[ss.slot(v)] = true
		}
	}
	c := &compiledConj{varSlot: ss.varSlot}
	remaining := append([]catom{}, cs...)
	// Pin delta atoms first (they are the small relations).
	sort.SliceStable(remaining, func(i, j int) bool { return remaining[i].alt && !remaining[j].alt })
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, c := range remaining {
			if i > 0 && c.alt != remaining[0].alt && remaining[0].alt {
				break // keep delta atoms at the front as a block
			}
			score := 0
			for _, a := range c.args {
				if a.isConst || bound[a.slot] {
					score += 2
				}
			}
			// Tie-break: probe base relations before derived ones.
			if score > 0 && !c.idb {
				score++
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		// The atom's probe plan, from what is bound on reaching it.
		pp := probePlan{off: c.totalKeys}
		first := make(map[int]int) // slot -> column of its first occurrence in the atom
		for col, a := range chosen.args {
			if a.isConst || bound[a.slot] {
				pp.keys = append(pp.keys, probeKey{col: col, ref: a})
			} else if at, again := first[a.slot]; again {
				pp.eqs = append(pp.eqs, [2]int{col, at})
			} else {
				first[a.slot] = col
				pp.outs = append(pp.outs, colSlot{col: col, slot: a.slot})
			}
		}
		for slot := range first {
			bound[slot] = true
		}
		c.atoms, c.probes = append(c.atoms, chosen), append(c.probes, pp)
		c.totalKeys += len(pp.keys)
		c.maxArity = max(c.maxArity, len(chosen.args))
	}
	c.nslots = len(ss.varSlot)
	if needed != nil {
		// neededAfter accumulates slots read after position i: the
		// caller's projection plus every later atom's variables.
		neededAfter := make(map[int]bool)
		for v := range needed {
			neededAfter[ss.slot(v)] = true
		}
		for i := len(c.atoms) - 1; i >= 0; i-- {
			ex := true
			for _, a := range c.atoms[i].args {
				if !a.isConst && neededAfter[a.slot] {
					ex = false
				}
			}
			c.probes[i].exist = ex
			for _, a := range c.atoms[i].args {
				if !a.isConst {
					neededAfter[a.slot] = true
				}
			}
		}
	}
	return c
}

// run evaluates the conjunction. slots carries the values of the slots
// bound on entry (length >= nslots); emit is called with the full slot
// array for every solution and may return false to stop. The slot array
// is reused; emit must copy what it keeps. run allocates and binds a
// fresh scratch per call — callers that evaluate many contexts hold one
// scratch per goroutine and call step.
func (c *compiledConj) run(res resolver, tally *storage.Tally, slots []storage.Value, emit func([]storage.Value) bool) {
	sc := c.newScratch()
	c.bind(sc, res, tally)
	c.step(0, slots, sc, emit)
}

// step walks the conjunction from atom i on with caller-owned, bound
// scratch (one per goroutine) — the zero-allocation traversal path: 0
// evaluates it whole; a driver that has probed atom 0 itself and accepted
// a row (probePlan.accept) continues that solution at 1. It reports false
// when emit stopped the walk.
func (c *compiledConj) step(i int, slots []storage.Value, sc *conjScratch, emit func([]storage.Value) bool) bool {
	if i == len(c.atoms) {
		return emit(slots)
	}
	pp := &c.probes[i]
	rel := sc.rels[i]
	var left *storage.Relation
	if sc.left != nil {
		left = sc.left[i]
	}
	if rel == nil && left == nil {
		return true
	}
	bindings := sc.keys[pp.off : pp.off+len(pp.keys)]
	for j, k := range pp.keys {
		if !k.ref.isConst {
			bindings[j].Val = slots[k.ref.slot]
		}
	}
	cont, witnessed := true, false
	visit := func(t storage.Tuple) bool {
		if !pp.accept(t, slots) {
			return true
		}
		cont = c.step(i+1, slots, sc, emit)
		// An existential atom binds nothing anyone reads: the first
		// matching tuple decides the rest of the evaluation, so stop
		// iterating.
		if pp.exist {
			witnessed = true
			return false
		}
		return cont
	}
	if rel != nil {
		rel.LookupTally(bindings, sc.tupBuf, sc.tally, visit)
	}
	if left != nil && cont && !witnessed {
		left.LookupTally(bindings, sc.tupBuf, sc.tally, visit)
	}
	return cont
}
