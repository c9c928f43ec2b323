package eval

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// EvalCounting runs a context-mode plan with the Counting method's state
// discipline [BMSU86, SZ86] instead of the Fig. 9 seen-set: carry tuples
// are kept per derivation level with no cross-level deduplication, and the
// answer join runs over every level. On acyclic context graphs this
// matches Eval exactly; on cyclic ones it diverges, which is why the paper
// positions Counting as an alternative whose applicability is narrower.
//
// This is also the executable form of the paper's Section 4 open question
// (raised in [NRSU89] and by a referee): deleting the counting fields from
// the counting-transformed program yields exactly the Fig. 9 seen-set
// evaluation — compare EvalCounting (levels kept) with Eval (levels
// merged).
//
// maxDepth bounds the number of levels; exceeding it returns an error
// (divergence on cyclic data).
func (p *Plan) EvalCounting(edb *storage.Database, maxDepth int) (*storage.Relation, EvalStats, error) {
	return p.EvalCountingCtx(context.Background(), edb, maxDepth)
}

// EvalCountingCtx is EvalCounting with cancellation, checked per level.
func (p *Plan) EvalCountingCtx(ctx context.Context, edb *storage.Database, maxDepth int) (*storage.Relation, EvalStats, error) {
	if p.Mode != ModeContext {
		return nil, EvalStats{}, fmt.Errorf("eval: counting evaluation requires a context-mode plan (have %v)", p.Mode)
	}
	// Reuse the context machinery but accumulate per-level relations.
	// Implementation note: this duplicates the driver loop of contextEval.run
	// rather than the compiled operators, which are shared.
	return p.evalContextCounting(ctx, edb, maxDepth)
}

// evalContextCounting mirrors contextEval.run with level-indexed state.
func (p *Plan) evalContextCounting(ctx context.Context, edb *storage.Database, maxDepth int) (*storage.Relation, EvalStats, error) {
	red := p.reduced
	syms := edb.Syms
	stats := EvalStats{CarryArity: p.CarryArity}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	ans := storage.NewRelation(p.Def.Arity(), &edb.Stats)
	resolve := func(pred string, alt bool) *storage.Relation { return edb.Relation(pred) }

	rec := red.RecursiveAtom()
	head := red.Recursive.Head
	edbAtoms := red.NonrecursiveBody()
	exitHead := red.Exit.Head

	// Depth-0 answers: Eval's own exit join.
	p.compileD0(syms).run(p, syms, resolve, nil, func(t storage.Tuple) bool {
		ans.Insert(t)
		return true
	})

	// Factored groups.
	for _, fg := range p.factored {
		atoms := p.substBound(fg.atoms)
		ss := newSlotSpace()
		conj := compileConj(atoms, nil, ss, syms, nil, map[string]bool{})
		found := false
		slots := make([]storage.Value, len(ss.varSlot))
		conj.run(resolve, nil, slots, func([]storage.Value) bool {
			found = true
			return false
		})
		if !found {
			return ans, stats, nil
		}
	}
	// For simplicity the counting driver folds factored-group anchors into
	// the carry (no factoring optimization): rebuild a plan without
	// factoring when factored anchors exist.
	for _, fg := range p.factored {
		if len(fg.anchors) > 0 {
			return nil, stats, fmt.Errorf("eval: counting driver does not support factored anchors; use Eval")
		}
	}

	carryWidth := len(p.foldedAnchors) + len(p.ctxCols)

	// Seed level.
	var level []storage.Tuple
	{
		factoredIdx := make(map[string]bool)
		for _, fg := range p.factored {
			for _, a := range fg.atoms {
				factoredIdx[a.String()] = true
			}
		}
		var seedAtoms []ast.Atom
		for _, a := range edbAtoms {
			if !factoredIdx[a.String()] {
				seedAtoms = append(seedAtoms, a)
			}
		}
		seedAtoms = p.substBound(seedAtoms)
		seedRec := p.substBound([]ast.Atom{rec})[0]
		ss := newSlotSpace()
		conj := compileConj(seedAtoms, nil, ss, syms, nil, p.carryNeeded(seedRec))
		proj := p.carryProjection(ss, seedRec, syms)
		slots := make([]storage.Value, len(ss.varSlot))
		tup := make(storage.Tuple, carryWidth)
		dedup := storage.NewRelation(carryWidth, nil)
		conj.run(resolve, nil, slots, func(s []storage.Value) bool {
			proj.project(s, tup)
			if dedup.Insert(tup) {
				level = append(level, tup.Clone())
			}
			return true
		})
	}

	// Transition machinery (as in contextEval.run).
	fSS := newSlotSpace()
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
	fConj := compileConj(fAtoms, nil, fSS, syms, initBound, p.carryNeeded(fixedHead.ApplyAtom(rec)))
	fProj := p.carryProjection(fSS, fixedHead.ApplyAtom(rec), syms)
	fHeadSlots := make([]int, len(p.ctxCols))
	for i, j := range p.ctxCols {
		fHeadSlots[i] = fSS.slot(head.Args[j].Name)
	}

	// Answer machinery.
	gSS := newSlotSpace()
	gInit := make(map[string]bool)
	for _, j := range p.ctxCols {
		if v := exitHead.Args[j]; v.IsVar() {
			gInit[v.Name] = true
		}
	}
	gFixed := make(ast.Subst)
	for j, c := range p.fixedCols {
		if v := exitHead.Args[j]; v.IsVar() {
			gFixed[v.Name] = ast.C(c)
		}
	}
	gAtoms := gFixed.ApplyAtoms(red.Exit.Body)
	gConj := compileConj(gAtoms, nil, gSS, syms, gInit, exitHead.VarSet())
	gCtxSlots := make([]int, len(p.ctxCols))
	for i, j := range p.ctxCols {
		gCtxSlots[i] = gSS.slot(exitHead.Args[j].Name)
	}
	emit := p.answerAssembler(gSS, syms)

	gSlots := make([]storage.Value, len(gSS.varSlot))
	answerLevel := func(tuples []storage.Tuple) {
		for _, c := range tuples {
			for i, sl := range gCtxSlots {
				gSlots[sl] = c[len(p.foldedAnchors)+i]
			}
			anchorPart := c[:len(p.foldedAnchors)]
			gConj.run(resolve, nil, gSlots, func(s []storage.Value) bool {
				emit(s, anchorPart, ans)
				return true
			})
		}
	}

	// Level loop: no cross-level dedup (the counting discipline). Gas is
	// charged per level: the level's carry tuples plus the answers its
	// g-join produced.
	meter := MeterFrom(ctx)
	ansCharged := ans.Len()
	for depth := 0; len(level) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if depth > maxDepth {
			return nil, stats, fmt.Errorf("eval: counting exceeded depth %d (cyclic context graph)", maxDepth)
		}
		stats.Iterations++
		stats.SeenSize += len(level)
		answerLevel(level)
		if err := meter.Charge(len(level) + ans.Len() - ansCharged); err != nil {
			return nil, stats, err
		}
		ansCharged = ans.Len()

		var next []storage.Tuple
		slots := make([]storage.Value, len(fSS.varSlot))
		tup := make(storage.Tuple, carryWidth)
		dedup := storage.NewRelation(carryWidth, nil) // within-level dedup only
		for _, c := range level {
			for i, sl := range fHeadSlots {
				slots[sl] = c[len(p.foldedAnchors)+i]
			}
			anchorPart := c[:len(p.foldedAnchors)]
			fConj.run(resolve, nil, slots, func(s []storage.Value) bool {
				fProj.projectCtx(s, anchorPart, tup)
				if dedup.Insert(tup) {
					next = append(next, tup.Clone())
				}
				return true
			})
		}
		level = next
	}
	return ans, stats, nil
}

// answerAssembler builds the per-column answer sources against the g slot
// space (shared by Eval and EvalCounting drivers). It supports plans
// without factored anchor groups.
func (p *Plan) answerAssembler(gSS *slotSpace, syms *storage.SymbolTable) func(s []storage.Value, anchorPart storage.Tuple, ans *storage.Relation) {
	head := p.reduced.Recursive.Head
	exitHead := p.reduced.Exit.Head
	type colSrc struct {
		kind int // 0 const, 1 exit slot, 2 folded anchor
		val  storage.Value
		idx  int
	}
	foldedIdx := make(map[string]int)
	for i, v := range p.foldedAnchors {
		foldedIdx[v] = i
	}
	redOf := make(map[int]int)
	for ri, oi := range p.keepCols {
		redOf[oi] = ri
	}
	srcs := make([]colSrc, p.Def.Arity())
	for oi := 0; oi < p.Def.Arity(); oi++ {
		if a := p.Query.Args[oi]; a.IsConst() {
			srcs[oi] = colSrc{kind: 0, val: syms.Intern(a.Name)}
			continue
		}
		ri := redOf[oi]
		hv := head.Args[ri]
		if hv.IsVar() {
			if i, ok := foldedIdx[hv.Name]; ok {
				srcs[oi] = colSrc{kind: 2, idx: i}
				continue
			}
		}
		srcs[oi] = colSrc{kind: 1, idx: gSS.slot(exitHead.Args[ri].Name)}
	}
	out := make(storage.Tuple, p.Def.Arity())
	return func(s []storage.Value, anchorPart storage.Tuple, ans *storage.Relation) {
		for oi, src := range srcs {
			switch src.kind {
			case 0:
				out[oi] = src.val
			case 1:
				out[oi] = s[src.idx]
			case 2:
				out[oi] = anchorPart[src.idx]
			}
		}
		ans.Insert(out)
	}
}
