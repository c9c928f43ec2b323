package eval

import "repro/internal/ast"

// contextProgram renders a bound context-mode plan as the two-predicate
// Datalog program whose least fixpoint is exactly the state the Fig. 9
// loop reaches: the context predicate holds the seen-set (folded anchors
// then carried call columns, closed under f from the seed) and the
// answer predicate the answers (the exit rule at depth 0, and g joined
// out of every context). It is built from the same rule pieces
// compileSeed, compileF, compileG and compileD0 compile, so the retained
// semi-naive machine maintains the fixpoint contextEval computed cold.
func (p *Plan) contextProgram() *ast.Program {
	ctxPred, ansPred := p.contextPreds()
	head := p.reduced.Recursive.Head
	rec := p.reduced.RecursiveAtom()
	// The g rule joins exit-rule atoms with recursive-rule ones (anchors,
	// factor groups); priming the exit rule keeps the two variable
	// namespaces apart.
	exit := ast.RenameApart(p.reduced.Exit, "'")

	// ctxAtom is the context tuple a call-shaped atom denotes.
	ctxAtom := func(anchors []ast.Term, call ast.Atom) ast.Atom {
		args := append([]ast.Term{}, anchors...)
		for _, j := range p.ctxCols {
			args = append(args, call.Args[j])
		}
		return ast.Atom{Pred: ctxPred, Args: args}
	}
	// ansAtom assembles the answer head column by column, as compileG's
	// source table does: the query constant at a bound column, otherwise
	// whatever term produces the reduced head column.
	redOf := make(map[int]int, len(p.keepCols))
	for ri, oi := range p.keepCols {
		redOf[oi] = ri
	}
	ansAtom := func(col func(ri int) ast.Term) ast.Atom {
		args := make([]ast.Term, p.Def.Arity())
		for oi, a := range p.Query.Args {
			if a.IsConst() {
				args[oi] = a
			} else {
				args[oi] = col(redOf[oi])
			}
		}
		return ast.Atom{Pred: ansPred, Args: args}
	}
	anchors := make([]ast.Term, len(p.foldedAnchors))
	carried := make([]ast.Term, len(p.foldedAnchors))
	fromRec := make(map[string]bool) // head variables the g rule reads from the recursive rule
	for i, v := range p.foldedAnchors {
		anchors[i], carried[i] = ast.V(v), ast.V(v+"'")
		fromRec[v] = true
	}
	var groups []ast.Atom
	for _, fg := range p.factored {
		groups = append(groups, p.substBound(fg.atoms)...)
		for _, v := range fg.anchors {
			fromRec[v] = true
		}
	}
	// fixed substitutes, in a rule applied below the first level, the
	// head variables whose call column holds a constant.
	fixed := func(h ast.Atom) ast.Subst {
		s := make(ast.Subst)
		for j, c := range p.fixedCols {
			if v := h.Args[j]; v.IsVar() {
				s[v.Name] = ast.C(c)
			}
		}
		return s
	}

	// Seed: the first application of the recursive rule under the
	// selection constants. The factor groups ride along as guards — an
	// empty group leaves no depth >= 1 derivation, hence no contexts.
	seedBody := append(p.substBound(p.seedAtoms()), groups...)
	seed := ast.Rule{Head: ctxAtom(anchors, p.substBound([]ast.Atom{rec})[0]), Body: seedBody}

	// f: one application deeper. The carried anchors pass through under
	// primed names — the body's own occurrences of those variables belong
	// to the deeper rule instance and stay unconstrained.
	fs := fixed(head)
	f := ast.Rule{
		Head: ctxAtom(carried, fs.ApplyAtom(rec)),
		Body: append([]ast.Atom{ctxAtom(carried, head)}, fs.ApplyAtoms(p.reduced.NonrecursiveBody())...),
	}

	// g: a context joined with the exit rule, anchors crossed in from the
	// context (folded) and from the factor groups (anchored groups join,
	// anchor-free ones are existential guards).
	gs := fixed(exit.Head)
	gHead := gs.ApplyAtom(exit.Head)
	gBody := append([]ast.Atom{ctxAtom(anchors, gHead)}, gs.ApplyAtoms(exit.Body)...)
	g := ast.Rule{
		Head: ansAtom(func(ri int) ast.Term {
			if hv := head.Args[ri]; fromRec[hv.Name] {
				return hv
			}
			return gHead.Args[ri]
		}),
		Body: append(gBody, groups...),
	}

	// Depth 0: the exit rule alone, bound head columns substituted.
	ds := make(ast.Subst)
	for rc, c := range p.boundCols {
		if v := p.reduced.Exit.Head.Args[rc]; v.IsVar() {
			ds[v.Name] = ast.C(c)
		}
	}
	d0Head := ds.ApplyAtom(p.reduced.Exit.Head)
	d0 := ast.Rule{
		Head: ansAtom(func(ri int) ast.Term { return d0Head.Args[ri] }),
		Body: ds.ApplyAtoms(p.reduced.Exit.Body),
	}
	return ast.NewProgram(seed, f, g, d0)
}

// contextPreds names the context program's two predicates, reserved the
// way Magic Sets reserves m_….
func (p *Plan) contextPreds() (ctxPred, ansPred string) {
	return "m_ctx__" + p.Def.Pred(), "m_ans__" + p.Def.Pred()
}
