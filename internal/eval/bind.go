package eval

import (
	"fmt"

	"repro/internal/ast"
)

// This file is the late-binding half of the adornment-keyed planning
// pipeline: every prepared plan knows how to instantiate its constant
// slots (BindArgs), turning one compiled skeleton per (program,
// predicate, adornment) into an evaluable plan per ground query with a
// shallow structural substitution — no re-analysis, no re-rewriting.

// checkSlotTable validates a slot table against the expected width.
func checkSlotTable(want int, consts []ast.Term) error {
	if len(consts) != want {
		return fmt.Errorf("eval: bind got %d constants, plan has %d slots", len(consts), want)
	}
	for i, c := range consts {
		if !c.IsConst() {
			return fmt.Errorf("eval: bind argument %d (%v) is not a constant", i, c)
		}
	}
	return nil
}

// bindConstName maps a constant name through the slot table when it is a
// slot placeholder, and returns it unchanged otherwise.
func bindConstName(name string, consts []ast.Term) string {
	if i, ok := ast.SlotIndex(ast.C(name)); ok && i < len(consts) {
		return consts[i].Name
	}
	return name
}

// Bind instantiates a skeleton plan's constant slots, returning an
// evaluable copy. Structural analysis (mode, carry columns, anchors,
// factor groups) is shared with the skeleton; only the atoms and
// constant tables that mention slot placeholders are rewritten. A
// ground plan (NSlots == 0) binds with an empty table and returns
// itself.
func (p *Plan) Bind(consts []ast.Term) (*Plan, error) {
	if err := checkSlotTable(p.NSlots, consts); err != nil {
		return nil, err
	}
	if p.NSlots == 0 {
		return p, nil
	}
	np := *p
	np.NSlots = 0
	np.Query = ast.BindAtom(p.Query, consts)
	np.reduced = &ast.Definition{
		Recursive: ast.BindRule(p.reduced.Recursive, consts),
		Exit:      ast.BindRule(p.reduced.Exit, consts),
	}
	if len(p.more) > 0 {
		np.more = make([]ast.Rule, len(p.more))
		for i, r := range p.more {
			np.more[i] = ast.BindRule(r, consts)
		}
	}
	if len(p.fixedCols) > 0 {
		np.fixedCols = make(map[int]string, len(p.fixedCols))
		for j, name := range p.fixedCols {
			np.fixedCols[j] = bindConstName(name, consts)
		}
	}
	if len(p.boundCols) > 0 {
		np.boundCols = make(map[int]string, len(p.boundCols))
		for j, name := range p.boundCols {
			np.boundCols[j] = bindConstName(name, consts)
		}
	}
	if len(p.factored) > 0 {
		np.factored = make([]factorGroup, len(p.factored))
		for i, fg := range p.factored {
			atoms := make([]ast.Atom, len(fg.atoms))
			for k, a := range fg.atoms {
				atoms[k] = ast.BindAtom(a, consts)
			}
			np.factored[i] = factorGroup{atoms: atoms, anchors: fg.anchors}
		}
	}
	return &np, nil
}

// BindArgs implements PreparedStrategy for the one-sided planner's
// prepared form.
func (o *oneSidedPrepared) BindArgs(consts ...ast.Term) (PreparedStrategy, error) {
	if o.plan.NSlots == 0 && len(consts) == 0 {
		return o, nil
	}
	bp, err := o.plan.Bind(consts)
	if err != nil {
		return nil, err
	}
	return &oneSidedPrepared{plan: bp, verdict: o.verdict, adornment: o.adornment}, nil
}

// BindArgs implements PreparedStrategy for Magic Sets: the rewritten
// program is shared, the seed fact and the selection atom are rebound.
func (m *magicPrepared) BindArgs(consts ...ast.Term) (PreparedStrategy, error) {
	want := m.mr.Query.SlotCount()
	if err := checkSlotTable(want, consts); err != nil {
		return nil, err
	}
	if want == 0 {
		return m, nil
	}
	return &magicPrepared{mr: m.mr.Bind(consts), adornment: m.adornment}, nil
}

// BindArgs implements PreparedStrategy for materialize-then-select: the
// program is constant-independent, only the selection atom is rebound.
func (m *materializePrepared) BindArgs(consts ...ast.Term) (PreparedStrategy, error) {
	want := m.query.SlotCount()
	if err := checkSlotTable(want, consts); err != nil {
		return nil, err
	}
	if want == 0 {
		return m, nil
	}
	return &materializePrepared{program: m.program, query: ast.BindAtom(m.query, consts), adornment: m.adornment}, nil
}

// BindArgs implements PreparedStrategy for base-relation lookup.
func (e *edbPrepared) BindArgs(consts ...ast.Term) (PreparedStrategy, error) {
	want := e.query.SlotCount()
	if err := checkSlotTable(want, consts); err != nil {
		return nil, err
	}
	if want == 0 {
		return e, nil
	}
	return &edbPrepared{query: ast.BindAtom(e.query, consts), adornment: e.adornment}, nil
}
