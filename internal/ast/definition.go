package ast

import (
	"fmt"
)

// Definition is the paper's central object (Section 2): a recursion
// consisting of one linear recursive rule and one nonrecursive exit rule,
// both defining the same IDB predicate.
//
// Example (the canonical one-sided recursion, transitive closure):
//
//	t(X, Y) :- a(X, Z), t(Z, Y).
//	t(X, Y) :- b(X, Y).
type Definition struct {
	// Recursive is the linear recursive rule r_r.
	Recursive Rule
	// Exit is the nonrecursive rule r_n.
	Exit Rule
}

// Pred returns the recursively defined predicate.
func (d *Definition) Pred() string { return d.Recursive.Head.Pred }

// Arity returns the arity of the recursively defined predicate.
func (d *Definition) Arity() int { return d.Recursive.Head.Arity() }

// RecursiveAtom returns the single occurrence of the defined predicate in
// the recursive rule's body.
func (d *Definition) RecursiveAtom() Atom {
	return d.Recursive.Body[d.Recursive.RecursiveAtomIndex()]
}

// NonrecursiveBody returns the body atoms of the recursive rule other than
// the recursive atom, in order.
func (d *Definition) NonrecursiveBody() []Atom {
	idx := d.Recursive.RecursiveAtomIndex()
	out := make([]Atom, 0, len(d.Recursive.Body)-1)
	for i, a := range d.Recursive.Body {
		if i != idx {
			out = append(out, a)
		}
	}
	return out
}

// Program returns the two rules as a Program (recursive rule first).
func (d *Definition) Program() *Program {
	return NewProgram(d.Recursive.Clone(), d.Exit.Clone())
}

// Clone returns a deep copy.
func (d *Definition) Clone() *Definition {
	return &Definition{Recursive: d.Recursive.Clone(), Exit: d.Exit.Clone()}
}

// PersistentColumns reports, for each head argument position, whether the
// same variable appears in that position of the head and of the recursive
// body atom. Section 4 of the paper distinguishes selections on persistent
// columns (the constant surfaces in the exit-rule instances of the
// expansion) from selections on other columns (the constant stays on the
// initial segment).
func (d *Definition) PersistentColumns() []bool {
	head := d.Recursive.Head
	rec := d.RecursiveAtom()
	out := make([]bool, head.Arity())
	for i := range head.Args {
		out[i] = i < rec.Arity() && head.Args[i].IsVar() && head.Args[i] == rec.Args[i]
	}
	return out
}

// Validate checks that the pair of rules forms a recursion in the paper's
// class: same head predicate and arity, the recursive rule linear, the exit
// rule nonrecursive, and both heads satisfying the head restrictions.
func (d *Definition) Validate() error {
	if d.Recursive.Head.Pred != d.Exit.Head.Pred {
		return fmt.Errorf("ast: definition rules define different predicates %s and %s",
			d.Recursive.Head.Pred, d.Exit.Head.Pred)
	}
	if d.Recursive.Head.Arity() != d.Exit.Head.Arity() {
		return fmt.Errorf("ast: definition rules use arities %d and %d",
			d.Recursive.Head.Arity(), d.Exit.Head.Arity())
	}
	if !d.Recursive.IsLinearFor() {
		return fmt.Errorf("ast: recursive rule is not linear: %v", d.Recursive)
	}
	if d.Exit.BodyOccurrences(d.Exit.Head.Pred) != 0 {
		return fmt.Errorf("ast: exit rule is recursive: %v", d.Exit)
	}
	if len(d.Exit.Body) == 0 {
		return fmt.Errorf("ast: exit rule has empty body: %v", d.Exit)
	}
	if err := d.Recursive.Validate(); err != nil {
		return err
	}
	if err := d.Exit.Validate(); err != nil {
		return err
	}
	rec := d.RecursiveAtom()
	if rec.Arity() != d.Recursive.Head.Arity() {
		return fmt.Errorf("ast: recursive body atom arity %d differs from head arity %d",
			rec.Arity(), d.Recursive.Head.Arity())
	}
	return nil
}

// HasRepeatedNonrecursivePredicates reports whether some EDB (nonrecursive)
// predicate occurs more than once in the recursive rule's body. Theorems 3.3
// and 3.4 of the paper require the recursive rule to be free of repeated
// nonrecursive predicates.
func (d *Definition) HasRepeatedNonrecursivePredicates() bool {
	seen := make(map[string]int)
	for _, a := range d.NonrecursiveBody() {
		seen[a.Pred]++
		if seen[a.Pred] > 1 {
			return true
		}
	}
	return false
}

// ExtractDefinition locates the recursion for pred inside a program: exactly
// one linear recursive rule and exactly one nonrecursive rule. It returns an
// error if the program's rules for pred do not have that shape.
func ExtractDefinition(p *Program, pred string) (*Definition, error) {
	defs, err := ExtractRecursion(p, pred)
	if err != nil {
		return nil, err
	}
	if len(defs) != 1 {
		return nil, fmt.Errorf("ast: predicate %s has %d recursive rules, want 1", pred, len(defs))
	}
	return defs[0], nil
}

// ExtractRecursion locates a recursion of one or more linear recursive
// rules for pred that share exactly one nonrecursive rule — the paper's
// class, or Section 5's combination of several rules. It returns one
// validated Definition per recursive rule, in program order, each pairing
// that rule with the shared exit rule.
func ExtractRecursion(p *Program, pred string) ([]*Definition, error) {
	var rec, exit []Rule
	for _, r := range p.RulesFor(pred) {
		if r.IsRecursiveFor() {
			rec = append(rec, r)
		} else {
			exit = append(exit, r)
		}
	}
	if len(rec) == 0 {
		return nil, fmt.Errorf("ast: predicate %s has no recursive rule", pred)
	}
	if len(exit) != 1 {
		return nil, fmt.Errorf("ast: predicate %s has %d nonrecursive rules, want 1", pred, len(exit))
	}
	defs := make([]*Definition, len(rec))
	for i, r := range rec {
		defs[i] = &Definition{Recursive: r, Exit: exit[0]}
		if err := defs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return defs, nil
}
