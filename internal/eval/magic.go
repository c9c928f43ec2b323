package eval

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/storage"
)

// MagicResult is the output of the Magic Sets transformation: the rewritten
// program, the adorned answer predicate, and the seed query.
type MagicResult struct {
	// Program is the transformed program (magic rules, seed fact, and
	// guarded original rules with adorned predicates).
	Program *ast.Program
	// AnswerPred is the adorned predicate holding the query answers.
	AnswerPred string
	// Query is the original query atom.
	Query ast.Atom
	// SeedIndex is the position of the seed rule (the magic fact holding
	// the query constants) in Program.Rules. The whole rewriting depends
	// only on the query's adornment; the constants surface solely in the
	// seed and in Query, so rebinding a skeleton result to new constants
	// replaces exactly those two spots.
	SeedIndex int
}

// Bind instantiates a skeleton MagicResult's slot placeholders with the
// given constants, sharing every rule but the seed with the original.
func (mr *MagicResult) Bind(consts []ast.Term) *MagicResult {
	rules := make([]ast.Rule, len(mr.Program.Rules))
	copy(rules, mr.Program.Rules)
	rules[mr.SeedIndex] = ast.BindRule(rules[mr.SeedIndex], consts)
	return &MagicResult{
		Program:    &ast.Program{Rules: rules},
		AnswerPred: mr.AnswerPred,
		Query:      ast.BindAtom(mr.Query, consts),
		SeedIndex:  mr.SeedIndex,
	}
}

// adornment renders the bound/free pattern of an atom's arguments, given
// the set of bound variables: constants and bound variables are 'b',
// everything else 'f'.
func adornment(a ast.Atom, boundVars map[string]bool) string {
	var b strings.Builder
	for _, t := range a.Args {
		if t.IsConst() || (t.IsVar() && boundVars[t.Name]) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// boundArgs returns the arguments of a at the positions marked 'b'.
func boundArgs(a ast.Atom, ad string) []ast.Term {
	var out []ast.Term
	for i, c := range ad {
		if c == 'b' {
			out = append(out, a.Args[i])
		}
	}
	return out
}

// sipOrder orders a rule body for sideways information passing [BR87]:
// greedily, the atom with the most bound arguments goes next — constants,
// variables of bound (what the head adornment binds) and variables of
// atoms already placed count as bound — and ties keep written order. A
// subgoal placed after the atoms that bind it keeps a narrow adornment,
// and so a small magic set: in sg(X,Y) :- p(X,W), p(Y,Z), sg(W,Z) under
// bf, sg(W,Z) goes before p(Y,Z) and is called bf, its magic set the
// query node's ancestors; in written order it would be called bb, its
// magic rule crossing those ancestors with every Z in p.
func sipOrder(body []ast.Atom, bound map[string]bool) []ast.Atom {
	placed := maps.Clone(bound)
	rest := slices.Clone(body)
	out := make([]ast.Atom, 0, len(body))
	for len(rest) > 0 {
		best, bestN := 0, -1
		for i, a := range rest {
			if n := strings.Count(adornment(a, placed), "b"); n > bestN {
				best, bestN = i, n
			}
		}
		a := rest[best]
		rest = slices.Delete(rest, best, best+1)
		out = append(out, a)
		for _, t := range a.Args {
			if t.IsVar() {
				placed[t.Name] = true
			}
		}
	}
	return out
}

// MagicTransform applies the Magic Sets rewriting [BMSU86, BR87] to the
// program for a query with some arguments bound to constants, passing
// bindings sideways in sipOrder's bound-first order. The transformed
// program evaluated bottom-up (SemiNaive) restricts derivations to tuples
// relevant to the query — the general-purpose baseline the paper compares
// one-sided evaluation against (Sections 1 and 4).
func MagicTransform(p *ast.Program, query ast.Atom) (*MagicResult, error) {
	idb := headPreds(p)
	if !idb[query.Pred] {
		return nil, fmt.Errorf("eval: query predicate %s is not defined by the program", query.Pred)
	}
	queryAd := adornment(query, nil)

	adornedName := func(pred, ad string) string { return pred + "__" + ad }
	magicName := func(pred, ad string) string { return "m_" + pred + "__" + ad }

	out := ast.NewProgram()
	type job struct{ pred, ad string }
	seen := map[job]bool{}
	work := []job{{query.Pred, queryAd}}
	seen[work[0]] = true

	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		// Program facts for this predicate become adorned facts guarded by
		// the magic predicate, so base tuples of derived predicates stay
		// reachable after the rewriting.
		for _, f := range p.Facts() {
			if f.Head.Pred != j.pred {
				continue
			}
			out.Rules = append(out.Rules, ast.Rule{
				Head: ast.Atom{Pred: adornedName(j.pred, j.ad), Args: f.Head.Args},
				Body: []ast.Atom{{Pred: magicName(j.pred, j.ad), Args: boundArgs(f.Head, j.ad)}},
			})
		}
		for _, r := range p.RulesFor(j.pred) {
			bound := make(map[string]bool)
			for i, c := range j.ad {
				if c == 'b' {
					if t := r.Head.Args[i]; t.IsVar() {
						bound[t.Name] = true
					}
				}
			}
			magicHead := ast.Atom{Pred: magicName(j.pred, j.ad), Args: boundArgs(r.Head, j.ad)}
			newBody := []ast.Atom{magicHead}
			for _, a := range sipOrder(r.Body, bound) {
				if !idb[a.Pred] {
					newBody = append(newBody, a)
					for _, t := range a.Args {
						if t.IsVar() {
							bound[t.Name] = true
						}
					}
					continue
				}
				ad := adornment(a, bound)
				// Magic rule: the call context for this subgoal is
				// derivable from the head context plus the body prefix.
				// All-free subgoals get a zero-ary magic guard. A subgoal
				// placed first and bound exactly as the head — t(Z,Y) in
				// t(X,Y) :- a(X,Z), t(Z,Y) under fb — would get
				// m_t__fb(Y) :- m_t__fb(Y), which derives nothing.
				mh := ast.Atom{Pred: magicName(a.Pred, ad), Args: boundArgs(a, ad)}
				if len(newBody) > 1 || !newBody[0].Equal(mh) {
					out.Rules = append(out.Rules, ast.Rule{Head: mh, Body: slices.Clone(newBody)})
				}
				// Rewrite the subgoal to its adorned version and record it
				// for processing.
				newBody = append(newBody, ast.Atom{Pred: adornedName(a.Pred, ad), Args: a.Args})
				if !seen[job{a.Pred, ad}] {
					seen[job{a.Pred, ad}] = true
					work = append(work, job{a.Pred, ad})
				}
				for _, t := range a.Args {
					if t.IsVar() {
						bound[t.Name] = true
					}
				}
			}
			out.Rules = append(out.Rules, ast.Rule{
				Head: ast.Atom{Pred: adornedName(j.pred, j.ad), Args: r.Head.Args},
				Body: newBody,
			})
		}
	}

	// Seed: the magic fact for the query's constants. A fully-free query
	// gets a zero-ary magic seed.
	seed := ast.Rule{Head: ast.Atom{Pred: magicName(query.Pred, queryAd), Args: boundArgs(query, queryAd)}}
	out.Rules = append(out.Rules, seed)

	return &MagicResult{
		Program:    out,
		AnswerPred: adornedName(query.Pred, queryAd),
		Query:      query,
		SeedIndex:  len(out.Rules) - 1,
	}, nil
}

// MagicEval transforms and evaluates the query, returning the answer
// relation: the tuples of the query predicate matching the query's
// constants.
func MagicEval(p *ast.Program, query ast.Atom, edb *storage.Database) (*storage.Relation, *Result, error) {
	return MagicEvalCtx(context.Background(), p, query, edb)
}

// MagicEvalCtx is MagicEval with cancellation.
func MagicEvalCtx(ctx context.Context, p *ast.Program, query ast.Atom, edb *storage.Database) (*storage.Relation, *Result, error) {
	mr, err := MagicTransform(p, query)
	if err != nil {
		return nil, nil, err
	}
	res, err := SemiNaiveCtx(ctx, mr.Program, edb)
	if err != nil {
		return nil, nil, err
	}
	ans := storage.NewRelation(query.Arity(), &edb.Stats)
	rel := res.IDB.Relation(mr.AnswerPred)
	if rel == nil {
		return ans, res, nil
	}
	for _, t := range rel.Tuples() {
		if matchesQuery(t, query, edb.Syms) {
			ans.Insert(t)
		}
	}
	return ans, res, nil
}

// matchesQuery checks a tuple against the query's constants (repeated
// query variables must also agree).
func matchesQuery(t storage.Tuple, query ast.Atom, syms *storage.SymbolTable) bool {
	varVal := make(map[string]storage.Value)
	for i, a := range query.Args {
		if a.IsConst() {
			v, ok := syms.Lookup(a.Name)
			if !ok || t[i] != v {
				return false
			}
			continue
		}
		if prev, ok := varVal[a.Name]; ok {
			if prev != t[i] {
				return false
			}
		} else {
			varVal[a.Name] = t[i]
		}
	}
	return true
}

// SelectEval evaluates the query by full semi-naive materialization
// followed by selection — the unoptimized baseline.
func SelectEval(p *ast.Program, query ast.Atom, edb *storage.Database) (*storage.Relation, *Result, error) {
	return SelectEvalCtx(context.Background(), p, query, edb)
}

// SelectEvalCtx is SelectEval with cancellation.
func SelectEvalCtx(ctx context.Context, p *ast.Program, query ast.Atom, edb *storage.Database) (*storage.Relation, *Result, error) {
	res, err := SemiNaiveCtx(ctx, p, edb)
	if err != nil {
		return nil, nil, err
	}
	ans := storage.NewRelation(query.Arity(), &edb.Stats)
	rel := res.IDB.Relation(query.Pred)
	if rel == nil {
		return ans, res, nil
	}
	for _, t := range rel.Tuples() {
		if matchesQuery(t, query, edb.Syms) {
			ans.Insert(t)
		}
	}
	return ans, res, nil
}

// AnswerStrings renders an answer relation deterministically for tests:
// sorted lines of comma-separated constant names.
func AnswerStrings(rel *storage.Relation, syms *storage.SymbolTable) []string {
	var out []string
	for _, t := range rel.Tuples() {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = syms.Name(v)
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}
