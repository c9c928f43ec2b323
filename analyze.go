package onesided

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/rewrite"
)

// collapseDepth is how deep Analyze looks for the depth at which a
// rule's expansion collapses (a uniform-boundedness certificate).
const collapseDepth = 3

// Analysis is the report Engine.Analyze gives on one recursion of the
// engine's program: the paper's analysis of each recursive rule, and the
// plan the engine's strategy chain picks for each adornment.
type Analysis struct {
	Pred string
	// Exit is the recursion's one nonrecursive rule.
	Exit Rule
	// Rules has one entry per linear recursive rule, in program order.
	Rules []RuleAnalysis
	// Plans has one entry per adornment of the predicate, all-bound
	// first and all-free last: what PreparedQuery.Explain reports for a
	// query of that adornment, with no plan-cache state. Strategy is
	// "none" when every strategy of the chain declined.
	Plans []Explain
}

// RuleAnalysis is the analysis of one recursive rule paired with the
// exit rule, a recursion of the paper's Section 2 class.
type RuleAnalysis struct {
	Rule Rule
	// Summary is the A/V-graph classification (Theorems 3.1 and 3.3).
	Summary string
	// Verdict is the optimize-then-detect decision (Theorem 3.4) and
	// Removed the recursively redundant atoms its optimization dropped.
	// Optimized is the rewritten recursive rule when the verdict rests on
	// that rewriting, nil otherwise.
	Verdict   string
	Removed   []Atom
	Optimized *Rule
	// Collapse is the smallest depth at which the expansion collapses,
	// or -1 when it does not within depth 3.
	Collapse int
}

// Analyze reports on the engine's recursion for pred: one or more linear
// recursive rules sharing one exit rule. Each recursive rule is analysed
// with the exit rule as a Section 2 recursion; each adornment's plan is
// the one Prepare would compile, from the same strategy chain, so the
// report says what the engine does. The plan cache is not consulted or
// filled.
func (e *Engine) Analyze(pred string) (*Analysis, error) {
	e.mu.Lock()
	program := e.program
	e.mu.Unlock()
	defs, err := ast.ExtractRecursion(program, pred)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Pred: pred, Exit: defs[0].Exit}
	for _, d := range defs {
		ra, err := analyzeRule(d)
		if err != nil {
			return nil, err
		}
		a.Rules = append(a.Rules, ra)
	}
	arity := defs[0].Arity()
	for mask := 0; mask < 1<<arity; mask++ {
		q := ast.Atom{Pred: pred, Args: make([]ast.Term, arity)}
		for i := range q.Args {
			if mask&(1<<(arity-1-i)) == 0 {
				q.Args[i] = ast.C("c")
			} else {
				q.Args[i] = ast.V(fmt.Sprintf("X%d", i))
			}
		}
		a.Plans = append(a.Plans, e.planChain(program, ast.Skeletonize(q)).explain())
	}
	return a, nil
}

// analyzeRule runs the paper's analyses on one two-rule recursion.
func analyzeRule(d *ast.Definition) (RuleAnalysis, error) {
	cls, err := analysis.Classify(d)
	if err != nil {
		return RuleAnalysis{}, err
	}
	dec, err := rewrite.DecideOneSided(d)
	if err != nil {
		return RuleAnalysis{}, err
	}
	ra := RuleAnalysis{Rule: d.Recursive, Summary: cls.Summary(), Verdict: dec.Verdict.String(), Removed: dec.Removed, Collapse: -1}
	if dec.Verdict == rewrite.VerdictConverted {
		ra.Optimized = &dec.Optimized.Recursive
	}
	if k, ok := analysis.BoundednessLevel(d, collapseDepth); ok {
		ra.Collapse = k
	}
	return ra, nil
}

// String renders the report as `osr classify` prints it: the recursion,
// each recursive rule with its analysis, then one plan line per
// adornment.
func (a *Analysis) String() string {
	var b strings.Builder
	n := len(a.Rules)
	fmt.Fprintf(&b, "recursion %s: %d linear recursive rule%s, exit %v\n", a.Pred, n, plural(n), a.Exit)
	for i, r := range a.Rules {
		fmt.Fprintf(&b, "  rule %d: %v\n", i+1, r.Rule)
		fmt.Fprintf(&b, "    %s\n", r.Summary)
		fmt.Fprintf(&b, "    decision: %s\n", r.Verdict)
		for _, rm := range r.Removed {
			fmt.Fprintf(&b, "    removed redundant atom: %v\n", rm)
		}
		if r.Optimized != nil {
			fmt.Fprintf(&b, "    optimized rule: %v\n", *r.Optimized)
		}
		if r.Collapse >= 0 {
			fmt.Fprintf(&b, "    expansion collapses at depth %d (uniformly bounded)\n", r.Collapse)
		}
	}
	for _, ex := range a.Plans {
		ad := ex.Adornment
		ex.Adornment = ""
		fmt.Fprintf(&b, "  plan %s: %v\n", ad, ex)
	}
	return b.String()
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
