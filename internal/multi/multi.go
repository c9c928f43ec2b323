// Package multi extends the paper's machinery to definitions with several
// linear recursive rules — the future work Section 5 sketches: "one-sided
// recursive rules do combine in simple ways", but "it is not true that two
// one-sided recursive rules always produce a one-sided recursion in
// combination".
//
// The package provides: per-rule classification (each recursive rule
// paired with the exit rule is a paper-class definition), a combination
// analysis on the union A/V graph (the full A/V graphs of the rules with
// distinguished-variable nodes identified by head position), empirical
// sidedness sampling over the multi-rule expansion (Definition 3.3
// applied directly), and selection evaluation: the persistent-column
// reduction generalizes rule-by-rule, everything else falls back to Magic
// Sets.
//
// The union-graph test is the package's extension heuristic; it is
// validated against expansion sampling in the tests, not proved in the
// paper (the paper announces the analysis as ongoing work).
package multi

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/avgraph"
	"repro/internal/eval"
	"repro/internal/expand"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/unify"
)

// Definition is a recursion with several linear recursive rules and one
// exit rule, all defining the same predicate.
type Definition struct {
	Recursive []ast.Rule
	Exit      ast.Rule
}

// Pred returns the defined predicate.
func (d *Definition) Pred() string { return d.Exit.Head.Pred }

// Arity returns the defined predicate's arity.
func (d *Definition) Arity() int { return d.Exit.Head.Arity() }

// Program returns all rules as a program.
func (d *Definition) Program() *ast.Program {
	p := ast.NewProgram()
	for _, r := range d.Recursive {
		p.Rules = append(p.Rules, r.Clone())
	}
	p.Rules = append(p.Rules, d.Exit.Clone())
	return p
}

// Validate checks the shape: at least one recursive rule, all linear, all
// with the exit's predicate and arity.
func (d *Definition) Validate() error {
	if len(d.Recursive) == 0 {
		return fmt.Errorf("multi: no recursive rules")
	}
	for _, r := range d.Recursive {
		sub := &ast.Definition{Recursive: r, Exit: d.Exit}
		if err := sub.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Extract locates a multi-rule recursion for pred in a program: one or
// more linear recursive rules and exactly one nonrecursive rule.
func Extract(p *ast.Program, pred string) (*Definition, error) {
	var rec []ast.Rule
	var exit []ast.Rule
	for _, r := range p.RulesFor(pred) {
		if r.IsRecursiveFor() {
			if !r.IsLinearFor() {
				return nil, fmt.Errorf("multi: rule %v is not linear", r)
			}
			rec = append(rec, r)
		} else {
			exit = append(exit, r)
		}
	}
	if len(exit) != 1 {
		return nil, fmt.Errorf("multi: predicate %s has %d nonrecursive rules, want 1", pred, len(exit))
	}
	d := &Definition{Recursive: rec, Exit: exit[0]}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SubDefinition returns the paper-class definition of the i-th recursive
// rule with the shared exit rule.
func (d *Definition) SubDefinition(i int) *ast.Definition {
	return &ast.Definition{Recursive: d.Recursive[i].Clone(), Exit: d.Exit.Clone()}
}

// Classification is the combination analysis result.
type Classification struct {
	// PerRule holds each rule's single-rule classification.
	PerRule []*analysis.Classification
	// UnionSidedness is the sidedness estimate from the union A/V graph:
	// the sum of per-component cycle gcds after merging the rules' full
	// A/V graphs at their distinguished head positions.
	UnionSidedness int
	// UnionOneSided is the Theorem 3.1 condition on the union graph.
	UnionOneSided bool
}

// Classify analyses each rule and the combination.
func Classify(d *Definition) (*Classification, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	c := &Classification{}
	for i := range d.Recursive {
		cls, err := analysis.Classify(d.SubDefinition(i))
		if err != nil {
			return nil, err
		}
		c.PerRule = append(c.PerRule, cls)
	}
	g := unionGraph(d)
	nonzero := 0
	weightOne := false
	for _, comp := range g.Components() {
		if comp.CycleGCD != 0 {
			nonzero++
			c.UnionSidedness += comp.CycleGCD
			if comp.CycleGCD == 1 {
				weightOne = true
			}
		}
	}
	c.UnionOneSided = nonzero == 1 && weightOne
	return c, nil
}

// unionGraph merges the full A/V graphs of the recursive rules,
// identifying distinguished-variable nodes by head position. Rule-local
// nodes are renamed with a rule index prefix; head variables are renamed
// to canonical positional names so that the rules' graphs share exactly
// those nodes.
func unionGraph(d *Definition) *mergedGraph {
	mg := &mergedGraph{index: make(map[string]int)}
	for ri := range d.Recursive {
		sub := d.SubDefinition(ri)
		// Canonicalize head variable names by position: V#0, V#1, ...
		s := make(ast.Subst)
		for pos, t := range sub.Recursive.Head.Args {
			s[t.Name] = ast.V(fmt.Sprintf("V#%d", pos))
		}
		sub.Recursive = s.ApplyRule(sub.Recursive)
		g := avgraph.NewFull(sub)
		prefix := fmt.Sprintf("r%d:", ri)
		remap := make([]int, len(g.Nodes))
		for i, n := range g.Nodes {
			name := prefix + n.Name
			if n.Kind == avgraph.VarNode && n.Distinguished {
				name = n.Name // shared across rules
			}
			remap[i] = mg.node(name, n)
		}
		for _, e := range g.Edges {
			w := 0
			if e.Kind == avgraph.Unification {
				w = 1
			}
			mg.edges = append(mg.edges, mergedEdge{from: remap[e.From], to: remap[e.To], weight: w})
		}
	}
	return mg
}

// mergedGraph is a minimal weighted multigraph supporting the component
// cycle-gcd analysis.
type mergedGraph struct {
	index map[string]int
	nodes []avgraph.Node
	edges []mergedEdge
}

type mergedEdge struct {
	from, to, weight int
}

func (m *mergedGraph) node(name string, proto avgraph.Node) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	i := len(m.nodes)
	n := proto
	n.Name = name
	m.index[name] = i
	m.nodes = append(m.nodes, n)
	return i
}

// Components runs the spanning-tree potential analysis (mirroring
// avgraph).
func (m *mergedGraph) Components() []avgraph.Component {
	adj := make([][]mergedEdge, len(m.nodes))
	for ei, e := range m.edges {
		adj[e.from] = append(adj[e.from], mergedEdge{from: ei, to: e.to, weight: e.weight})
		adj[e.to] = append(adj[e.to], mergedEdge{from: ei, to: e.from, weight: -e.weight})
	}
	visited := make([]bool, len(m.nodes))
	pot := make([]int, len(m.nodes))
	var out []avgraph.Component
	for start := range m.nodes {
		if visited[start] {
			continue
		}
		gcd := 0
		used := make(map[int]bool)
		queue := []int{start}
		visited[start] = true
		comp := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, he := range adj[u] {
				if !visited[he.to] {
					visited[he.to] = true
					pot[he.to] = pot[u] + he.weight
					used[he.from] = true
					queue = append(queue, he.to)
					comp = append(comp, he.to)
					continue
				}
				if used[he.from] {
					continue
				}
				used[he.from] = true
				diff := pot[u] + he.weight - pot[he.to]
				if diff < 0 {
					diff = -diff
				}
				gcd = gcdInt(gcd, diff)
			}
		}
		sort.Ints(comp)
		c := avgraph.Component{Nodes: comp, CycleGCD: gcd}
		for _, n := range comp {
			node := m.nodes[n]
			if node.Kind == avgraph.ArgNode && !node.Recursive {
				c.HasNonrecursiveArg = true
			}
			if node.Kind == avgraph.VarNode && !node.Distinguished {
				c.HasNondistinguishedVar = true
			}
		}
		out = append(out, c)
	}
	return out
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SampleSidedness applies Definition 3.3 to the multi-rule expansion
// empirically: it expands a family of rule sequences (pure, round-robin,
// and seeded-random) to two depths and reports the maximum stable count of
// growing connected sets, or -1 if unstable.
func SampleSidedness(d *Definition, maxDepth int, seed int64) int {
	if maxDepth < 8 {
		maxDepth = 8
	}
	half := maxDepth / 2
	threshold := half / 4
	if threshold < 2 {
		threshold = 2
	}
	rng := rand.New(rand.NewSource(seed))
	seqFor := func(depth int, kind int) []int {
		seq := make([]int, depth)
		for i := range seq {
			switch {
			case kind < len(d.Recursive): // pure rule
				seq[i] = kind
			case kind == len(d.Recursive): // round robin
				seq[i] = i % len(d.Recursive)
			default: // random
				seq[i] = rng.Intn(len(d.Recursive))
			}
		}
		return seq
	}
	kinds := len(d.Recursive) + 1 + 3 // pures, round-robin, 3 random
	best := 0
	for kind := 0; kind < kinds; kind++ {
		countAt := func(depth int) int {
			s := ExpandSequence(d, seqFor(depth, kind))
			n := 0
			for _, size := range expand.SetSizes(s, false) {
				if size >= threshold {
					n++
				}
			}
			return n
		}
		a, b := countAt(half), countAt(maxDepth)
		if a != b {
			return -1
		}
		if a > best {
			best = a
		}
	}
	return best
}

// ExpandSequence applies the recursive rules in the given order, then the
// exit rule, producing the expansion string with provenance (mirroring
// Procedure Expand for a chosen rule sequence).
func ExpandSequence(d *Definition, seq []int) expand.String {
	used := make(map[string]bool)
	for _, r := range d.Recursive {
		for v := range r.Vars() {
			used[v] = true
		}
	}
	for v := range d.Exit.Vars() {
		used[v] = true
	}
	fresh := func(base string, iter int) string {
		name := fmt.Sprintf("%s%d", base, iter)
		for used[name] {
			name += "_"
		}
		used[name] = true
		return name
	}
	apply := func(rule ast.Rule, pending ast.Atom, iter int) []ast.Atom {
		dist := rule.DistinguishedVars()
		s := make(ast.Subst)
		for v := range rule.Vars() {
			if !dist[v] {
				s[v] = ast.V(fresh(v, iter))
			}
		}
		renamed := s.ApplyRule(rule)
		m, ok := unify.Match(renamed.Head, pending)
		if !ok {
			panic(fmt.Sprintf("multi: head %v does not match %v", renamed.Head, pending))
		}
		return m.ApplyAtoms(renamed.Body)
	}

	head := d.Exit.Head.Clone()
	pending := head.Clone()
	var insts []expand.Instance
	for iter, ri := range seq {
		body := apply(d.Recursive[ri], pending, iter)
		recIdx := d.Recursive[ri].RecursiveAtomIndex()
		for bi, a := range body {
			if bi == recIdx {
				pending = a
				continue
			}
			insts = append(insts, expand.Instance{Atom: a, Iter: iter, BodyIndex: bi})
		}
	}
	for bi, a := range apply(d.Exit, pending, len(seq)) {
		insts = append(insts, expand.Instance{Atom: a, Iter: len(seq), Exit: true, BodyIndex: bi})
	}
	return expand.String{K: len(seq), Head: head, Instances: insts}
}

// SelectionPlan is a prepared "column = constant" selection on a
// multi-rule recursion: the Section 4 persistent-column reduction applied
// rule-by-rule. Build one with PrepareSelection; Build may run many
// times and concurrently.
type SelectionPlan struct {
	def     *Definition
	query   ast.Atom
	reduced *ast.Program
	keep    []int // original column index of each reduced column
}

// PrepareSelection plans a selection on the multi-rule recursion. It
// succeeds only when every bound column is persistent in every recursive
// rule (the shape the Section 5 extension reduces); anything else returns
// an error so callers can fall back to a general method.
func PrepareSelection(d *Definition, query ast.Atom) (*SelectionPlan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if query.Pred != d.Pred() || query.Arity() != d.Arity() {
		return nil, fmt.Errorf("multi: query %v does not match %s/%d", query, d.Pred(), d.Arity())
	}
	var bound []int
	for i, a := range query.Args {
		if a.IsConst() {
			bound = append(bound, i)
		}
	}
	if len(bound) == 0 {
		return nil, fmt.Errorf("multi: query %v binds no column", query)
	}
	for i := range d.Recursive {
		pc := d.SubDefinition(i).PersistentColumns()
		for _, c := range bound {
			if !pc[c] {
				return nil, fmt.Errorf("multi: bound column %d is not persistent in rule %d", c+1, i+1)
			}
		}
	}
	// Reduce every rule once; evaluation replays the reduced program. The
	// reduction substitutes whatever the query holds at each bound column
	// — real constants for a ground query, slot placeholders for an
	// adornment-keyed skeleton (instantiated later by Bind).
	reducedProg := ast.NewProgram()
	var keep []int
	for i := range d.Recursive {
		sub := d.SubDefinition(i)
		red, kc := rewrite.ReducePersistent(sub, bound,
			func(col int) ast.Term { return query.Args[col] })
		reducedProg.Rules = append(reducedProg.Rules, red.Recursive)
		keep = kc
		if i == 0 {
			reducedProg.Rules = append(reducedProg.Rules, red.Exit)
		}
	}
	return &SelectionPlan{def: d, query: query.Clone(), reduced: reducedProg, keep: keep}, nil
}

// Bind instantiates a skeleton SelectionPlan's slot placeholders,
// returning an evaluable copy sharing the structural analysis.
func (sp *SelectionPlan) Bind(consts []ast.Term) (*SelectionPlan, error) {
	want := sp.query.SlotCount()
	if len(consts) != want {
		return nil, fmt.Errorf("multi: bind got %d constants, plan has %d slots", len(consts), want)
	}
	for i, c := range consts {
		if !c.IsConst() {
			return nil, fmt.Errorf("multi: bind argument %d (%v) is not a constant", i, c)
		}
	}
	if want == 0 {
		return sp, nil
	}
	return &SelectionPlan{
		def:     sp.def,
		query:   ast.BindAtom(sp.query, consts),
		reduced: ast.BindProgram(sp.reduced, consts),
		keep:    sp.keep,
	}, nil
}

// Build runs the reduced program bottom-up, re-expanding the dropped
// constant columns into the answers, and retains the fixpoint — the
// builder the one-sided planner's reduced mode uses, so the plan absorbs
// signed deltas the same way. A skeleton plan with unbound slots refuses
// to build; call Bind first.
func (sp *SelectionPlan) Build(ctx context.Context, db *storage.Database) (*eval.Incremental, error) {
	return eval.BuildReduced(ctx, sp.reduced, sp.query, sp.keep, db)
}

// EvalSelection evaluates a "column = constant" selection on the
// multi-rule recursion. When every bound column is persistent in every
// recursive rule, the reduction of Section 4 applies rule-by-rule
// (substitute the constant, drop the column, evaluate bottom-up);
// otherwise the query goes to Magic Sets. The returned mode string names
// the path taken.
func EvalSelection(d *Definition, query ast.Atom, db *storage.Database) (*storage.Relation, string, error) {
	sp, err := PrepareSelection(d, query)
	if err != nil {
		if verr := d.Validate(); verr != nil {
			return nil, "", verr
		}
		if query.Pred != d.Pred() || query.Arity() != d.Arity() {
			return nil, "", fmt.Errorf("multi: query %v does not match %s/%d", query, d.Pred(), d.Arity())
		}
		ans, _, merr := eval.MagicEval(d.Program(), query, db)
		return ans, "magic", merr
	}
	inc, err := sp.Build(context.Background(), db)
	if err != nil {
		return nil, "", err
	}
	return inc.Answers(), "reduced", nil
}

// StrategyName is the name the multi-rule adapter is served under.
const StrategyName = "multi"

// Strategy adapts the Section 5 extension to the Engine's strategy
// chain: it claims queries whose predicate is a multi-rule (>= 2
// recursive rules) linear recursion with every bound column persistent in
// every rule, and declines everything else so the engine can fall back to
// a general method. Single-rule recursions are left to the one-sided
// strategy.
func Strategy() eval.Strategy { return strategy{} }

type strategy struct{}

func (strategy) Name() string { return StrategyName }

func (strategy) Prepare(p *ast.Program, q eval.AdornedQuery) (eval.PreparedStrategy, error) {
	query := q.Atom
	d, err := Extract(p, query.Pred)
	if err != nil {
		return nil, err
	}
	if len(d.Recursive) < 2 {
		return nil, fmt.Errorf("multi: single-rule recursion; use the one-sided strategy")
	}
	idb := p.IDBPreds()
	for _, r := range append(append([]ast.Rule{}, d.Recursive...), d.Exit) {
		for _, a := range r.Body {
			if a.Pred != query.Pred && idb[a.Pred] {
				return nil, fmt.Errorf("multi: body atom %s is derived by other rules", a.Pred)
			}
		}
	}
	sp, err := PrepareSelection(d, query)
	if err != nil {
		return nil, err
	}
	return &preparedStrategy{plan: sp, adornment: q.Adornment}, nil
}

type preparedStrategy struct {
	plan      *SelectionPlan
	adornment ast.Adornment
}

func (ps *preparedStrategy) Explain() eval.StrategyExplain {
	return eval.StrategyExplain{
		Strategy:   StrategyName,
		Adornment:  ps.adornment.String(),
		Mode:       "reduced",
		CarryArity: len(ps.plan.keep),
		Detail:     fmt.Sprintf("%d recursive rules, persistent-column reduction", len(ps.plan.def.Recursive)),
	}
}

func (ps *preparedStrategy) Build(ctx context.Context, edb *storage.Database) (*eval.Incremental, error) {
	return ps.plan.Build(ctx, edb)
}

// BindArgs implements eval.PreparedStrategy: instantiate the skeleton's
// slot table.
func (ps *preparedStrategy) BindArgs(consts ...ast.Term) (eval.PreparedStrategy, error) {
	bp, err := ps.plan.Bind(consts)
	if err != nil {
		return nil, err
	}
	if bp == ps.plan {
		return ps, nil
	}
	return &preparedStrategy{plan: bp, adornment: ps.adornment}, nil
}
