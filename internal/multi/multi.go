// Package multi extends the paper's machinery to definitions with several
// linear recursive rules — the future work Section 5 sketches: "one-sided
// recursive rules do combine in simple ways", but "it is not true that two
// one-sided recursive rules always produce a one-sided recursion in
// combination".
//
// The package is analysis only: per-rule classification (each recursive
// rule paired with the exit rule is a paper-class definition), a
// combination analysis on the union A/V graph (the full A/V graphs of the
// rules with distinguished-variable nodes identified by head position),
// empirical sidedness sampling over the multi-rule expansion (Definition
// 3.3 applied directly), and expansion along a chosen rule sequence.
// Evaluating a selection is the one-sided planner's business
// (eval.OneSided): when every bound column is persistent in every rule it
// applies the persistent-column reduction rule by rule; Magic Sets
// answers everything else.
//
// The union-graph test is the package's extension heuristic; it is
// validated against expansion sampling in the tests, not proved in the
// paper (the paper announces the analysis as ongoing work).
package multi

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/avgraph"
	"repro/internal/expand"
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
	defs, err := ast.ExtractRecursion(p, pred)
	if err != nil {
		return nil, err
	}
	d := &Definition{Exit: defs[0].Exit}
	for _, sub := range defs {
		d.Recursive = append(d.Recursive, sub.Recursive)
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
