package main

import (
	"math/bits"
	"strconv"
)

// fact is one ground fact, on the wire (/v1/facts) and in the harness.
type fact struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// expect is what the oracle says a query must return: the number of
// answer rows, an order-independent digest of them (the sum of each
// row's FNV-1a hash, so neither side has to sort), and the strategy the
// planner must report for the query's shape.
type expect struct {
	count    int
	sum      uint64
	strategy string
}

// rowHash is 64-bit FNV-1a over the row's cells, each followed by a
// separator that cannot occur in a generated constant. It is written out
// (rather than hash/fnv) because the clients call it for every row of
// every response and must not allocate while they share two cores with
// the server.
func rowHash(row []string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range row {
		for i := 0; i < len(c); i++ {
			h = (h ^ uint64(c[i])) * prime
		}
		h = (h ^ 0x1f) * prime
	}
	return h
}

// digestRows folds answer rows into (count, sum of row hashes).
func digestRows(rows [][]string) (int, uint64) {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r)
	}
	return len(rows), sum
}

// namer renders an integer id as a constant, e.g. namer("n")(17) = "n17".
type namer func(int32) string

func prefixed(prefix string) namer {
	return func(i int32) string { return prefix + strconv.Itoa(int(i)) }
}

// closure is the harness-owned reference for a canonical one-sided
// recursion
//
//	t(X, Y) :- step(X, Z), t(Z, Y).
//	t(X, Y) :- exit(X, Y).
//
// over integer node and exit ids. It is a plain adjacency structure the
// system under test never sees: t(x, Y) is every exit held by a node
// reachable from x in zero or more steps, and t(X, e) is every node that
// reaches a holder of e. The model is mutable so the churn workload can
// replay each write into it before computing the expected re-query.
type closure struct {
	node, exit namer
	succ, pred [][]int32
	exits      [][]int32         // node -> exit ids it holds
	holders    map[int32][]int32 // exit id -> nodes holding it

	mark  []uint32 // per-node visit stamp
	stamp uint32
	queue []int32
}

func newClosure(nodes int, node, exit namer) *closure {
	return &closure{
		node: node, exit: exit,
		succ: make([][]int32, nodes), pred: make([][]int32, nodes),
		exits: make([][]int32, nodes), holders: make(map[int32][]int32),
		mark: make([]uint32, nodes),
	}
}

func addTo(s []int32, v int32) ([]int32, bool) {
	for _, x := range s {
		if x == v {
			return s, false
		}
	}
	return append(s, v), true
}

func delFrom(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// addStep reports whether the edge was new (the database dedups too).
func (c *closure) addStep(u, v int32) bool {
	var fresh bool
	c.succ[u], fresh = addTo(c.succ[u], v)
	if fresh {
		c.pred[v] = append(c.pred[v], u)
	}
	return fresh
}

func (c *closure) delStep(u, v int32) {
	c.succ[u] = delFrom(c.succ[u], v)
	c.pred[v] = delFrom(c.pred[v], u)
}

func (c *closure) addExit(u, e int32) {
	var fresh bool
	c.exits[u], fresh = addTo(c.exits[u], e)
	if fresh {
		c.holders[e] = append(c.holders[e], u)
	}
}

func (c *closure) delExit(u, e int32) {
	c.exits[u] = delFrom(c.exits[u], e)
	if h := delFrom(c.holders[e], u); len(h) == 0 {
		delete(c.holders, e)
	} else {
		c.holders[e] = h
	}
}

// walk visits every node reachable from the seeds over adj, seeds
// included, each once.
func (c *closure) walk(adj [][]int32, seeds []int32, visit func(int32)) {
	c.stamp++
	q := c.queue[:0]
	for _, s := range seeds {
		if c.mark[s] != c.stamp {
			c.mark[s] = c.stamp
			q = append(q, s)
		}
	}
	for i := 0; i < len(q); i++ {
		u := q[i]
		visit(u)
		for _, v := range adj[u] {
			if c.mark[v] != c.stamp {
				c.mark[v] = c.stamp
				q = append(q, v)
			}
		}
	}
	c.queue = q
}

// from returns the rows of t(x, Y).
func (c *closure) from(x int32) [][]string {
	seen := make(map[int32]struct{})
	var rows [][]string
	xn := c.node(x)
	c.walk(c.succ, []int32{x}, func(u int32) {
		for _, e := range c.exits[u] {
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				rows = append(rows, []string{xn, c.exit(e)})
			}
		}
	})
	return rows
}

// to returns the rows of t(X, e).
func (c *closure) to(e int32) [][]string {
	var rows [][]string
	en := c.exit(e)
	c.walk(c.pred, c.holders[e], func(u int32) {
		rows = append(rows, []string{c.node(u), en})
	})
	return rows
}

// holds returns the rows of t(x, e): one row when it is true, none
// otherwise.
func (c *closure) holds(x, e int32) [][]string {
	found := false
	c.walk(c.succ, []int32{x}, func(u int32) {
		for _, h := range c.exits[u] {
			found = found || h == e
		}
	})
	if !found {
		return nil
	}
	return [][]string{{c.node(x), c.exit(e)}}
}

// reachSets computes, for every node, the set of exits 0..nExits-1 it
// reaches, as a bitset: one reverse walk per exit instead of one forward
// walk per query, which is what makes an oracle for thousands of cold
// queries on a 120k-edge graph affordable.
func (c *closure) reachSets(nExits int) [][]uint64 {
	words := (nExits + 63) / 64
	flat := make([]uint64, len(c.succ)*words)
	sets := make([][]uint64, len(c.succ))
	for i := range sets {
		sets[i] = flat[i*words : (i+1)*words]
	}
	for e := int32(0); e < int32(nExits); e++ {
		c.walk(c.pred, c.holders[e], func(u int32) {
			sets[u][e/64] |= 1 << (e % 64)
		})
	}
	return sets
}

// expectFromSet is the expectation for t(x, Y) given x's reach set.
func (c *closure) expectFromSet(x int32, set []uint64) (int, uint64) {
	var sum uint64
	n := 0
	row := []string{c.node(x), ""}
	for w, word := range set {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			row[1] = c.exit(int32(w*64 + b))
			sum += rowHash(row)
			n++
		}
	}
	return n, sum
}

// forest is the reference for same-generation
//
//	sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
//	sg(X, Y) :- sg0(X, Y).
//
// over p(child, parent) edges: sg(x, y) holds when some sg0(w, z) has x
// exactly k levels below w and y exactly k levels below z. p must stay
// acyclic (the generators only ever add leaves).
type forest struct {
	name     namer
	parents  [][]int32
	children [][]int32
	sg0      map[int32][]int32
}

func newForest(nodes int, name namer) *forest {
	return &forest{
		name:    name,
		parents: make([][]int32, nodes), children: make([][]int32, nodes),
		sg0: make(map[int32][]int32),
	}
}

// grow makes room for node ids up to n-1.
func (f *forest) grow(n int) {
	for len(f.parents) < n {
		f.parents = append(f.parents, nil)
		f.children = append(f.children, nil)
	}
}

func (f *forest) addParent(child, parent int32) {
	var fresh bool
	f.parents[child], fresh = addTo(f.parents[child], parent)
	if fresh {
		f.children[parent] = append(f.children[parent], child)
	}
}

func (f *forest) delParent(child, parent int32) {
	f.parents[child] = delFrom(f.parents[child], parent)
	f.children[parent] = delFrom(f.children[parent], child)
}

func (f *forest) addSG0(w, z int32) { f.sg0[w], _ = addTo(f.sg0[w], z) }

func uniq(s []int32) []int32 {
	seen := make(map[int32]struct{}, len(s))
	out := s[:0]
	for _, v := range s {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

// sameGen returns the Y of sg(x, Y) by level pairing: climb k levels
// from x, cross every sg0 pair found there, descend k levels.
func (f *forest) sameGen(x int32) []int32 {
	var ys []int32
	level := []int32{x}
	for k := 0; len(level) > 0; k++ {
		for _, w := range level {
			down := append([]int32(nil), f.sg0[w]...)
			for d := 0; d < k && len(down) > 0; d++ {
				var next []int32
				for _, z := range down {
					next = append(next, f.children[z]...)
				}
				down = uniq(next)
			}
			ys = append(ys, down...)
		}
		var up []int32
		for _, w := range level {
			up = append(up, f.parents[w]...)
		}
		level = uniq(up)
	}
	return uniq(ys)
}

// from returns the rows of sg(x, Y).
func (f *forest) from(x int32) [][]string {
	ys := f.sameGen(x)
	rows := make([][]string, len(ys))
	for i, y := range ys {
		rows[i] = []string{f.name(x), f.name(y)}
	}
	return rows
}

// holds returns the rows of sg(x, y).
func (f *forest) holds(x, y int32) [][]string {
	for _, v := range f.sameGen(x) {
		if v == y {
			return [][]string{{f.name(x), f.name(y)}}
		}
	}
	return nil
}
