package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
)

// The canonical one-sided recursion every TC-shaped workload loads,
// under a predicate prefix so several programs share one engine.
func tcRules(t, step, exit string) []string {
	return []string{
		fmt.Sprintf("%s(X, Y) :- %s(X, Z), %s(Z, Y).", t, step, t),
		fmt.Sprintf("%s(X, Y) :- %s(X, Y).", t, exit),
	}
}

const (
	stratOneSided = "onesided"
	stratMagic    = "magic"
	stratEDB      = "edb"
)

// queryOp is one distinct query with its precomputed expectation.
type queryOp struct {
	text  string
	class string // shape label, e.g. "t/bf"
	want  expect
}

// instance is one generated workload: what to ingest and what to ask.
// Everything in it is a pure function of (workload name, seed, sizes).
type instance struct {
	name    string
	facts   []fact
	rules   []string
	durable bool // WithPersistence + SyncAlways

	// Read workloads: op i is queries[order[i % len(order)]].
	queries []queryOp
	order   []int32
	// churn_durable: cycles are generated on demand by a fresh stream.
	newChurn func() *churnStream

	tracedOps int    // ops per execution mode in the traced run
	digest    string // dataset + op-list digest
}

// sizes scales every generator; full is the benchmark, short keeps the
// unit tests under a few seconds.
type sizes struct {
	wideNodes, wideEdges, wideExits, wideQueries int
	deepLen, deepExits, deepTail, deepStarts     int
	hotScale                                     int // divisor applied to the five programs
	chains, chainLen, trees, treeDepth           int
	tracedCold, tracedHot, tracedCycles          int
	warmup                                       int // ops run before anything is timed
}

var fullSizes = sizes{
	wideNodes: 30000, wideEdges: 120000, wideExits: 300, wideQueries: 4096,
	deepLen: 20000, deepExits: 64, deepTail: 2000, deepStarts: 2000,
	hotScale: 1,
	chains:   64, chainLen: 2000, trees: 8, treeDepth: 6,
	tracedCold: 128, tracedHot: 2048, tracedCycles: 132,
	warmup: 128,
}

var shortSizes = sizes{
	wideNodes: 600, wideEdges: 2400, wideExits: 30, wideQueries: 64,
	deepLen: 400, deepExits: 8, deepTail: 40, deepStarts: 40,
	hotScale: 16,
	chains:   16, chainLen: 400, trees: 8, treeDepth: 4,
	tracedCold: 8, tracedHot: 32, tracedCycles: 12,
	warmup: 8,
}

// workloadDoc records why each workload exists; BENCHMARK.json and the
// README carry the same text.
var workloadDoc = []struct{ name, why string }{
	{"wide_cold", "cold one-sided selections on a 30k-node random digraph: wide carries, so eval probes and storage lookups are the whole cost and the result cache (64) never fits the 4096 starts"},
	{"deep_cold", "the same recursion on a 20k-edge chain: one context per level, so the per-level fixed cost dominates instead of per-context work"},
	{"hot_mixed", "48 bound queries over five programs drawn Zipf(1.2): the working set fits the result cache, so server, parser and plan/result-cache hits are the whole cost"},
	{"churn_durable", "writes beside reads under SyncAlways: insert/retract batches, maintained re-queries and a live subscription; the only workload where wal, delta maintenance and DRed do work"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDoc))
	for i, w := range workloadDoc {
		names[i] = w.name
	}
	return names
}

// generate builds the named workload for a seed.
func generate(name string, seed int64, sz sizes) (*instance, error) {
	var inst *instance
	switch name {
	case "wide_cold":
		inst = genWide(seed, sz)
	case "deep_cold":
		inst = genDeep(seed, sz)
	case "hot_mixed":
		inst = genHot(seed, sz)
	case "churn_durable":
		inst = genChurn(seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	inst.name = name
	inst.digest = digestInstance(inst)
	return inst, nil
}

// rngFor derives an independent stream per (seed, purpose).
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

func f2(pred, a, b string) fact { return fact{Pred: pred, Args: []string{a, b}} }

// ---------------------------------------------------------------------------
// wide_cold

func genWide(seed int64, sz sizes) *instance {
	rng := rngFor(seed, 1)
	node, exit := prefixed("n"), prefixed("e")
	c := newClosure(sz.wideNodes, node, exit)
	inst := &instance{rules: tcRules("t", "a", "b"), tracedOps: sz.tracedCold}
	for i := 0; i < sz.wideEdges; i++ {
		u, v := int32(rng.Intn(sz.wideNodes)), int32(rng.Intn(sz.wideNodes))
		c.addStep(u, v)
		inst.facts = append(inst.facts, f2("a", node(u), node(v)))
	}
	for e := 0; e < sz.wideExits; e++ {
		u := int32(rng.Intn(sz.wideNodes))
		c.addExit(u, int32(e))
		inst.facts = append(inst.facts, f2("b", node(u), exit(int32(e))))
	}
	sets := c.reachSets(sz.wideExits)
	// Distinct starts, never repeated within a pass: the working set must
	// dwarf the 64-entry result cache so every query is a cold Fig. 9 run.
	starts := rng.Perm(sz.wideNodes)[:sz.wideQueries]
	inst.addStarts(c, sets, starts)
	return inst
}

// addStarts appends one t(start, Y) query per start, in order.
func (inst *instance) addStarts(c *closure, sets [][]uint64, starts []int) {
	for _, s := range starts {
		n, sum := c.expectFromSet(int32(s), sets[s])
		inst.order = append(inst.order, int32(len(inst.queries)))
		inst.queries = append(inst.queries, queryOp{
			text:  fmt.Sprintf("t(%s, Y)", c.node(int32(s))),
			class: "t/bf",
			want:  expect{count: n, sum: sum, strategy: stratOneSided},
		})
	}
}

// ---------------------------------------------------------------------------
// deep_cold

func genDeep(seed int64, sz sizes) *instance {
	rng := rngFor(seed, 2)
	node, exit := prefixed("n"), prefixed("e")
	c := newClosure(sz.deepLen+1, node, exit)
	inst := &instance{rules: tcRules("t", "a", "b"), tracedOps: sz.tracedCold}
	for i := 0; i < sz.deepLen; i++ {
		c.addStep(int32(i), int32(i+1))
		inst.facts = append(inst.facts, f2("a", node(int32(i)), node(int32(i+1))))
	}
	for e := 0; e < sz.deepExits; e++ {
		u := int32(sz.deepLen - rng.Intn(sz.deepTail))
		c.addExit(u, int32(e))
		inst.facts = append(inst.facts, f2("b", node(u), exit(int32(e))))
	}
	sets := c.reachSets(sz.deepExits)
	// Starts in the head of the chain: every query walks ~deepLen levels
	// with a carry one context wide.
	inst.addStarts(c, sets, rng.Perm(sz.deepStarts))
	return inst
}

// ---------------------------------------------------------------------------
// hot_mixed: the five example programs side by side.

// hotShape is one query shape of the mix: how many distinct queries it
// contributes and how to draw one.
type hotShape struct {
	class string
	n     int
	draw  func(rng *rand.Rand) (text string, rows [][]string, strategy string)
}

func genHot(seed int64, sz sizes) *instance {
	rng := rngFor(seed, 3)
	inst := &instance{tracedOps: sz.tracedHot}
	div := func(n int) int { return max(n/sz.hotScale, 4) }
	pick := func(n int) int32 { return int32(rng.Intn(n)) }

	// quickstart: transitive closure over disjoint chains, an exit every
	// few hops.
	qsChains, qsLen := div(400), 250
	qs := newClosure(qsChains*qsLen, prefixed("qn"), prefixed("qe"))
	inst.rules = append(inst.rules, tcRules("qs_t", "qs_a", "qs_b")...)
	qsExits := 0
	for ch := 0; ch < qsChains; ch++ {
		for i := 0; i < qsLen-1; i++ {
			u := int32(ch*qsLen + i)
			qs.addStep(u, u+1)
			inst.facts = append(inst.facts, f2("qs_a", qs.node(u), qs.node(u+1)))
		}
		for k := 0; k < 6; k++ {
			u, e := int32(ch*qsLen+rng.Intn(qsLen)), int32(qsExits)
			qsExits++
			qs.addExit(u, e)
			inst.facts = append(inst.facts, f2("qs_b", qs.node(u), qs.exit(e)))
		}
	}

	// flights: reachability over a random route network with ferry exits
	// to a handful of islands.
	flApts, flLegs, flFerries, flIslands := div(20000), div(80000), div(1200), 12
	fl := newClosure(flApts, prefixed("apt"), prefixed("isl"))
	inst.rules = append(inst.rules, tcRules("fl_reach", "fl_flight", "fl_ferry")...)
	for i := 0; i < flLegs; i++ {
		u, v := pick(flApts), pick(flApts)
		fl.addStep(u, v)
		inst.facts = append(inst.facts, f2("fl_flight", fl.node(u), fl.node(v)))
	}
	for i := 0; i < flFerries; i++ {
		u, e := pick(flApts), pick(flIslands)
		fl.addExit(u, e)
		inst.facts = append(inst.facts, f2("fl_ferry", fl.node(u), fl.exit(e)))
	}

	// genealogy: same generation over complete binary trees; two-sided,
	// so the planner must fall back to Magic Sets.
	geTrees, geDepth := div(240), 7
	perTree := 1<<(geDepth+1) - 1
	ge := newForest(geTrees*perTree, prefixed("g"))
	inst.rules = append(inst.rules,
		"ge_sg(X, Y) :- ge_p(X, W), ge_p(Y, Z), ge_sg(W, Z).",
		"ge_sg(X, Y) :- ge_sg0(X, Y).")
	for t := 0; t < geTrees; t++ {
		root := int32(t * perTree)
		for i := int32(1); i < int32(perTree); i++ {
			ge.addParent(root+i, root+(i-1)/2)
			inst.facts = append(inst.facts, f2("ge_p", ge.name(root+i), ge.name(root+(i-1)/2)))
		}
		ge.addSG0(root, root)
		inst.facts = append(inst.facts, f2("ge_sg0", ge.name(root), ge.name(root)))
	}
	// A node at heap depth 3 or 4 has 8 or 16 same-generation peers.
	geNode := func(r *rand.Rand) int32 {
		d := 3 + r.Intn(2)
		return int32(r.Intn(geTrees)*perTree + (1<<d - 1) + r.Intn(1<<d))
	}

	// marketbasket: buys(X,Y) :- knows(X,W), buys(W,Y), cheap(Y) — two-
	// sided as written, one-sided once the redundant cheap(Y) is removed.
	mbPeople, mbLen, mbItems := div(6000), 8, 40
	mb := newClosure(mbPeople*mbLen, prefixed("mp"), prefixed("item"))
	inst.rules = append(inst.rules,
		"mb_buys(X, Y) :- mb_knows(X, W), mb_buys(W, Y), mb_cheap(Y).",
		"mb_buys(X, Y) :- mb_likes(X, Y), mb_cheap(Y).")
	for i := int32(0); i < int32(mbItems); i += 2 {
		inst.facts = append(inst.facts, fact{Pred: "mb_cheap", Args: []string{mb.exit(i)}})
	}
	for p := 0; p < mbPeople; p++ {
		for i := 0; i < mbLen-1; i++ {
			u := int32(p*mbLen + i)
			mb.addStep(u, u+1)
			inst.facts = append(inst.facts, f2("mb_knows", mb.node(u), mb.node(u+1)))
		}
		for k := 0; k < 4; k++ {
			u, item := int32(p*mbLen+rng.Intn(mbLen)), pick(mbItems)
			inst.facts = append(inst.facts, f2("mb_likes", mb.node(u), mb.exit(item)))
			if item%2 == 0 { // only cheap items are ever bought
				mb.addExit(u, item)
			}
		}
	}

	// appendixa: Example A.1's bounded p — c(X1) is idempotent, so the
	// recursion collapses to c(X1), p0(X1, X2).
	axUsers := div(20000)
	ax := newClosure(axUsers, prefixed("u"), prefixed("v"))
	inst.rules = append(inst.rules,
		"ax_p(X1, X2) :- ax_c(X1), ax_p(X1, X2).",
		"ax_p(X1, X2) :- ax_c(X1), ax_p0(X1, X2).")
	for u := int32(0); u < int32(axUsers); u++ {
		inC := u%4 != 3
		if inC {
			inst.facts = append(inst.facts, fact{Pred: "ax_c", Args: []string{ax.node(u)}})
		}
		for k := int32(0); k < 3; k++ {
			e := u*3 + k
			inst.facts = append(inst.facts, f2("ax_p0", ax.node(u), ax.exit(e)))
			if inC {
				ax.addExit(u, e)
			}
		}
	}

	// 48 distinct queries over nine shapes. Ranks are dealt round-robin
	// over the shapes so the Zipf head always holds the same mix of shapes
	// whatever the seed; the seed only picks the constants.
	shapes := []hotShape{
		{"qs_t/bf", 8, func(r *rand.Rand) (string, [][]string, string) {
			x := int32(r.Intn(qsChains)*qsLen + r.Intn(qsLen/2))
			return fmt.Sprintf("qs_t(%s, Y)", qs.node(x)), qs.from(x), stratOneSided
		}},
		{"fl_reach/bf", 8, func(r *rand.Rand) (string, [][]string, string) {
			x := int32(r.Intn(flApts))
			return fmt.Sprintf("fl_reach(%s, Y)", fl.node(x)), fl.from(x), stratOneSided
		}},
		{"ge_sg/bf", 6, func(r *rand.Rand) (string, [][]string, string) {
			x := geNode(r)
			return fmt.Sprintf("ge_sg(%s, Y)", ge.name(x)), ge.from(x), stratMagic
		}},
		{"mb_buys/bf", 6, func(r *rand.Rand) (string, [][]string, string) {
			x := int32(r.Intn(mbPeople) * mbLen)
			return fmt.Sprintf("mb_buys(%s, Y)", mb.node(x)), mb.from(x), stratOneSided
		}},
		{"qs_t/fb", 6, func(r *rand.Rand) (string, [][]string, string) {
			// Every node upstream of the exit answers, 1 to 250 of them by
			// where the exit sits; a band keeps the mix's mean response
			// size from depending on the seed.
			e := int32(r.Intn(qsExits))
			rows := qs.to(e)
			for len(rows) < qsLen/4 || len(rows) > qsLen/2 {
				e = int32(r.Intn(qsExits))
				rows = qs.to(e)
			}
			return fmt.Sprintf("qs_t(X, %s)", qs.exit(e)), rows, stratOneSided
		}},
		{"ax_p/bf", 4, func(r *rand.Rand) (string, [][]string, string) {
			x := int32(r.Intn(axUsers))
			return fmt.Sprintf("ax_p(%s, Y)", ax.node(x)), ax.from(x), stratOneSided
		}},
		{"fl_flight/edb", 4, func(r *rand.Rand) (string, [][]string, string) {
			x := int32(r.Intn(flApts))
			var rows [][]string
			for _, v := range fl.succ[x] {
				rows = append(rows, []string{fl.node(x), fl.node(v)})
			}
			return fmt.Sprintf("fl_flight(%s, Y)", fl.node(x)), rows, stratEDB
		}},
		{"qs_t/bb", 4, func(r *rand.Rand) (string, [][]string, string) {
			x := int32(r.Intn(qsChains)*qsLen + r.Intn(qsLen/2))
			e := int32(r.Intn(qsExits))
			if rows := qs.from(x); len(rows) > 0 && r.Intn(2) == 0 {
				return fmt.Sprintf("qs_t(%s, %s)", rows[0][0], rows[0][1]), rows[:1], stratOneSided
			}
			return fmt.Sprintf("qs_t(%s, %s)", qs.node(x), qs.exit(e)), qs.holds(x, e), stratOneSided
		}},
		{"ge_sg/bb", 2, func(r *rand.Rand) (string, [][]string, string) {
			x := geNode(r)
			peers := ge.sameGen(x)
			y := peers[r.Intn(len(peers))]
			return fmt.Sprintf("ge_sg(%s, %s)", ge.name(x), ge.name(y)), ge.holds(x, y), stratMagic
		}},
	}
	seen := make(map[string]bool)
	left := make([]int, len(shapes))
	total := 0
	for i, s := range shapes {
		left[i] = s.n
		total += s.n
	}
	for len(inst.queries) < total {
		for i, s := range shapes {
			if left[i] == 0 {
				continue
			}
			text, rows, strategy := s.draw(rng)
			for seen[text] {
				text, rows, strategy = s.draw(rng)
			}
			seen[text] = true
			n, sum := digestRows(rows)
			inst.queries = append(inst.queries, queryOp{text: text, class: s.class,
				want: expect{count: n, sum: sum, strategy: strategy}})
			left[i]--
		}
	}
	// Zipf(1.2) over ranks 0..47: working set (48) < result cache (64).
	// The stream opens with every query once, so the warm-up leaves all 48
	// cached whatever the seed: set-up does the same cold evaluations on
	// every run and the timed pass is cache hits only.
	zipf := rand.NewZipf(rngFor(seed, 4), 1.2, 1, uint64(total-1))
	inst.order = make([]int32, 1<<16)
	for i := range inst.order {
		if i < total {
			inst.order[i] = int32(i)
		} else {
			inst.order[i] = int32(zipf.Uint64())
		}
	}
	return inst
}

// ---------------------------------------------------------------------------
// digest

func digestFacts(h hash.Hash64, facts []fact) {
	for _, f := range facts {
		h.Write([]byte(f.Pred))
		for _, a := range f.Args {
			h.Write([]byte{0x1f})
			h.Write([]byte(a))
		}
		h.Write([]byte{'\n'})
	}
}

func digestQuery(h hash.Hash64, q queryOp) {
	h.Write([]byte(q.text))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(q.want.count))
	binary.LittleEndian.PutUint64(b[8:], q.want.sum)
	h.Write(b[:])
	h.Write([]byte(q.want.strategy))
}

// digestInstance fingerprints everything the program will be shown: the
// dataset in ingest order, the rules, and the op list with its expected
// answers (for churn, the first tracedOps cycles of a fresh stream).
func digestInstance(inst *instance) string {
	h := fnv.New64a()
	digestFacts(h, inst.facts)
	for _, r := range inst.rules {
		h.Write([]byte(r))
	}
	for _, qi := range inst.order {
		digestQuery(h, inst.queries[qi])
	}
	if inst.newChurn != nil {
		cs := inst.newChurn()
		for i := 0; i < inst.tracedOps; i++ {
			cy := cs.next()
			digestFacts(h, cy.inserts)
			digestFacts(h, cy.retracts)
			q := inst.queries[cy.query]
			q.want = cy.want
			digestQuery(h, q)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
