package main

import (
	"fmt"
	"math/rand"
)

// churn_durable: a forest of a-chains with b-exits plus a small
// genealogy forest, 24 standing queries in three classes of 8, and an
// endless deterministic stream of write cycles. The stream owns the
// mutable reference model: next() applies the cycle's writes to it and
// returns what the cycle's re-query must then answer.

const (
	churnInserts  = 24
	churnRetracts = 8
	perClass      = 8 // standing queries per class: t/bf, t/fb, sg/bf
	// goalDepth is where each fb goal hangs on its chain: t(X, goal) has
	// goalDepth+1 answers while the chain is intact.
	goalDepth = 150
	// cutSpan bounds where an a-edge is cut, so a cut usually changes a
	// standing answer (upstream of a goal, and upstream of most exits).
	cutSpan = 300
	// retractFloor is how many of its own inserts a pool keeps live
	// before the stream starts retracting from it.
	retractFloor = 64
)

// cycle is one write batch plus the standing query re-asked after it.
type cycle struct {
	id       int
	inserts  []fact
	retracts []fact
	marker   string // exit inserted on the subscribed chain this cycle
	query    int    // index into instance.queries
	want     expect
}

type exitAt struct{ node, exit int32 }
type leafAt struct{ child, parent int32 }

type churnStream struct {
	sz    sizes
	rng   *rand.Rand
	tc    *closure
	ge    *forest
	id    int
	nextX int32 // next fresh exit id ("e<i>"; markers are "m<cycle>")
	nextG int32 // next fresh genealogy node id

	// Live inserts eligible for retraction, by whether a standing query
	// can see them: retracting as many watched exits and genealogy leaves
	// as are inserted keeps the standing answers (and the cost of
	// maintaining them) stationary, while the database as a whole grows by
	// 16 unwatched exits a cycle.
	watched, unwatched []exitAt
	leaves             []leafAt
	cut                *[2]int32 // the a-edge currently cut out, if any

	queries []churnQuery
}

// churnQuery is a standing query and how to recompute its answer.
type churnQuery struct {
	text, class, strategy string
	rows                  func() [][]string
}

// Exit ids: 0.. are ordinary "e" exits (the initial ones, then the
// stream's), negative ids are the fb goals, and markers live above
// markerBase under their own "m" prefix so a subscriber can recognise
// them by name.
const markerBase = 1 << 30

func churnExitName() namer {
	return func(e int32) string {
		switch {
		case e >= markerBase:
			return fmt.Sprintf("m%d", e-markerBase)
		case e < 0:
			return fmt.Sprintf("goal%d", -e-1)
		default:
			return fmt.Sprintf("e%d", e)
		}
	}
}

func (s *churnStream) chainNode(chain, pos int) int32 { return int32(chain*s.sz.chainLen + pos) }

// newChurnBase builds the initial dataset and a stream positioned before
// cycle 0. facts is nil when only the stream is wanted.
func newChurnBase(seed int64, sz sizes, facts *[]fact) *churnStream {
	rng := rngFor(seed, 5)
	emit := func(f fact) {
		if facts != nil {
			*facts = append(*facts, f)
		}
	}
	s := &churnStream{sz: sz, rng: rng}
	s.tc = newClosure(sz.chains*sz.chainLen, prefixed("n"), churnExitName())
	for ch := 0; ch < sz.chains; ch++ {
		for i := 0; i < sz.chainLen-1; i++ {
			u := s.chainNode(ch, i)
			s.tc.addStep(u, u+1)
			emit(f2("a", s.tc.node(u), s.tc.node(u+1)))
		}
		for k := 0; k < 4; k++ {
			u := s.chainNode(ch, rng.Intn(sz.chainLen))
			s.tc.addExit(u, s.nextX)
			emit(f2("b", s.tc.node(u), s.tc.exit(s.nextX)))
			s.nextX++
		}
	}
	depth := min(goalDepth, sz.chainLen/2)
	for g := 0; g < perClass; g++ {
		// Goals hang on chains 8..15; chains 0..7 carry the bf queries.
		u, e := s.chainNode(perClass+g, depth), int32(-g-1)
		s.tc.addExit(u, e)
		emit(f2("b", s.tc.node(u), s.tc.exit(e)))
	}
	perTree := 1<<(sz.treeDepth+1) - 1
	s.ge = newForest(sz.trees*perTree, prefixed("g"))
	s.nextG = int32(sz.trees * perTree)
	for t := 0; t < sz.trees; t++ {
		root := int32(t * perTree)
		for i := int32(1); i < int32(perTree); i++ {
			s.ge.addParent(root+i, root+(i-1)/2)
			emit(f2("p", s.ge.name(root+i), s.ge.name(root+(i-1)/2)))
		}
		s.ge.addSG0(root, root)
		emit(f2("sg0", s.ge.name(root), s.ge.name(root)))
	}

	// Standing queries, dealt so consecutive cycles alternate classes.
	for i := 0; i < perClass; i++ {
		head := s.chainNode(i, 0)
		goal := int32(-i - 1)
		leaf := int32((i%sz.trees)*perTree + (1<<sz.treeDepth - 1) + i)
		s.queries = append(s.queries,
			churnQuery{fmt.Sprintf("t(%s, Y)", s.tc.node(head)), "t/bf", stratOneSided,
				func() [][]string { return s.tc.from(head) }},
			churnQuery{fmt.Sprintf("t(X, %s)", s.tc.exit(goal)), "t/fb", stratOneSided,
				func() [][]string { return s.tc.to(goal) }},
			churnQuery{fmt.Sprintf("sg(%s, Y)", s.ge.name(leaf)), "sg/bf", stratMagic,
				func() [][]string { return s.ge.from(leaf) }},
		)
	}
	return s
}

// subscribed is the standing query the second connection subscribes to:
// t(head of chain 0, Y). Every cycle inserts one marker exit on that
// chain.
func (s *churnStream) subscribed() churnQuery { return s.queries[0] }

func genChurn(seed int64, sz sizes) *instance {
	inst := &instance{
		durable:   true,
		rules:     append(tcRules("t", "a", "b"), "sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).", "sg(X, Y) :- sg0(X, Y)."),
		tracedOps: sz.tracedCycles,
	}
	base := newChurnBase(seed, sz, &inst.facts)
	for _, q := range base.queries {
		n, sum := digestRows(q.rows())
		inst.queries = append(inst.queries, queryOp{text: q.text, class: q.class,
			want: expect{count: n, sum: sum, strategy: q.strategy}})
	}
	inst.newChurn = func() *churnStream { return newChurnBase(seed, sz, nil) }
	return inst
}

// takeFrom removes and returns a random element of a pool.
func takeFrom[T any](rng *rand.Rand, pool *[]T) T {
	p := *pool
	i := rng.Intn(len(p))
	v := p[i]
	p[i] = p[len(p)-1]
	*pool = p[:len(p)-1]
	return v
}

// next generates cycle s.id, applies it to the model, and computes the
// expected answer of the standing query the cycle re-asks.
func (s *churnStream) next() cycle {
	cy := cycle{id: s.id, query: s.id % len(s.queries)}
	rng, tc := s.rng, s.tc
	insExit := func(u, e int32, pool *[]exitAt) {
		tc.addExit(u, e)
		cy.inserts = append(cy.inserts, f2("b", tc.node(u), tc.exit(e)))
		*pool = append(*pool, exitAt{u, e})
	}
	delExit := func(x exitAt) {
		tc.delExit(x.node, x.exit)
		cy.retracts = append(cy.retracts, f2("b", tc.node(x.node), tc.exit(x.exit)))
	}
	// Retractions only ever name facts of earlier cycles, so they are drawn
	// before this cycle's inserts join the pools. Per cycle, once the
	// pools are warm: 4 watched exits, 1 genealogy leaf, 3 unwatched exits.
	var dropExits []exitAt
	var dropLeaves []leafAt
	if len(s.watched) >= retractFloor {
		for i := 0; i < 4; i++ {
			dropExits = append(dropExits, takeFrom(rng, &s.watched))
		}
	}
	if len(s.leaves) >= retractFloor {
		dropLeaves = append(dropLeaves, takeFrom(rng, &s.leaves))
	}
	if len(s.unwatched) >= retractFloor {
		for i := 0; i < churnRetracts-5; i++ {
			dropExits = append(dropExits, takeFrom(rng, &s.unwatched))
		}
	}

	// Inserts: the marker and three more exits on the watched chains
	// (0..7), one new genealogy leaf, the rest exits on unwatched chains.
	marker := int32(markerBase + s.id)
	cy.marker = tc.exit(marker)
	insExit(s.chainNode(0, rng.Intn(s.sz.chainLen)), marker, &s.watched)
	for i := 0; i < 3; i++ {
		insExit(s.chainNode(rng.Intn(perClass), rng.Intn(s.sz.chainLen)), s.nextX, &s.watched)
		s.nextX++
	}
	for i := 0; i < churnInserts-5; i++ {
		ch := perClass + rng.Intn(s.sz.chains-perClass)
		insExit(s.chainNode(ch, rng.Intn(s.sz.chainLen)), s.nextX, &s.unwatched)
		s.nextX++
	}
	{
		// New leaves hang off original nodes only, so any of them can be
		// retracted later without orphaning another insert.
		originals := s.sz.trees * (1<<(s.sz.treeDepth+1) - 1)
		l := leafAt{child: s.nextG, parent: int32(rng.Intn(originals))}
		s.nextG++
		s.ge.grow(int(s.nextG))
		s.ge.addParent(l.child, l.parent)
		cy.inserts = append(cy.inserts, f2("p", s.ge.name(l.child), s.ge.name(l.parent)))
		s.leaves = append(s.leaves, l)
	}
	for _, x := range dropExits {
		delExit(x)
	}
	for _, l := range dropLeaves {
		s.ge.delParent(l.child, l.parent)
		cy.retracts = append(cy.retracts, f2("p", s.ge.name(l.child), s.ge.name(l.parent)))
	}
	// Every fourth cycle cuts an a-edge out of a queried chain or splices
	// the previously cut edge back.
	if s.id%4 == 3 {
		if s.cut == nil {
			u := s.chainNode(rng.Intn(2*perClass), rng.Intn(min(cutSpan, s.sz.chainLen-1)))
			tc.delStep(u, u+1)
			cy.retracts = append(cy.retracts, f2("a", tc.node(u), tc.node(u+1)))
			s.cut = &[2]int32{u, u + 1}
		} else {
			tc.addStep(s.cut[0], s.cut[1])
			cy.inserts = append(cy.inserts, f2("a", tc.node(s.cut[0]), tc.node(s.cut[1])))
			s.cut = nil
		}
	}
	q := s.queries[cy.query]
	n, sum := digestRows(q.rows())
	cy.want = expect{count: n, sum: sum, strategy: q.strategy}
	s.id++
	return cy
}
