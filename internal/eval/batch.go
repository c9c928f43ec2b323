package eval

import (
	"context"

	"repro/internal/ast"
	"repro/internal/bitset"
	"repro/internal/storage"
)

// This file implements batched multi-query evaluation — the paper's
// Section 5 observation made operational: several selections of the same
// adornment share one traversal. For context-mode Fig. 9 plans the
// carried contexts reachable from the queries' seeds are explored with
// per-query owner bitmasks, so a context reached by many queries is
// expanded (f) per owner wave but g-joined exactly once; for Magic Sets
// the queries' seed facts are unioned into one rewritten program and a
// single semi-naive fixpoint computes every query's magic set and
// answers together.

// BatchPrepared is implemented by prepared skeleton plans that can
// evaluate several bound instances in one shared traversal. binds holds
// one slot table per query (each of the skeleton's width); the i-th
// returned relation answers the i-th query. The returned EvalStats
// describes the shared evaluation as a whole — in particular GProbes
// counts distinct g-joins performed, which for overlapping queries is
// strictly below the sum of per-query evaluations.
type BatchPrepared interface {
	PreparedStrategy
	EvalBatch(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error)
}

// Owner masks are multi-word bitmasks of batch query ordinals: bit q
// marks query q as an owner. One shared traversal serves a batch of any
// size — masks grow by the word, there is no 64-query chunking. The
// representation lives in internal/bitset (Mask), shared with the
// evaluator's other bit-vector sets.

// ctxIndex maps context tuples to their dense ordinal via open
// addressing over tuple hashes — the owner table's interner, with no
// string keys on the batch hot path. slots holds ordinal+1 (0 = empty);
// hashes holds each occupied slot's full tuple hash so growth rehashes
// without re-reading tuples. The interned contexts live in one flat
// arena (ctxs, width values each), ordinal order.
type ctxIndex struct {
	slots  []int32
	hashes []uint32
	ctxs   carryBuf
	width  int
}

// ordinalOf returns tup's ordinal, interning a copy when absent; fresh
// reports whether the context is new.
func (ix *ctxIndex) ordinalOf(tup storage.Tuple) (ord int, fresh bool) {
	if 4*(ix.ctxs.n+1) > 3*len(ix.slots) {
		newCap := 2 * len(ix.slots)
		if newCap < 16 {
			newCap = 16
		}
		slots := make([]int32, newCap)
		hashes := make([]uint32, newCap)
		mask := uint32(newCap - 1)
		for i, s := range ix.slots {
			if s == 0 {
				continue
			}
			h := ix.hashes[i]
			j := h & mask
			for slots[j] != 0 {
				j = (j + 1) & mask
			}
			slots[j], hashes[j] = s, h
		}
		ix.slots, ix.hashes = slots, hashes
	}
	h := storage.HashTuple(tup)
	mask := uint32(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			ord = ix.ctxs.n
			ix.ctxs.push(tup)
			ix.slots[i] = int32(ord + 1)
			ix.hashes[i] = h
			return ord, true
		}
		if ix.hashes[i] == h && tuplesEqual(ix.ctxs.at(int(s-1), ix.width), tup) {
			return int(s - 1), false
		}
	}
}

// tuplesEqual compares two same-arity tuples.
func tuplesEqual(a, b storage.Tuple) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// EvalBatch implements BatchPrepared for the one-sided planner.
func (o *oneSidedPrepared) EvalBatch(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error) {
	return o.plan.EvalBatchCtx(ctx, edb, binds)
}

// EvalBatchCtx evaluates len(binds) same-skeleton selections, sharing
// one Fig. 9 traversal when the plan is context-mode and its reduced
// definition is constant-free (no bound persistent columns): contexts
// are owner-tagged with multi-word bitmasks, so overlapping queries
// expand and g-join the shared part of the context graph once, however
// large the batch. Other modes fall back to per-query evaluation (for
// an all-free adornment the queries are identical and evaluate once).
func (p *Plan) EvalBatchCtx(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error) {
	k := len(binds)
	if k == 0 {
		return nil, EvalStats{}, nil
	}
	bound := make([]*Plan, k)
	for i, b := range binds {
		bp, err := p.Bind(b)
		if err != nil {
			return nil, EvalStats{}, err
		}
		bound[i] = bp
	}
	if !p.batchShareable() {
		return evalBatchFallback(ctx, edb, bound, p.NSlots == 0)
	}
	rels, stats, err := p.evalContextBatch(ctx, edb, bound)
	if err != nil {
		return nil, stats, err
	}
	stats.BatchQueries = k
	return rels, stats, nil
}

// batchShareable reports whether one traversal can serve many bound
// instances: the plan must be context-mode and its reduced definition
// slot-free. Bound persistent columns substitute their (per-query)
// constants into the reduced rules themselves, which would specialize
// the shared f and g operators — those adornments evaluate per query.
func (p *Plan) batchShareable() bool {
	return p.Mode == ModeContext &&
		!p.reduced.Recursive.HasSlots() &&
		!p.reduced.Exit.HasSlots()
}

// evalBatchFallback evaluates bound plans one by one. When the skeleton
// has no slots every bound plan is the same plan; it evaluates once and
// every query shares the answer relation.
func evalBatchFallback(ctx context.Context, edb *storage.Database, bound []*Plan, identical bool) ([]*storage.Relation, EvalStats, error) {
	k := len(bound)
	rels := make([]*storage.Relation, k)
	var stats EvalStats
	if identical {
		rel, st, err := bound[0].EvalCtx(ctx, edb)
		if err != nil {
			return nil, st, err
		}
		for i := range rels {
			rels[i] = rel
		}
		st.BatchQueries = k
		return rels, st, nil
	}
	for i, bp := range bound {
		rel, st, err := bp.EvalCtx(ctx, edb)
		if err != nil {
			return nil, stats, err
		}
		rels[i] = rel
		stats = addBatchStats(stats, st)
	}
	stats.BatchQueries = k
	return rels, stats, nil
}

// addBatchStats merges per-query fallback statistics: work counters add,
// environment bounds take the maximum.
func addBatchStats(a, b EvalStats) EvalStats {
	out := a
	out.Iterations += b.Iterations
	out.SeenSize += b.SeenSize
	out.GProbes += b.GProbes
	out.Batches += b.Batches
	out.CarryArity = max(out.CarryArity, b.CarryArity)
	return out
}

// evalContextBatch is the shared Fig. 9 traversal for arbitrarily many
// bound instances of one context-mode skeleton. Per query it evaluates
// the depth-0 join, the factor groups, and the seed conjunction (those
// mention the query's constants); the f and g operators are compiled
// once from the shared reduced definition. The traversal is a
// multi-source label propagation: a context re-enters the frontier only
// when a new owner reaches it, and the final g phase joins each distinct
// context exactly once, fanning its answers out to every owner.
func (p *Plan) evalContextBatch(ctx context.Context, edb *storage.Database, bound []*Plan) ([]*storage.Relation, EvalStats, error) {
	k := len(bound)
	syms := edb.Syms
	resolve := func(pred string, alt bool) *storage.Relation { return edb.Relation(pred) }
	stats := EvalStats{CarryArity: p.CarryArity}
	tally := edb.Stats.Tally()
	defer tally.Flush()

	ans := make([]*storage.Relation, k)
	groups := make([][]groupResult, k)
	qconsts := make([]storage.Tuple, k)
	alive := make([]bool, k)
	for q, bp := range bound {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		ans[q] = storage.NewRelation(p.Def.Arity(), &edb.Stats)
		// Depth-0 answers use the query's own constants; no sharing.
		stats.GProbes++
		bp.compileD0(syms).run(bp, syms, resolve, &tally, func(t storage.Tuple) bool {
			ans[q].Insert(t)
			return true
		})
		gs, ok := bp.evalFactoredGroups(syms, resolve, &tally)
		if !ok {
			// An empty factor group: this query has depth-0 answers only,
			// so it never seeds the traversal.
			continue
		}
		groups[q] = gs
		qconsts[q] = queryConsts(bp.Query, syms)
		alive[q] = true
	}

	nAnchors := len(p.foldedAnchors)
	carryWidth := nAnchors + len(p.ctxCols)

	// Owner table: every distinct context with the (multi-word) bitmask of
	// the queries that reach it, and of those that have since it was last
	// expanded — two flat arenas, a mask apiece by context ordinal. pending
	// lists the contexts that have new owners, in the order they got them.
	ix := ctxIndex{width: carryWidth}
	words := len(bitset.NewMask(k))
	maskAt := func(arena []uint64, i int) bitset.Mask { return arena[i*words : (i+1)*words : (i+1)*words] }
	var owned, fresh []uint64
	var pending []int
	merge := func(tup storage.Tuple, mask bitset.Mask) {
		i, first := ix.ordinalOf(tup)
		if first {
			owned, fresh = append(owned, make([]uint64, words)...), append(fresh, make([]uint64, words)...)
		}
		news := maskAt(fresh, i)
		if queued := !news.Empty(); maskAt(owned, i).OrNew(mask, news) && !queued {
			pending = append(pending, i)
		}
	}

	for q, bp := range bound {
		if !alive[q] {
			continue
		}
		bit := bitset.Bit(k, q)
		bp.compileSeed(syms).run(bp, syms, resolve, &tally, func(tup storage.Tuple) { merge(tup, bit) })
	}

	f := p.compileF(syms)
	g := p.compileG(syms)

	// emitOwner assembles owner q's answers for one g-join solution,
	// crossing in q's factored groups.
	var emitOwner func(q, gi int, s []storage.Value, anchorPart, out storage.Tuple)
	emitOwner = func(q, gi int, s []storage.Value, anchorPart, out storage.Tuple) {
		if gi == len(groups[q]) {
			for oi, src := range g.srcs {
				switch src.kind {
				case 0:
					out[oi] = qconsts[q][oi]
				case 1:
					out[oi] = s[src.idx]
				case 2:
					out[oi] = anchorPart[src.idx]
				}
			}
			ans[q].Insert(out)
			return
		}
		for _, gt := range groups[q][gi].tuples {
			for oi, src := range g.srcs {
				if src.kind == 3 && src.idx == gi {
					out[oi] = gt[src.pos]
				}
			}
			emitOwner(q, gi+1, s, anchorPart, out)
		}
	}

	// The same level worker as the single-query loop, walking a frontier:
	// the contexts some owner newly reached, flat like a carry, with the
	// owners that did (fmasks, by position). A successor is not claimed: it
	// is merged into the owner table under the mask it was produced under,
	// and the table decides whether it is news — the frontier and fmasks
	// are copies, so the table may grow under the level that reads them.
	// owners is the mask arena of the buffer being walked — fmasks, then
	// owned for the g phase.
	var frontier carryBuf
	var fmasks, owners []uint64
	w := newLevelWorker(&f, &g, nAnchors, p.Def.Arity(), resolve, &tally)
	w.f.emit = func(s []storage.Value) bool {
		merge(w.successor(s), maskAt(owners, w.cur))
		return true
	}
	w.g.emit = func(s []storage.Value) bool {
		for own, q := maskAt(owners, w.cur), 0; q < k; q++ {
			if own.Test(q) {
				emitOwner(q, 0, s, w.anchors, w.out)
			}
		}
		return true
	}

	flush := func() {
		frontier.reset()
		fmasks = fmasks[:0]
		for _, i := range pending {
			frontier.push(ix.ctxs.at(i, carryWidth))
			news := maskAt(fresh, i)
			fmasks = append(fmasks, news...)
			clear(news)
		}
		pending = pending[:0]
	}
	flush()

	meter := MeterFrom(ctx)
	stats.Batches++ // the seed batch
	done := ctx.Done()
	for frontier.n > 0 {
		if err := expired(ctx, done); err != nil {
			return nil, stats, err
		}
		// Gas: the frontier holds the contexts newly reached (or newly
		// re-owned) this round — the shared traversal's unit of derivation.
		if err := meter.Charge(frontier.n); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.Batches++
		owners = fmasks
		w.expand(&frontier)
		flush()
	}

	// g phase: one probe per distinct context, answers fanned out to the
	// owners — the probe count this whole refactor exists to cut.
	stats.GProbes += ix.ctxs.n
	stats.SeenSize = ix.ctxs.n
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	owners = owned
	w.exits(&ix.ctxs)
	answers := 0
	for _, r := range ans {
		answers += r.Len()
	}
	if err := meter.Charge(answers); err != nil {
		return nil, stats, err
	}
	return ans, stats, nil
}

// EvalBatch implements BatchPrepared for Magic Sets: the rewritten
// program is shared and every query contributes its seed fact, so one
// semi-naive fixpoint computes the union of the magic sets (the
// Section 5 "sharing magic sets across bb queries" remark) and every
// query's answers; each query then selects its tuples from the shared
// answer predicate.
func (m *magicPrepared) EvalBatch(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error) {
	k := len(binds)
	if k == 0 {
		return nil, EvalStats{}, nil
	}
	want := m.mr.Query.SlotCount()
	seed := m.mr.Program.Rules[m.mr.SeedIndex]
	rules := make([]ast.Rule, 0, len(m.mr.Program.Rules)+k-1)
	rules = append(rules, m.mr.Program.Rules[:m.mr.SeedIndex]...)
	rules = append(rules, m.mr.Program.Rules[m.mr.SeedIndex+1:]...)
	queries := make([]ast.Atom, k)
	for i, b := range binds {
		if err := checkSlotTable(want, b); err != nil {
			return nil, EvalStats{}, err
		}
		rules = append(rules, ast.BindRule(seed, b))
		queries[i] = ast.BindAtom(m.mr.Query, b)
	}
	res, err := SemiNaiveCtx(ctx, &ast.Program{Rules: rules}, edb)
	if err != nil {
		return nil, EvalStats{}, err
	}
	rels := make([]*storage.Relation, k)
	for i := range rels {
		rels[i] = storage.NewRelation(m.mr.Query.Arity(), &edb.Stats)
	}
	if rel := res.IDB.Relation(m.mr.AnswerPred); rel != nil {
		for _, t := range rel.Tuples() {
			for i, q := range queries {
				if matchesQuery(t, q, edb.Syms) {
					rels[i].Insert(t)
				}
			}
		}
	}
	return rels, EvalStats{Iterations: res.Rounds, SeenSize: res.IDB.TupleCount(), BatchQueries: k}, nil
}
