package eval

import (
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/storage"
)

// This file holds the memory discipline of the Fig. 9 level loop. A
// level is one application of f (and one g-join) to every context of the
// carry; in steady state it allocates nothing:
//
//   - the carry is a flat arena of equal-width context tuples (carryBuf),
//     not a slice of cloned tuples;
//   - the run owns one levelWorker — slot arrays for f and g, their
//     conjunction scratch with the atoms' relations already resolved and
//     the run's probe tally attached, the staging scratch of its chunked
//     probes, the successor and answer scratch tuples, and the arena the
//     next level's contexts are collected in — built once and reused by
//     every level; the next level becomes the carry by a buffer swap, and
//     the two arenas start at the capacity earlier runs of the plan
//     reached (Plan.levelRoom), so a query does not grow them from nothing;
//   - the per-solution callbacks are closures built once per run, so
//     neither a level nor a context creates one.
//
// A level goes as chunks of up to probeChunk contexts, whose probes go to
// storage together (walk); solutions arrive in context order either way.
// A chunk of one context has nothing to stage and goes alone (lone): f's
// and g's first-atom probes are one plain storage call each. A level of
// one context — every level of a chain — is such a chunk, and the run
// loop steps it alone with no walk around it. When f is one atom keyed by
// a context column, a row of it is the successor: the worker has storage
// gather the successor columns (Relation.GatherKeys), and a unary carry's
// straight into the next level's arena, where the seen-set's bitset claims
// them in place (gather) — or, for a level of one context, into the
// carry's own arena over the context they come from, so that the claimed
// successors are the next level with no swap. Such a level is its probes,
// its claims and nothing between them — no row copy, no callback per row,
// no buffer between the two.
//
// The context-mode loop (contextEval) drives its levels through this
// type, on the goroutine that asked for the evaluation. All of it belongs
// to that one evaluation and is garbage when it returns: what a retained
// Incremental keeps is the seen-set and the answers, never the worker or
// an arena.

// probeChunk is the number of contexts whose first-atom probes the worker
// stages together: one stage of a LookupKeys or a GatherKeys.
const probeChunk = 16

// carryBuf is a flat arena of equal-width context tuples: context i is
// vals[i*width:(i+1)*width]. n counts contexts on its own so that a
// width-0 carry (the one empty context) still has a length.
type carryBuf struct {
	vals []storage.Value
	n    int
}

// push appends a copy of t.
func (b *carryBuf) push(t storage.Tuple) {
	b.vals = append(b.vals, t...)
	b.n++
}

// at returns context i of a buffer whose tuples are width wide. The
// tuple aliases the arena: it is valid until the buffer is next reset.
func (b *carryBuf) at(i, width int) storage.Tuple {
	return b.vals[i*width : (i+1)*width : (i+1)*width]
}

// reset empties the buffer, keeping its storage.
func (b *carryBuf) reset() {
	b.vals = b.vals[:0]
	b.n = 0
}

// levelOp is the worker's instance of a level operator, f or g: the
// compiled conjunction with the slots and bound scratch for it, the slot
// each context column enters through, and the callbacks.
type levelOp struct {
	conj     *compiledConj
	ctxSlots []int
	slots    []storage.Value
	sc       *conjScratch
	// keyCol is the context column the first atom is probed by when that
	// is its one key and the atom is not existential — the worker then
	// probes that atom's relation, rel, itself, key being the binding —
	// else -1.
	keyCol int
	rel    *storage.Relation
	key    [1]storage.Binding
	// rowCols is f's row map (fOps.rowCols) when the worker probes f's
	// one atom itself: the columns of a row of it are the successor's
	// context columns, gathered by storage.
	rowCols []int
	// emit receives each solution: the owner's, installed once, after
	// newLevelWorker. row and first receive the first atom's rows when the
	// worker probes it and the op does not gather — of a staged chunk, by
	// context ordinal, and of a one-context chunk — each built the first
	// time it is needed (a chain never stages).
	emit  func(s []storage.Value) bool
	row   func(k int, t storage.Tuple) bool
	first func(t storage.Tuple) bool
}

// levelWorker is one evaluation's state for the level loop. Only the
// goroutine running the evaluation touches it: nothing in here is
// synchronized.
type levelWorker struct {
	f, g     levelOp
	nAnchors int
	width    int

	// carry is the evaluation's carry, the level being read; anchors is
	// the anchor part of the context a solution is being produced for,
	// aliasing the arena. base is where the staged chunk starts, keys its
	// probe values and stage storage's scratch.
	carry   *carryBuf
	anchors storage.Tuple
	base    int
	keys    [probeChunk]storage.Value
	stage   storage.KeyStage

	// succ and out are the successor-context and answer scratch tuples.
	succ, out storage.Tuple
	proj      *carryProj
	// seen is the evaluation's seen-set: a successor context is claimed
	// through it (claim), and one it takes goes to next. bits is the same
	// set when it is a bitset (a unary carry), which a gathering f claims
	// in directly.
	seen seenSet
	bits *bitset.Set
	// gathered and ends are a gathering f's chunk: the successor columns
	// storage appended, and where each context's rows end (GatherKeys).
	// A unary carry's columns go straight to next, and it has no gathered.
	gathered []storage.Value
	ends     [probeChunk]int

	// next collects the contexts the owner keeps for the level being
	// built. Between levels it is empty: advance hands it over.
	next carryBuf
}

// newLevelWorker builds an evaluation's worker over its carry and
// seen-set: its scratch as one block, its conjunctions' relations bound,
// its probes counted in tally. The owner installs f.emit and g.emit
// before the first level.
func newLevelWorker(f *fOps, g *gOps, nAnchors, arity int, carry *carryBuf, seen seenSet, resolve resolver, tally *storage.Tally) *levelWorker {
	width := nAnchors + len(f.headSlots) // anchors plus context columns
	w := &levelWorker{nAnchors: nAnchors, width: width, proj: f.proj, carry: carry, seen: seen}
	if bs, ok := seen.(*bitsetSeen); ok {
		w.bits = bs.set
	}
	// The gather buffer starts as room for a chunk of one row a context;
	// a wider chunk grows it once. A unary carry gathers into next and
	// needs none.
	gather := 0
	if w.bits == nil {
		gather = probeChunk * len(f.rowCols)
	}
	vals := make([]storage.Value, f.nslots+g.nslots+width+arity+gather)
	fSlots, vals := vals[:f.nslots:f.nslots], vals[f.nslots:]
	gSlots, vals := vals[:g.nslots:g.nslots], vals[g.nslots:]
	w.succ, vals = vals[:width:width], vals[width:]
	w.out, w.gathered = vals[:arity:arity], vals[arity:arity]
	w.f.build(f.conj, f.headSlots, fSlots, resolve, tally)
	w.g.build(g.conj, g.ctxSlots, gSlots, resolve, tally)
	if w.f.keyCol >= 0 {
		w.f.rowCols = f.rowCols
	}
	return w
}

// build fills in a level operator in place.
func (op *levelOp) build(conj *compiledConj, ctxSlots []int, slots []storage.Value, resolve resolver, tally *storage.Tally) {
	*op = levelOp{conj: conj, ctxSlots: ctxSlots, slots: slots, sc: conj.newScratch(), keyCol: -1}
	conj.bind(op.sc, resolve, tally)
	if len(conj.probes) == 0 {
		return
	}
	pp := &conj.probes[0]
	if len(pp.keys) != 1 || pp.keys[0].ref.isConst || pp.exist {
		return
	}
	// On entry only the context slots are bound: the key is one of them
	// (the last column to fill it, as enter does).
	for j, sl := range ctxSlots {
		if sl == pp.keys[0].ref.slot {
			op.keyCol = j
		}
	}
	op.rel, op.key[0].Col = op.sc.rels[0], pp.keys[0].col
}

// expand applies f to every context of the carry: every successor
// context — a solution of the recursive rule one level deeper — is
// claimed, and the contexts claimed become the carry.
func (w *levelWorker) expand() {
	if !w.walk(&w.f) {
		w.advance()
	}
}

// exits joins every context of the carry with the exit rule: every
// solution goes to g.emit.
func (w *levelWorker) exits() { w.walk(&w.g) }

// maxLevelRoom caps the arenas a run starts with (size): 64 Ki values, 256
// KiB an arena. A level that needs more grows its arena past it, as every
// level did before the plan kept a size.
const maxLevelRoom = 1 << 16

// size starts the carry's and next's arenas at the capacity runs of the
// plan have needed before (Plan.levelRoom), so that the levels of a run do
// not grow them from nothing.
func (w *levelWorker) size(room *atomic.Int64) {
	if n := min(int(room.Load()), maxLevelRoom); n > 0 {
		w.carry.vals = make([]storage.Value, 0, n)
		w.next.vals = make([]storage.Value, 0, n)
	}
}

// keepRoom raises room, the plan's, to the capacity the run's arenas have
// reached, up to maxLevelRoom.
func (w *levelWorker) keepRoom(room *atomic.Int64) {
	n := int64(min(max(cap(w.carry.vals), cap(w.next.vals)), maxLevelRoom))
	for {
		was := room.Load()
		if n <= was || room.CompareAndSwap(was, n) {
			return
		}
	}
}

// advance makes the level collected in next the carry; the old carry's
// storage, emptied, collects the level after it — no copy.
func (w *levelWorker) advance() {
	w.carry.reset()
	*w.carry, w.next = w.next, *w.carry
}

// claim offers the seen-set a successor context, and collects it in next
// when the seen-set takes it.
func (w *levelWorker) claim(t storage.Tuple) {
	if w.seen.Offer(t) {
		w.next.push(t)
	}
}

// enter makes context i of the carry the one op's solutions are for: its
// context columns go to their slots.
func (w *levelWorker) enter(op *levelOp, i int) {
	c := w.carry.at(i, w.width)
	for j, sl := range op.ctxSlots {
		op.slots[sl] = c[w.nAnchors+j]
	}
	w.anchors = c[:w.nAnchors]
}

// walk runs op over the contexts of the carry until an emit stops it. An
// operator whose first atom is not probed by one context value takes the
// conjunction whole, context by context. Otherwise — every linear
// recursion's f and g — that atom is probed by a column of the carry, in
// chunks whose probes are independent lookups of one column, staged
// together so that their cache misses overlap: a one-atom f gathers a
// chunk's successors (gather), any other operator has its rows yielded
// (LookupKeys) and continues each at the second atom (solve). A last
// chunk of one context has nothing to overlap, and goes alone: walk
// reports what lone does.
func (w *levelWorker) walk(op *levelOp) (stepped bool) {
	carry := w.carry
	if op.keyCol < 0 {
		for i := 0; i < carry.n; i++ {
			w.enter(op, i)
			if !op.conj.step(0, op.slots, op.sc, op.emit) {
				return false
			}
		}
		return false
	}
	rel := op.rel
	if rel == nil {
		return false
	}
	at, lo := w.nAnchors+op.keyCol, 0
	for ; carry.n-lo > 1; lo += probeChunk {
		w.base = lo
		n := min(probeChunk, carry.n-lo)
		for j := 0; j < n; j++ {
			w.keys[j] = carry.vals[(lo+j)*w.width+at]
		}
		if op.rowCols != nil {
			w.gather(op, rel, n)
			continue
		}
		if op.row == nil {
			op.row = func(k int, t storage.Tuple) bool { return w.solve(op, w.base+k, t) }
		}
		if !rel.LookupKeys(op.key[0].Col, w.keys[:n], &w.stage, op.sc.tally, op.row) {
			return false
		}
	}
	return lo < carry.n && w.lone(op, lo)
}

// lone runs op over context i of the carry on its own: the whole level
// when the carry is one context — every level of a chain — or the last
// chunk of a wider one. Storage probes its one key straight (GatherKeys'
// lone key, or LookupTally), and its rows come one at a time, so an emit
// that stops the run stops the rows counted too. A one-context level
// whose f gathers into the bitset needs neither next nor a swap: its
// successors are gathered into the carry's own arena, over the context
// they come from, and claimed there — lone reports that the carry is
// the next level already.
func (w *levelWorker) lone(op *levelOp, i int) (stepped bool) {
	if op.keyCol < 0 {
		w.enter(op, i)
		op.conj.step(0, op.slots, op.sc, op.emit)
		return false
	}
	rel := op.rel
	if rel == nil {
		return false
	}
	w.base, w.keys[0] = i, w.carry.vals[i*w.width+w.nAnchors+op.keyCol]
	switch {
	case op.rowCols == nil:
		if op.first == nil {
			op.first = func(t storage.Tuple) bool { return w.solve(op, w.base, t) }
		}
		op.key[0].Val = w.keys[0]
		rel.LookupTally(op.key[:], op.sc.tupBuf, op.sc.tally, op.first)
	case w.bits != nil && w.carry.n == 1:
		w.carry.vals, w.carry.n = w.gatherUnary(op, rel, 1, w.carry.vals[:0])
		return true
	default:
		w.gather(op, rel, 1)
	}
	return false
}

// gather claims the successors a one-atom f finds for the n contexts
// whose keys are staged, from base on: storage appends each row's context
// columns (op.rowCols), key by key. A unary carry's successors are those
// values themselves, and go to next (gatherUnary). A wider context is put
// together in succ — the context's anchors, then each of its rows — and
// claimed whole.
func (w *levelWorker) gather(op *levelOp, rel *storage.Relation, n int) {
	if w.bits != nil {
		vals, claimed := w.gatherUnary(op, rel, n, w.next.vals)
		w.next.vals, w.next.n = vals, w.next.n+claimed
		return
	}
	w.gathered = rel.GatherKeys(op.key[0].Col, op.rowCols, w.keys[:n], &w.stage, op.sc.tally, w.gathered[:0], w.ends[:n])
	from, cols := 0, len(op.rowCols)
	for k, end := range w.ends[:n] {
		at := (w.base + k) * w.width
		copy(w.succ, w.carry.vals[at:at+w.nAnchors])
		for ; from < end; from += cols {
			copy(w.succ[w.nAnchors:], w.gathered[from:from+cols])
			w.claim(w.succ)
		}
	}
}

// gatherUnary appends to dst the one-column successors of the n staged
// keys and claims them where they lie: each is written over the first one
// not kept, and the end moved past it only when the bitset took it, with
// no branch on the outcome. It returns dst with the claimed ones and
// their number.
func (w *levelWorker) gatherUnary(op *levelOp, rel *storage.Relation, n int, dst []storage.Value) ([]storage.Value, int) {
	from := len(dst)
	dst = rel.GatherKeys(op.key[0].Col, op.rowCols, w.keys[:n], &w.stage, op.sc.tally, dst, w.ends[:n])
	at := from
	for _, v := range dst[from:] {
		dst[at] = v
		at += w.bits.Claim(int(v))
	}
	return dst[:at], at - from
}

// solve continues context i's solution from a row of op's first atom, at
// the second atom.
func (w *levelWorker) solve(op *levelOp, i int, t storage.Tuple) bool {
	w.enter(op, i)
	return !op.conj.probes[0].accept(t, op.slots) || op.conj.step(1, op.slots, op.sc, op.emit)
}

// successor projects an f solution onto the worker's successor scratch:
// the expanded context's anchors, then the deeper call's context columns.
func (w *levelWorker) successor(s []storage.Value) storage.Tuple {
	w.proj.projectCtx(s, w.anchors, w.succ)
	return w.succ
}
