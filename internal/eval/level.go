package eval

import (
	"unsafe"

	"repro/internal/storage"
)

// This file holds the memory discipline of the Fig. 9 level loop. A
// level is one application of f (and one g-join) to every context of the
// carry; in steady state it allocates nothing:
//
//   - the carry is a flat arena of equal-width context tuples (carryBuf),
//     not a slice of cloned tuples;
//   - each pool worker owns one levelWorker — slot and bound arrays for f
//     and g, their conjunction scratch with the atoms' relations already
//     resolved and the worker's probe tally attached, the successor and
//     answer scratch tuples, and the arena it collects the next level's
//     contexts in — built the first time the worker runs and reused by
//     every later level;
//   - the per-solution callbacks are closures built once per worker, so
//     neither a level nor a context creates one.
//
// The single-query loop (contextEval) and the shared batch traversal
// (evalContextBatch) both drive their levels through this type. All of it
// belongs to one evaluation and is garbage when that evaluation returns:
// what a retained Incremental keeps is the seen-set and the answers,
// never a worker or an arena.

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

// levelWorker is one pool worker's private state for the level loop. Only
// the goroutine running worker ordinal i of a parallelFor touches pool
// worker i, and parallelFor's join orders one level's accesses before the
// next level's, so nothing in here is synchronized.
type levelWorker struct {
	f        *fOps
	g        *gOps
	nAnchors int

	fSlots, gSlots []storage.Value
	fBound, gBound []bool
	fSc, gSc       *conjScratch

	// succ and out are the successor-context and answer scratch tuples;
	// anchors is the anchor part of the context currently being expanded
	// or joined (it aliases the carry arena).
	succ, out storage.Tuple
	anchors   storage.Tuple

	// onSucc and onExit receive each solution of f and of g. The owner
	// installs them once per worker (levelPool.setup).
	onSucc, onExit func(s []storage.Value) bool

	// next collects the contexts this worker keeps for the level being
	// built. Between levels it is empty: gather drains it.
	next carryBuf

	// Workers sit side by side in the pool's slice and write anchors and
	// next for every context; the pad keeps a neighbour's fields off
	// those cache lines (see scratchPad).
	_ [scratchPad]byte
}

// expand applies f to context c: every solution of the recursive rule
// one level deeper goes to onSucc.
func (w *levelWorker) expand(c storage.Tuple) {
	clear(w.fBound)
	for i, sl := range w.f.headSlots {
		w.fSlots[sl] = c[w.nAnchors+i]
		w.fBound[sl] = true
	}
	w.anchors = c[:w.nAnchors]
	w.f.conj.runS(w.fSlots, w.fBound, w.fSc, w.onSucc)
}

// successor projects an f solution onto the worker's successor scratch:
// the expanded context's anchors, then the deeper call's context columns.
func (w *levelWorker) successor(s []storage.Value) storage.Tuple {
	w.f.proj.projectCtx(s, w.anchors, w.succ)
	return w.succ
}

// exits joins context c with the exit rule: every solution goes to
// onExit.
func (w *levelWorker) exits(c storage.Tuple) {
	clear(w.gBound)
	for i, sl := range w.g.ctxSlots {
		w.gSlots[sl] = c[w.nAnchors+i]
		w.gBound[sl] = true
	}
	w.anchors = c[:w.nAnchors]
	w.g.conj.runS(w.gSlots, w.gBound, w.gSc, w.onExit)
}

// levelPool is the worker set of one evaluation, indexed by parallelFor's
// worker ordinal.
type levelPool struct {
	f        *fOps
	g        *gOps
	nAnchors int
	arity    int // of the answer tuples
	resolve  resolver
	tallies  tallies
	// setup installs the owner's onSucc/onExit on a worker being built.
	setup func(i int, w *levelWorker)
	ws    []levelWorker
}

// width is the carry tuple width: anchors plus context columns.
func (p *levelPool) width() int { return p.nAnchors + len(p.f.headSlots) }

// worker returns pool worker i, building its scratch on first use — a
// narrow carry never pays for the workers it does not reach.
func (p *levelPool) worker(i int) *levelWorker {
	w := &p.ws[i]
	if w.f == nil {
		p.build(i, w)
	}
	return w
}

// scratchPad is the granule, in bytes, a worker's scratch blocks are
// rounded up to: two cache lines, the unit the adjacent-line prefetcher
// moves. The blocks are a few words each and written for every context;
// the allocator would otherwise pack two workers' blocks into one line
// and have the workers invalidate each other's cache on every probe.
const scratchPad = 128

// build allocates worker i's scratch as one padded block per element
// type and binds its conjunctions' relations.
func (p *levelPool) build(i int, w *levelWorker) {
	f, g := p.f, p.g
	w.f, w.g, w.nAnchors = f, g, p.nAnchors

	const perPad = scratchPad / int(unsafe.Sizeof(storage.Value(0)))
	nv := f.nslots + g.nslots + p.width() + p.arity
	vals := make([]storage.Value, nv, (nv+perPad-1)/perPad*perPad)
	w.fSlots, vals = vals[:f.nslots:f.nslots], vals[f.nslots:]
	w.gSlots, vals = vals[:g.nslots:g.nslots], vals[g.nslots:]
	w.succ, vals = vals[:p.width():p.width()], vals[p.width():]
	w.out = vals[:p.arity:p.arity]

	nb := f.nslots + g.nslots
	flags := make([]bool, nb, (nb+scratchPad-1)/scratchPad*scratchPad)
	w.fBound, w.gBound = flags[:f.nslots:f.nslots], flags[f.nslots:]

	w.fSc, w.gSc = f.conj.newScratch(), g.conj.newScratch()
	f.conj.bind(w.fSc, p.resolve, p.tallies.of(i))
	g.conj.bind(w.gSc, p.resolve, p.tallies.of(i))
	p.setup(i, w)
}

// gather drains every worker's next buffer into carry, which becomes the
// level to read. Draining is what keeps a buffer from being read twice:
// a level that ran inline leaves the other workers' buffers untouched,
// and they must already be empty then, not hold what they collected two
// levels ago. When one worker collected everything its buffer is handed
// over as the carry, and the old carry's storage becomes its next buffer —
// no copy.
func (p *levelPool) gather(carry *carryBuf) {
	carry.reset()
	filled, last := 0, 0
	for i := range p.ws {
		if p.ws[i].next.n > 0 {
			filled++
			last = i
		}
	}
	if filled == 1 {
		*carry, p.ws[last].next = p.ws[last].next, *carry
		return
	}
	for i := range p.ws {
		nb := &p.ws[i].next
		carry.vals = append(carry.vals, nb.vals...)
		carry.n += nb.n
		nb.reset()
	}
}
