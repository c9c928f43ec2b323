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
//   - each pool worker owns one levelWorker — slot arrays for f and g,
//     their conjunction scratch with the atoms' relations already resolved
//     and the worker's probe tally attached, the staging scratch of its
//     chunked probes, the successor and answer scratch tuples, and the
//     arena it collects the next level's contexts in — built the first
//     time the worker runs and reused by every later level;
//   - the per-solution callbacks are closures built once per worker, so
//     neither a level nor a context creates one.
//
// A worker takes its share of a level as chunks of up to probeChunk
// contexts, whose probes go to storage together when they can (walk);
// solutions arrive in context order either way, so the next carry is the
// serial one.
//
// The single-query loop (contextEval) and the shared batch traversal
// (evalContextBatch) both drive their levels through this type. All of it
// belongs to one evaluation and is garbage when that evaluation returns:
// what a retained Incremental keeps is the seen-set and the answers,
// never a worker or an arena.

// probeChunk is the number of contexts whose first-atom probes a worker
// stages together: one stage of a routed LookupKeys.
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

// levelOp is one worker's instance of a level operator, f or g: the
// compiled conjunction with the worker's slots and bound scratch for it,
// the slot each context column enters through, and the callbacks.
type levelOp struct {
	conj     *compiledConj
	ctxSlots []int
	slots    []storage.Value
	sc       *conjScratch
	// keyCol is the context column the first atom is probed by when that
	// is its one key and the atom is not existential — the worker then
	// probes that atom itself, key being the binding — else -1.
	keyCol int
	key    [1]storage.Binding
	// emit receives each solution: the owner's, installed once per worker
	// (levelPool.setup). row and first receive the first atom's rows when
	// the worker probes it — of a staged chunk, by context ordinal, and of
	// a lone context — each built the first time it is needed (a chain
	// never stages).
	emit  func(s []storage.Value) bool
	row   func(k int, t storage.Tuple) bool
	first func(t storage.Tuple) bool
}

// levelWorker is one pool worker's private state for the level loop. Only
// the goroutine running worker ordinal i of a parallelFor touches pool
// worker i, and parallelFor's join orders one level's accesses before the
// next level's, so nothing in here is synchronized.
type levelWorker struct {
	f, g     levelOp
	nAnchors int
	width    int

	// carry is the buffer whose contexts are being walked and cur the index
	// in it of the one a solution is being produced for (owners that tag
	// contexts — the batch traversal's masks — read it); anchors is that
	// context's anchor part, aliasing the arena. base is where the staged
	// chunk starts, keys its probe values and stage storage's scratch.
	carry   *carryBuf
	cur     int
	anchors storage.Tuple
	base    int
	keys    [probeChunk]storage.Value
	stage   storage.KeyStage

	// succ and out are the successor-context and answer scratch tuples.
	succ, out storage.Tuple
	proj      *carryProj

	// next collects the contexts this worker keeps for the level being
	// built. Between levels it is empty: gather drains it.
	next carryBuf

	// Workers sit side by side in the pool's slice and write anchors and
	// next for every context; the pad keeps a neighbour's fields off
	// those cache lines (see scratchPad).
	_ [scratchPad]byte
}

// expand applies f to contexts [lo, hi) of carry: every solution of the
// recursive rule one level deeper goes to f.emit.
func (w *levelWorker) expand(carry *carryBuf, lo, hi int) { w.walk(&w.f, carry, lo, hi) }

// exits joins contexts [lo, hi) of carry with the exit rule: every
// solution goes to g.emit.
func (w *levelWorker) exits(carry *carryBuf, lo, hi int) { w.walk(&w.g, carry, lo, hi) }

// enter makes context i of the carry the one op's solutions are for: its
// context columns go to their slots.
func (w *levelWorker) enter(op *levelOp, i int) {
	c := w.carry.at(i, w.width)
	for j, sl := range op.ctxSlots {
		op.slots[sl] = c[w.nAnchors+j]
	}
	w.cur, w.anchors = i, c[:w.nAnchors]
}

// walk runs op over contexts [lo, hi) of carry until an emit stops it. An
// operator whose first atom is not probed by one context value takes the
// conjunction whole, context by context. Otherwise — every linear
// recursion's f and g — a chunk's probes of that atom are independent
// lookups of one column: the worker probes it itself, the chunk's keys
// staged together so that their cache misses overlap (LookupKeys), and
// continues each row at the second atom (solve). A lone context — every
// level of a chain — is one plain lookup, which must not pay for staging.
func (w *levelWorker) walk(op *levelOp, carry *carryBuf, lo, hi int) {
	w.carry = carry
	if op.keyCol < 0 {
		for i := lo; i < hi; i++ {
			w.enter(op, i)
			if !op.conj.step(0, op.slots, op.sc, op.emit) {
				return
			}
		}
		return
	}
	rel := op.sc.rels[0]
	if rel == nil {
		return
	}
	at := w.nAnchors + op.keyCol
	for ; lo < hi; lo += probeChunk {
		w.base = lo
		if hi-lo == 1 {
			if op.first == nil {
				op.first = func(t storage.Tuple) bool { return w.solve(op, w.base, t) }
			}
			op.key[0].Val = carry.vals[lo*w.width+at]
			rel.LookupTally(op.key[:], op.sc.tupBuf, op.sc.tally, op.first)
			return
		}
		if op.row == nil {
			op.row = func(k int, t storage.Tuple) bool { return w.solve(op, w.base+k, t) }
		}
		n := min(probeChunk, hi-lo)
		for j := 0; j < n; j++ {
			w.keys[j] = carry.vals[(lo+j)*w.width+at]
		}
		if !rel.LookupKeys(op.key[0].Col, w.keys[:n], &w.stage, op.sc.tally, op.row) {
			return
		}
	}
}

// solve continues context i's solution from a row of op's first atom.
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

// levelPool is the worker set of one evaluation, indexed by parallelFor's
// worker ordinal.
type levelPool struct {
	f        *fOps
	g        *gOps
	nAnchors int
	arity    int // of the answer tuples
	resolve  resolver
	tallies  tallies
	// setup installs the owner's f.emit and g.emit on a worker being built.
	setup func(i int, w *levelWorker)
	ws    []levelWorker
}

// width is the carry tuple width: anchors plus context columns.
func (p *levelPool) width() int { return p.nAnchors + len(p.f.headSlots) }

// worker returns pool worker i, building its scratch on first use — a
// narrow carry never pays for the workers it does not reach.
func (p *levelPool) worker(i int) *levelWorker {
	w := &p.ws[i]
	if w.f.conj == nil {
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

// build allocates worker i's scratch as one padded block and binds its
// conjunctions' relations.
func (p *levelPool) build(i int, w *levelWorker) {
	f, g := p.f, p.g
	w.nAnchors, w.width, w.proj = p.nAnchors, p.width(), f.proj

	const perPad = scratchPad / int(unsafe.Sizeof(storage.Value(0)))
	nv := f.nslots + g.nslots + p.width() + p.arity
	vals := make([]storage.Value, nv, (nv+perPad-1)/perPad*perPad)
	fSlots, vals := vals[:f.nslots:f.nslots], vals[f.nslots:]
	gSlots, vals := vals[:g.nslots:g.nslots], vals[g.nslots:]
	w.succ, vals = vals[:p.width():p.width()], vals[p.width():]
	w.out = vals[:p.arity:p.arity]

	p.op(w, &w.f, i, f.conj, f.headSlots, fSlots)
	p.op(w, &w.g, i, g.conj, g.ctxSlots, gSlots)
	p.setup(i, w)
}

// op builds worker i's instance of a level operator in place.
func (p *levelPool) op(w *levelWorker, op *levelOp, i int, conj *compiledConj, ctxSlots []int, slots []storage.Value) {
	*op = levelOp{conj: conj, ctxSlots: ctxSlots, slots: slots, sc: conj.newScratch(), keyCol: -1}
	conj.bind(op.sc, p.resolve, p.tallies.of(i))
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
	op.key[0].Col = pp.keys[0].col
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
