package storage

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/quote"
)

// Journal receives every accepted mutation of a journaled database, in
// happens-before order: a symbol's JournalSym call completes before any
// run referencing its Value (Intern invokes the hook under the symbol
// table's lock), and each accepted mutation is reported exactly once —
// duplicates and misses are filtered by the relation's set semantics
// before the hook fires. Implementations must be safe for concurrent
// use; the write-ahead log in internal/wal is the canonical one.
type Journal interface {
	// JournalSym records that name was interned as the next dense Value.
	JournalSym(name string)
	// JournalRuns records the accepted mutations of one commit — a single
	// Insert or Retract reports one run of one tuple, Database.Commit the
	// runs of a whole write request, in the order they were applied — as
	// one durable unit: the implementation must cover the call's runs with
	// one policy sync (the write-ahead log fsyncs once per call under
	// SyncAlways) and return only after it. A crash before the call
	// returns may keep any record-order prefix of it. The runs and their
	// tuples are only valid for the duration of the call: encode or copy
	// them before returning.
	JournalRuns(runs []JournalRun)
}

// JournalRun is one run as the journal sees it: the tuples of a commit
// that pred actually accepted — fresh inserts, or (Del) retractions of
// tuples that were present — in input order.
type JournalRun struct {
	Pred   string
	Del    bool
	Tuples []Tuple
}

// Value is an interned constant symbol.
type Value int32

// Tuple is a fixed-arity row of interned values.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// HashTuple returns a 32-bit hash of the tuple's values: word-at-a-time
// FNV-1a with a final multiply-shift mix (interned Values are dense
// small ints, so the plain FNV low bits would collide on consecutive
// rows). It is the hash a relation's dedup table stores, exported so
// other layers can build tuple-keyed open-addressing tables without
// string keys.
func HashTuple(t Tuple) uint32 {
	h := uint32(2166136261)
	for _, v := range t {
		h = (h ^ uint32(v)) * 16777619
	}
	h ^= h >> 15
	h *= 2654435761
	h ^= h >> 13
	return h
}

// Counters instruments relation access. TuplesExamined counts tuples
// touched by lookups and scans; IndexLookups counts index probes — one
// per Lookup with a bound column, one per key of a LookupKeys or a
// GatherKeys; FullScans
// counts scans with no bound column (the unrestricted lookups Property 3
// forbids); Inserts counts accepted tuple insertions (a proxy for state
// size); Retracts counts accepted tuple retractions.
//
// All updates are atomic, so Counters may be shared across goroutines.
// Direct field reads are fine when the database is quiesced (the usual
// measure-after-evaluating pattern); use Snapshot while writers may
// still be running. The probe counts are exact whenever no evaluation is
// in flight: an evaluator counts its probes in Tallies of its own and
// adds them in when it ends. A staged probe cut short by its caller has
// counted the stage it was in, a little more than it yielded from (see
// LookupKeys).
//
// Alignment: the fields are operated on with 64-bit atomics, so a
// Counters must be 64-bit aligned — heap-allocated (any value whose
// address escapes, as every value passed to NewRelation does) or placed
// first in its enclosing struct, as in Database.
type Counters struct {
	TuplesExamined int64
	IndexLookups   int64
	FullScans      int64
	Inserts        int64
	Retracts       int64
}

// Reset zeroes the counters.
func (c *Counters) Reset() {
	atomic.StoreInt64(&c.TuplesExamined, 0)
	atomic.StoreInt64(&c.IndexLookups, 0)
	atomic.StoreInt64(&c.FullScans, 0)
	atomic.StoreInt64(&c.Inserts, 0)
	atomic.StoreInt64(&c.Retracts, 0)
}

// Snapshot returns an atomically read copy of the counters.
func (c *Counters) Snapshot() Counters {
	return Counters{
		TuplesExamined: atomic.LoadInt64(&c.TuplesExamined),
		IndexLookups:   atomic.LoadInt64(&c.IndexLookups),
		FullScans:      atomic.LoadInt64(&c.FullScans),
		Inserts:        atomic.LoadInt64(&c.Inserts),
		Retracts:       atomic.LoadInt64(&c.Retracts),
	}
}

// Sub returns c - other, field by field (for per-query deltas).
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		TuplesExamined: c.TuplesExamined - other.TuplesExamined,
		IndexLookups:   c.IndexLookups - other.IndexLookups,
		FullScans:      c.FullScans - other.FullScans,
		Inserts:        c.Inserts - other.Inserts,
		Retracts:       c.Retracts - other.Retracts,
	}
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	atomic.AddInt64(&c.TuplesExamined, other.TuplesExamined)
	atomic.AddInt64(&c.IndexLookups, other.IndexLookups)
	atomic.AddInt64(&c.FullScans, other.FullScans)
	atomic.AddInt64(&c.Inserts, other.Inserts)
	atomic.AddInt64(&c.Retracts, other.Retracts)
}

// Tally is a goroutine-owned share of a Counters' probe counts: a reader
// that probes in a loop hands one to LookupTally, which counts into it
// with plain adds — no write to memory another goroutine reads — and the
// owner adds it into the Counters once, when its work ends (Flush). A
// tally only stands in for the Counters it was made from: a relation that
// reports to another Counters, or to none, is counted as if no tally had
// been passed. The zero Tally is not usable; obtain one from
// Counters.Tally.
type Tally struct {
	n    Counters
	into *Counters
}

// Tally returns an empty tally of c.
func (c *Counters) Tally() Tally { return Tally{into: c} }

// Flush adds the tally into its Counters and empties it. The owner must
// call it on every path out of the work it counted, or the probes are
// lost to the totals.
func (t *Tally) Flush() {
	if t.n != (Counters{}) {
		t.into.Add(t.n)
		t.n = Counters{}
	}
}

// deltaTailBound caps a relation's delta tail: the number of recent
// mutations it remembers for DeltaSince. When the tail overflows, the
// oldest half is evicted and the floor advances — DeltaSince calls asking
// for history below the floor report a full fallback.
const deltaTailBound = 2048

// tailEntry records one accepted mutation for delta tracking: the
// tuple's row id, the database epoch it was stamped with, and the sign
// (del marks a retraction). Epochs are non-decreasing in append order
// (the stamp is read under the relation's write lock from a monotone
// counter), so DeltaSince can binary-search. Retraction entries keep
// referencing the tombstoned row — the rows a tail entry names never move
// (store.cluster stops below them), so the dead row's column values remain
// readable for delta reconstruction.
type tailEntry struct {
	row   int
	epoch uint64
	del   bool
}

// Arena-block geometry: rows are stored in fixed-size blocks of
// blockRows rows each, one flat []Value slab per block holding every
// column. Within a block the layout is column-major — column c of row r
// lives at blocks[r>>blockShift][c<<blockShift | r&blockMask] — so each
// column is a contiguous run and a whole block is a single allocation
// covering arity*blockRows values (no per-tuple slice headers).
const (
	blockShift = 10
	blockRows  = 1 << blockShift
	blockMask  = blockRows - 1
)

// slotDead marks a dedup slot whose row was retracted: probes skip it
// and keep walking (the chain must not break), inserts may reuse it.
const slotDead = -1

// deadWords is the tombstone-bitset words per block (one bit per row).
const deadWords = blockRows / 64

// store is a Relation's columnar tuple store, with an open-addressing
// dedup table over row ids and lazily built per-column posting
// directories. Tuple identity is the dense row id; rows are
// append-only and a published block is never written but to append rows
// to it. The one move is the first directory's (cluster), which writes the
// moved rows into fresh blocks and publishes them before the directory
// that names their new places. Retraction never moves rows: it sets the
// row's bit in the per-block tombstone bitset (readers check it with
// atomic loads) and frees the dedup slot.
//
// mu serializes the relation's writers, and guards the dedup table and
// the delta tail for their readers (Contains, Offer, DeltaSince). Scan and
// Lookup take no lock: they read what the writer has published — the
// block list, the row count, the directories — and two load orders make
// what they read resolvable. A writer publishes a block (in the list)
// before a row count that covers it and before any directory slot or run
// that names a row in it, and writes a row's values before either; so a
// reader that loads the row count, or a row id from a directory, and only
// then the block list finds the block of every row it was told of, and the
// values in it.
type store struct {
	mu sync.RWMutex
	// blocks are the arena slabs (see the block geometry constants) and
	// rows the number of rows written: the writer's own view, under mu.
	// published is the same list as of the last block append, and
	// rowsPublished the row count as of the last commit, for the lock-free
	// readers.
	blocks        [][]Value
	rows          int
	published     atomic.Pointer[blockList]
	rowsPublished atomic.Int64
	// dead[b] is block b's tombstone bitset (deadWords uint64 words,
	// allocated with the block, and afresh with it when store.cluster
	// moves its rows). Bits are set with atomic stores under
	// the write lock and read with atomic loads, possibly lock-free off a
	// captured view; a set bit never clears (re-inserting a retracted
	// tuple appends a fresh row). deadCnt counts set bits; deadAtDrop is
	// deadCnt as of the last time the posting lists were dropped, so the
	// difference is the tombstones the built lists can still name.
	dead       [][]uint64
	deadCnt    int
	deadAtDrop int
	// anyDead is deadCnt > 0, for the lock-free readers: they skip the
	// per-row tombstone check while it is false.
	anyDead atomic.Bool
	// Dedup table: open addressing with linear probing. slots holds
	// row+1 (0 = empty, slotDead = retracted); hashes holds each occupied
	// slot's full tuple hash, so growth rehashes from stored hashes
	// without re-reading columns and a probe compares columns only on a
	// full hash match. used counts non-empty slots (occupied + dead) —
	// the load-factor input, since dead slots still lengthen probes.
	slots  []int32
	hashes []uint32
	used   int
	// cols[i] is column i's published posting directory (nil until built,
	// and again once dropped). It may name tombstoned rows; lookups
	// filter them lazily, and the whole index set is dropped for a
	// from-live-rows rebuild when more than half the rows the directories
	// can name are dead (the tombstone compaction rule) — which is also
	// what reclaims the runs a directory has abandoned. A reader that
	// loaded a directory before it was dropped or outgrown finishes on it.
	cols []atomic.Pointer[directory]
	// tail is the bounded recent-mutation log for DeltaSince (tracked
	// relations only); tailFloor is the lowest epoch the tail still covers
	// completely.
	tail      []tailEntry
	tailFloor uint64
	// fixedFrom bounds the rows a first directory may move (cluster): those
	// from it on never do. A tracked relation's store starts it at
	// MaxInt64, and DeltaSince lowers it to the lo of every window it hands
	// out, which may outlive the tail entries that named its rows; an
	// untracked store leaves it at 0, so that none of its rows ever moves.
	fixedFrom atomic.Int64
}

// blockList is a store's published block and tombstone lists. The slices
// are never written through: a block append publishes a new blockList
// whose slices are one longer (they may share the backing arrays).
type blockList struct {
	blocks [][]Value
	dead   [][]uint64
}

// valueAt reads one column of one row. The caller must hold the lock.
func (st *store) valueAt(row, col int) Value {
	return st.blocks[row>>blockShift][col<<blockShift|row&blockMask]
}

// rowEqual reports whether the stored row equals t.
func (st *store) rowEqual(row int, t Tuple) bool {
	blk := st.blocks[row>>blockShift]
	off := row & blockMask
	for c, v := range t {
		if blk[c<<blockShift|off] != v {
			return false
		}
	}
	return true
}

// findLocked probes the dedup table for t (hash h), returning its row id
// or -1. Dead slots are skipped but do not end the probe chain. Caller
// holds the lock (read or write).
func (st *store) findLocked(t Tuple, h uint32) int {
	if len(st.slots) == 0 {
		return -1
	}
	mask := uint32(len(st.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := st.slots[i]
		if s == 0 {
			return -1
		}
		if s != slotDead && st.hashes[i] == h && st.rowEqual(int(s-1), t) {
			return int(s - 1)
		}
	}
}

// reserveLocked grows the dedup table once to fit extra more entries
// below the 3/4 load threshold (counting dead slots, which probes still
// walk) so chains stay short: one doubling for a single insert, one
// right-sized rebuild instead of a doubling-rehash cascade for a large
// run. Occupied slots rehash from their stored hashes and dead slots are
// dropped, which is what reclaims probe-chain length after retraction
// churn. Caller holds the write lock.
func (st *store) reserveLocked(extra int) {
	need := st.used + extra
	newCap := len(st.slots)
	if newCap < 16 {
		newCap = 16
	}
	for 4*need > 3*newCap {
		newCap *= 2
	}
	if newCap == len(st.slots) {
		return
	}
	slots := make([]int32, newCap)
	hashes := make([]uint32, newCap)
	mask := uint32(newCap - 1)
	used := 0
	for i, s := range st.slots {
		if s == 0 || s == slotDead {
			continue
		}
		h := st.hashes[i]
		j := h & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j], hashes[j] = s, h
		used++
	}
	st.slots, st.hashes, st.used = slots, hashes, used
}

// insertLocked appends t (hash h) as a fresh row and posts it in the
// built directories, returning the row id, or -1 when t is already
// present. Caller holds the write lock and has reserved table space
// (reserveLocked); apply publishes the row count.
func (st *store) insertLocked(t Tuple, h uint32, arity int) int {
	mask := uint32(len(st.slots) - 1)
	reuse := -1
	for i := h & mask; ; i = (i + 1) & mask {
		s := st.slots[i]
		if s == slotDead {
			if reuse < 0 {
				reuse = int(i)
			}
			continue
		}
		if s == 0 {
			row := st.rows
			if row>>blockShift == len(st.blocks) { // the row's block is not there yet (after a Reset, block 0 is)
				st.blocks = append(st.blocks, make([]Value, arity<<blockShift))
				st.dead = append(st.dead, make([]uint64, deadWords))
				st.publishBlocks()
			}
			blk := st.blocks[row>>blockShift]
			off := row & blockMask
			for c, v := range t {
				blk[c<<blockShift|off] = v
			}
			st.rows = row + 1
			slot := uint32(i)
			if reuse >= 0 {
				slot = uint32(reuse) // reclaim a dead slot on the probe path
			} else {
				st.used++
			}
			st.slots[slot] = int32(row + 1)
			st.hashes[slot] = h
			for c := range st.cols {
				if d := st.cols[c].Load(); d != nil {
					st.post(c, d, t[c], int32(row))
				}
			}
			return row
		}
		if st.hashes[i] == h && st.rowEqual(int(s-1), t) {
			return -1
		}
	}
}

// retractLocked tombstones t (hash h) if live, returning its row id or
// -1 when absent. The dedup slot is marked dead (so the tuple can be
// re-inserted as a fresh row) and the row's tombstone bit set. Caller
// holds the write lock.
func (st *store) retractLocked(t Tuple, h uint32) int {
	if len(st.slots) == 0 {
		return -1
	}
	mask := uint32(len(st.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := st.slots[i]
		if s == 0 {
			return -1
		}
		if s != slotDead && st.hashes[i] == h && st.rowEqual(int(s-1), t) {
			row := int(s - 1)
			st.slots[i] = slotDead
			w := &st.dead[row>>blockShift][(row&blockMask)>>6]
			atomic.StoreUint64(w, atomic.LoadUint64(w)|1<<(uint(row)&63))
			if st.deadCnt++; st.deadCnt == 1 {
				st.anyDead.Store(true)
			}
			// Tombstone compaction: once more than half the rows the
			// posting lists can name are dead, drop the lists so the next
			// lookup rebuilds them from live rows only. Both sides count
			// from the last drop — a rebuilt list names no row that was
			// dead then — so a relation that has retracted most of what it
			// ever held pays for one rebuild, not one per retraction.
			if 2*(st.deadCnt-st.deadAtDrop) > st.rows-st.deadAtDrop {
				for c := range st.cols {
					st.cols[c].Store(nil)
				}
				st.deadAtDrop = st.deadCnt
			}
			return row
		}
	}
}

// isDeadLocked reports whether row is tombstoned. Caller holds the lock
// (read or write).
func (st *store) isDeadLocked(row int) bool {
	return atomic.LoadUint64(&st.dead[row>>blockShift][(row&blockMask)>>6])>>(uint(row)&63)&1 == 1
}

// storeView is a snapshot of a store's rows, capturable in O(1): the
// published row count and block list at capture time. Blocks are
// append-only and rows are fully written before the row count covers
// them, so reading rows < v.rows off a view races with nothing —
// concurrent inserts touch only elements the view never reads.
//
// dead is the tombstone bitset list, captured only when the store had
// tombstones at capture time (nil otherwise, keeping the insert-only
// fast path free of per-row checks). Tombstone bits are read with
// atomic loads and set concurrently by writers, so a view may observe a
// retraction that happened after capture: iteration yields rows live at
// some instant during the scan rather than a frozen cut. The epoch/delta
// protocol absorbs the skew — any mutation a reader misses or
// half-observes carries a stamp the next DeltaSince reconstructs.
type storeView struct {
	blocks [][]Value
	dead   [][]uint64
	rows   int
}

// publishBlocks publishes the block and tombstone lists as they are
// now. Caller holds the write lock.
func (st *store) publishBlocks() {
	st.published.Store(&blockList{
		blocks: st.blocks[:len(st.blocks):len(st.blocks)],
		dead:   st.dead[:len(st.dead):len(st.dead)],
	})
}

// view captures a snapshot of the store: the row count first, the block
// list after it (see store).
func (st *store) view() storeView {
	v := storeView{rows: int(st.rowsPublished.Load())}
	if v.rows > 0 {
		v.resolve(st)
	}
	return v
}

// resolve loads the store's published block list into v, with the
// tombstone list only when the store has tombstones. Whoever calls it has
// already loaded what names the rows it will read.
func (v *storeView) resolve(st *store) {
	bl := st.published.Load()
	v.blocks = bl.blocks
	if st.anyDead.Load() {
		v.dead = bl.dead
	}
}

// isDead reports whether row is tombstoned (always false for views
// captured from stores with no tombstones).
func (v *storeView) isDead(row int) bool {
	if v.dead == nil {
		return false
	}
	return atomic.LoadUint64(&v.dead[row>>blockShift][(row&blockMask)>>6])>>(uint(row)&63)&1 == 1
}

// live bounds the rows an iteration of v can yield: the view's rows less
// the tombstones among them. Bits set after the count only lower what the
// iteration finds (a set bit never clears), so a buffer of this size fits.
func (v storeView) live() int {
	n := v.rows
	if v.dead == nil {
		return n
	}
	for b, words := range v.dead {
		rest := v.rows - b<<blockShift
		if rest <= 0 {
			break
		}
		for w := 0; w < deadWords && w<<6 < rest; w++ {
			word := atomic.LoadUint64(&words[w])
			if past := rest - w<<6; past < 64 {
				// Rows appended since the view was taken may already be
				// dead; they are not the view's.
				word &= 1<<uint(past) - 1
			}
			n -= bits.OnesCount64(word)
		}
	}
	return n
}

// read copies row's columns into dst (len(dst) = arity).
func (v *storeView) read(row int, dst Tuple) {
	blk := v.blocks[row>>blockShift]
	off := row & blockMask
	for c := range dst {
		dst[c] = blk[c<<blockShift|off]
	}
}

// readKeyed reads into dst a row that column col's directory names for
// key, reporting false — dst untouched — when the row is tombstoned
// (directories may name rows retracted since they were posted; readers
// filter them lazily). Only the other columns are read from the block, one
// cache line less per row, and the key is filled in. Every probe that
// yields reads its rows through here.
func (v *storeView) readKeyed(row int32, col int, key Value, dst Tuple) bool {
	if v.isDead(int(row)) {
		return false
	}
	blk := v.blocks[row>>blockShift][row&blockMask:]
	for c := range dst {
		if c != col {
			dst[c] = blk[c<<blockShift]
		}
	}
	dst[col] = key
	return true
}

// Relation is a set of tuples of fixed arity in one columnar store whose
// writers take its lock and whose Scan and Lookup readers do not lock at
// all. The store keeps its tuples in arena blocks with an open-addressing
// dedup table and lazily built per-column posting directories — inserts
// and membership probes allocate nothing on the steady state. The zero
// value is not usable; construct with NewRelation. Methods are safe for
// concurrent use. See the package comment for the snapshot semantics of
// iteration.
type Relation struct {
	arity int
	stats *Counters
	count atomic.Int64
	// name is the predicate this relation serves inside a Database ("" for
	// free-standing relations such as answer sets).
	name string
	// db, when non-nil, is the tracked database this relation belongs to:
	// mutations are stamped with its epoch counter, recorded in the delta
	// tail, reflected in its modification watermark and reported to its
	// journal. Derived and free-standing relations (answer sets,
	// seen-sets, semi-naive IDB databases) leave it nil and pay no
	// tracking overhead.
	db *Database
	// lastMod is the epoch stamp of the newest accepted mutation (0 when
	// the relation is untracked or empty).
	lastMod atomic.Uint64
	// tombs counts tombstoned rows; retracts counts accepted retractions
	// since creation (never reset; it fills the WAL snapshot's per-relation
	// retraction field).
	tombs    atomic.Int64
	retracts atomic.Int64
	// store is held through a pointer: locking a store leaks it to the
	// heap, and were it part of the Relation that would leak the Relation
	// too — and, through Run.Rel, every commit's tuple slice.
	store *store
	// win, when non-nil, makes the relation a read-only window over rows
	// of another relation's store (see DeltaSince).
	win *window
}

// NewRelation creates an empty relation of the given arity, reporting
// instrumentation to stats (which may be nil).
func NewRelation(arity int, stats *Counters) *Relation {
	return &Relation{arity: arity, stats: stats, store: &store{cols: make([]atomic.Pointer[directory], arity)}}
}

// NewShardedRelation is NewRelation.
//
// Deprecated: relations have one store; kept for bench/traced.go until ROADMAP item 4 rewrites it.
func NewShardedRelation(arity int, stats *Counters, _ int) *Relation {
	return NewRelation(arity, stats)
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Name returns the predicate the relation serves inside its Database
// ("" for a free-standing relation).
func (r *Relation) Name() string { return r.name }

// Len returns the number of live tuples.
func (r *Relation) Len() int { return int(r.count.Load()) }

// writable panics on a window, which no write may reach.
func (r *Relation) writable() {
	if r.win != nil {
		panic("storage: write to a delta window")
	}
}

// Retracts returns the number of retractions the relation has accepted
// since creation (monotone; it never decreases).
func (r *Relation) Retracts() int64 { return r.retracts.Load() }

// Reset empties the relation in place so its storage serves another
// round of inserts: afterwards it behaves exactly like a relation fresh
// from NewRelation — no rows, no tombstones, no posting lists, all counts
// zero — but it keeps its first arena block and a dedup table that
// indexes no more than one block, so refilling a small relation allocates
// nothing. What a larger use grew beyond that is released: a scratch
// relation that was once wide does not charge every later reset for
// clearing a wide table.
//
// Reset is for scratch relations a single owner fills, reads and empties
// in turn (a semi-naive pass's delta relations). It is the one writer
// that breaks what Scan and Lookup rely on without a lock — the next
// inserts overwrite rows one still in flight would read — so the caller
// must hold the relation exclusively, every reader and writer finished,
// and it panics on a tracked relation, whose rows the delta tail
// references.
func (r *Relation) Reset() {
	if r.db != nil {
		panic("storage: Reset of a tracked relation")
	}
	r.writable()
	st := r.store
	st.mu.Lock()
	if len(st.blocks) > 0 {
		clear(st.blocks[1:])
		clear(st.dead[1:])
		st.blocks, st.dead = st.blocks[:1], st.dead[:1]
		clear(st.dead[0])
		if len(st.published.Load().blocks) > 1 {
			st.publishBlocks()
		}
	}
	st.rows, st.deadCnt, st.deadAtDrop = 0, 0, 0
	st.rowsPublished.Store(0)
	st.anyDead.Store(false)
	if len(st.slots) > 2*blockRows {
		st.slots, st.hashes = nil, nil
	}
	clear(st.slots)
	st.used = 0
	for c := range st.cols {
		st.cols[c].Store(nil)
	}
	st.mu.Unlock()
	r.count.Store(0)
	r.tombs.Store(0)
	r.retracts.Store(0)
}

// Insert adds a tuple (copied into the column blocks), returning true
// when it was not already present: a commit of a run of one. The
// steady-state path allocates nothing (block and table growth amortize).
func (r *Relation) Insert(t Tuple) bool { return r.commit([]Tuple{t}, false) == 1 }

// Offer is Insert tuned for duplicate-heavy callers — the evaluator's
// answer and seen sets, where most offered tuples are already present. A
// read-locked probe rejects duplicates without taking the write lock, so
// callers re-offering known tuples never wait on each other; only first
// sightings fall through to Insert (which re-checks under the write
// lock, keeping the claim exactly-once under races). Fresh-heavy callers
// should use Insert directly: the extra probe is pure overhead there.
func (r *Relation) Offer(t Tuple) bool {
	r.writable()
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: arity-%d tuple offered to arity-%d relation", len(t), r.arity))
	}
	h := HashTuple(t)
	st := r.store
	st.mu.RLock()
	dup := st.findLocked(t, h) >= 0
	st.mu.RUnlock()
	if dup {
		return false
	}
	return r.Insert(t)
}

// Retract removes a tuple, returning true when it was present: a commit
// of a signed run of one. The row is tombstoned in place — blocks never
// move, so lock-free views stay sound — its dedup slot is freed (a later
// Insert of the same tuple appends a fresh row), and posting lists
// filter the dead row lazily until the compaction threshold
// drops them for a rebuild.
func (r *Relation) Retract(t Tuple) bool { return r.commit([]Tuple{t}, true) == 1 }

// InsertBatch inserts a run of tuples, returning the number that were
// genuinely new; duplicates inside the run collapse exactly as repeated
// Inserts would. See commit for what a run amortizes.
func (r *Relation) InsertBatch(tuples []Tuple) int { return r.commit(tuples, false) }

// RetractBatch retracts a run of tuples, returning the number that were
// present (and are now tombstoned).
func (r *Relation) RetractBatch(tuples []Tuple) int { return r.commit(tuples, true) }

// Run is one signed run of a commit: Tuples bound for Rel, in input
// order — inserts, or (Del) retractions.
type Run struct {
	Rel    *Relation
	Del    bool
	Tuples []Tuple
}

// commit is a commit of one run (which may have length one). An
// untracked relation — an answer set, a seen-set, a relation of a derived
// database — has nobody to publish to, so applying the run is all of it;
// on a tracked one it is commitRuns' one-run case.
func (r *Relation) commit(tuples []Tuple, del bool) int {
	if r.db == nil {
		n, _ := r.apply(tuples, del)
		return n
	}
	added, removed := commitRuns(r.db, Run{Rel: r, Del: del, Tuples: tuples}, nil)
	return added + removed
}

// Commit applies the runs of one write request to a primary database as
// one commit and returns the accepted inserts and retractions; see
// commitRuns. The runs — at least one, hence the signature — must name
// relations of this database. The first run travels by value so that a
// caller holding a single short run keeps its tuple slice on the stack.
func (db *Database) Commit(first Run, more ...Run) (added, removed int) {
	if !db.track {
		panic("storage: Commit on a derived database")
	}
	return commitRuns(db, first, more)
}

// commitRuns is the one write path of a tracked database: every mutation
// of one of its relations is a signed run of tuples, every commit one or
// more runs, and this is the only code that publishes them. It returns
// the accepted mutations by sign (fresh inserts; retractions of tuples
// that were present).
//
// The runs are applied in order, each by Relation.apply — visible to
// readers, stamped, the epoch one tick further per accepted mutation —
// and then published once: the accepted tuples of all runs reach the
// journal in one call (a single fsync under SyncAlways) and only after
// it returns are the watchers notified, once, so a subscription sees the
// whole commit as one delta round and never ahead of its durability. A
// commit is not atomic: readers may see its earlier runs before its later
// ones, and a crash before the journal call returns may keep any
// record-order prefix of it.
//
// From its first retraction run on, a commit holds the retraction gate —
// taken once however many retraction runs follow — so the retractions
// wait for in-flight maintenance passes (Database.HoldRetractions) and
// are stamped and visible in full before the next pass starts; the
// journal call is outside the gate.
func commitRuns(db *Database, first Run, more []Run) (added, removed int) {
	var gated bool
	var logged []JournalRun
	jp := db.journal.Load()
	for i := 0; i <= len(more); i++ {
		run := &first
		if i > 0 {
			run = &more[i-1]
		}
		r := run.Rel
		if r.db != db {
			panic("storage: commit of a relation outside the database")
		}
		if run.Del && !gated {
			db.retractGate.Lock()
			gated = true
		}
		n, accepted := r.apply(run.Tuples, run.Del)
		if n == 0 {
			continue
		}
		if run.Del {
			removed += n
		} else {
			added += n
		}
		if jp != nil {
			// The accepted tuples are copied out here, not passed through,
			// so callers' tuple slices never escape to the heap on the
			// unjournaled path.
			kept := make([]Tuple, 0, n)
			for k, t := range run.Tuples {
				if n == len(run.Tuples) || accepted[k] {
					kept = append(kept, t)
				}
			}
			if logged == nil {
				logged = make([]JournalRun, 0, len(more)+1-i)
			}
			logged = append(logged, JournalRun{Pred: r.name, Del: run.Del, Tuples: kept})
		}
	}
	if gated {
		db.retractGate.Unlock()
	}
	if added+removed == 0 {
		return 0, 0
	}
	if jp != nil {
		(*jp).JournalRuns(logged)
	}
	db.NotifyWatchers()
	return added, removed
}

// apply claims (or, with del, tombstones) a run's tuples under one
// acquisition of the write lock and advances the relation's bookkeeping.
// It returns the number of accepted mutations and, for a run longer than
// one, which tuples they were (a run of one is accepted exactly when n is
// 1).
//
// On a tracked relation (one created by a primary Database) every
// accepted mutation is appended to the delta tail as a signed entry, and
// the run is stamped and the database epoch advanced by its accepted
// count before the lock is released (Database.stampRun) — one tick per
// accepted mutation, for a run exactly as for the same tuples committed
// one at a time, which is what lets a log replayed record by record land
// on the writer's epoch. A reader that has seen the epoch beyond the
// stamp finds the relation's watermark raised and, once it gets the lock,
// the entries.
func (r *Relation) apply(tuples []Tuple, del bool) (n int, accepted []bool) {
	r.writable()
	for _, t := range tuples {
		if len(t) != r.arity {
			panic(fmt.Sprintf("storage: arity-%d tuple committed to arity-%d relation", len(t), r.arity))
		}
	}
	if len(tuples) == 0 {
		return 0, nil
	}
	if len(tuples) > 1 {
		accepted = make([]bool, len(tuples))
	}
	st := r.store
	st.mu.Lock()
	if !del {
		st.reserveLocked(len(tuples))
	}
	first := len(st.tail)
	for i, t := range tuples {
		var row int
		if del {
			row = st.retractLocked(t, HashTuple(t))
		} else {
			row = st.insertLocked(t, HashTuple(t), r.arity)
		}
		if row < 0 {
			continue
		}
		if r.db != nil {
			st.tail = append(st.tail, tailEntry{row: row, del: del})
		}
		if accepted != nil {
			accepted[i] = true
		}
		n++
	}
	if n == 0 {
		st.mu.Unlock()
		return 0, nil
	}
	if !del {
		st.rowsPublished.Store(int64(st.rows))
	}
	if r.db != nil {
		stamp := r.db.stampRun(&r.lastMod, n)
		for k := first; k < len(st.tail); k++ {
			st.tail[k].epoch = stamp
		}
		st.trimTailLocked()
	}
	st.mu.Unlock()
	d := int64(n)
	if del {
		r.count.Add(-d)
		r.tombs.Add(d)
		r.retracts.Add(d)
	} else {
		r.count.Add(d)
	}
	if r.stats != nil {
		if del {
			atomic.AddInt64(&r.stats.Retracts, d)
		} else {
			atomic.AddInt64(&r.stats.Inserts, d)
		}
	}
	return n, accepted
}

// trimTailLocked bounds the delta tail: past the bound all but the newest
// half-bound of entries are evicted and the floor rises past the newest
// evicted stamp, so incomplete coverage is never served (a run larger
// than the bound evicts part of itself). Caller holds the write lock.
func (st *store) trimTailLocked() {
	if len(st.tail) <= deltaTailBound {
		return
	}
	drop := len(st.tail) - deltaTailBound/2
	st.tailFloor = st.tail[drop-1].epoch + 1
	kept := st.tail[drop:]
	if cap(st.tail) > 2*deltaTailBound {
		// A large run grew the backing array; do not keep it.
		st.tail = append(make([]tailEntry, 0, deltaTailBound+1), kept...)
	} else {
		st.tail = append(st.tail[:0], kept...)
	}
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LastModified returns the epoch stamp of the relation's newest accepted
// insert (0 for an untracked or empty relation). An entry built at stamp
// S is stale exactly when LastModified() >= S.
func (r *Relation) LastModified() uint64 { return r.lastMod.Load() }

// Contains reports membership under the read lock. It allocates nothing.
func (r *Relation) Contains(t Tuple) bool {
	h := HashTuple(t)
	st := r.store
	st.mu.RLock()
	row := st.findLocked(t, h)
	st.mu.RUnlock()
	if r.win != nil {
		return r.win.holds(row)
	}
	return row >= 0
}

// view captures a snapshot of the relation's rows (see storeView) and the
// first row of it that is the relation's: 0, or a window's lo. A window's
// view ends at its hi.
func (r *Relation) view() (v storeView, lo int) {
	if r.win == nil {
		return r.store.view(), 0
	}
	v.rows = r.win.hi
	if v.rows > 0 {
		v.resolve(r.store)
	}
	return v, r.win.lo
}

// Tuples returns a materialized snapshot of the tuple set in row order
// (insertion order until a first directory clusters the rows), backed by
// a single value arena (two allocations however many tuples there are),
// sized by the rows that are live — not by every row
// ever appended, which on a relation that churns is mostly tombstones.
// The snapshot never aliases live column blocks; callers must still not
// modify it (tuples share the arena). This accessor is not instrumented;
// use Scan for measured access.
func (r *Relation) Tuples() []Tuple {
	v, lo := r.view()
	// A window's count was taken at DeltaSince: its rows can only have
	// died since.
	total := r.Len()
	if r.win == nil {
		total = v.live()
	}
	out := make([]Tuple, total)
	arena := make([]Value, total*r.arity)
	k := 0
	for row := lo; row < v.rows; row++ {
		if v.isDead(row) {
			continue
		}
		dst := Tuple(arena[k*r.arity : (k+1)*r.arity])
		v.read(row, dst)
		out[k] = dst
		k++
	}
	return out[:k]
}

// Scan iterates a snapshot of the tuples, recording one full scan. The
// yielded tuple is a reused scratch buffer, valid only until yield
// returns — copy it to keep it. Tuples are counted as examined only up
// to the point the caller stops.
func (r *Relation) Scan(yield func(Tuple) bool) {
	r.LookupTally(nil, make(Tuple, r.arity), nil, yield)
}

// scan yields every live row through scratch until yield stops it,
// returning the number of tuples it yielded.
func (r *Relation) scan(scratch Tuple, yield func(Tuple) bool) (examined int64) {
	v := r.store.view()
	for row := 0; row < v.rows; row++ {
		if v.isDead(row) {
			continue
		}
		v.read(row, scratch)
		examined++
		if !yield(scratch) {
			return examined
		}
	}
	return examined
}

// Binding is a column/value restriction for Lookup.
type Binding struct {
	Col int
	Val Value
}

// Lookup iterates the tuples matching all bindings. With at least one
// binding it probes a posting-list index — that of the most selective
// bound column, the one whose posting list for its value is shortest —
// and filters the remaining bindings row by row against the column
// blocks; with none it degrades to a full scan. IndexLookups counts one
// probe per bound Lookup. Indexes for bound columns are built on first
// use, so selectivity is compared on actual posting lists rather than
// guessed.
//
// The yielded tuple is a reused scratch buffer, valid only until yield
// returns — copy it to keep it. Tuples matching one binding are yielded
// in row order, which callers that stop at the first match rely on for
// repeatable TuplesExamined counts: the order they were inserted, but on
// a column other than the one a tracked relation's rows were clustered by
// (see store.cluster).
func (r *Relation) Lookup(bindings []Binding, yield func(Tuple) bool) {
	r.LookupTally(bindings, make(Tuple, r.arity), nil, yield)
}

// LookupBuf is Lookup yielding through the caller's buffer (len >=
// arity): it allocates nothing.
func (r *Relation) LookupBuf(bindings []Binding, buf Tuple, yield func(Tuple) bool) {
	r.LookupTally(bindings, buf, nil, yield)
}

// index returns column col's directory: the published one, or, when
// there is none — never built, or dropped by tombstone compaction — one
// built under the write lock (build). What it returns stays good for the
// caller's probe even if it is dropped again the next instant (see
// store.cols). The published case is small enough to inline into every
// probe.
func (st *store) index(col int) (d *directory) {
	if d = st.cols[col].Load(); d != nil {
		return
	}
	return st.build(col)
}

// build is index's slow path: it builds column col's directory under the
// write lock, unless another caller got there first. The first directory a
// store builds, while it has no tombstone, clusters its rows first.
func (st *store) build(col int) *directory {
	st.mu.Lock()
	d := st.cols[col].Load()
	if d == nil {
		if st.deadCnt == 0 && !st.indexed() {
			st.cluster(col)
		}
		d = st.buildDirectory(col, 0, st.rows)
		st.cols[col].Store(d)
	}
	st.mu.Unlock()
	return d
}

// indexed reports whether any column has a published directory.
func (st *store) indexed() bool {
	for c := range st.cols {
		if st.cols[c].Load() != nil {
			return true
		}
	}
	return false
}

// cluster lays the store's movable rows out afresh, sorted by column col
// and, within a key, in insertion order, so that a directory then built on
// col finds each key's rows there contiguous and names them by a range
// (see directory) — a gather copies them as slices of their blocks instead
// of reading an id and then a row. The rows that may move are those below
// p, the lowest of the row count, the first row the delta tail names (a
// window DeltaSince hands out later starts at a tail entry's row) and
// fixedFrom (the windows already handed out); the rest stay where they
// are, and a key
// with rows on both sides of p gets a run. Nothing else may name a row: no
// directory is built and none was ever dropped, which only a tombstone
// does. A layout that is the one there already is left as it is.
//
// The moved rows go into fresh blocks — the block that holds row p too,
// its rows from p on copied as they are — and the new block list is
// published before the directory that names the new places; a lock-free
// reader that loaded the old list finishes on the old blocks, which are
// never written again, nor are their tombstone bitsets (the moved blocks
// get fresh ones). The dedup table's row ids are remapped. Caller
// holds the write lock.
func (st *store) cluster(col int) {
	p := min(int64(st.rows), st.fixedFrom.Load())
	if len(st.tail) > 0 {
		p = min(p, int64(st.tail[0].row))
	}
	if p < 2 {
		return
	}
	// The sort is a counting sort: each key's count among the rows, and
	// from the counts in key order — a dense table's slot order — each
	// key's next place, in next by slot. The places are kept apart from
	// the slot words, whose probe would read a word of key 0 at place 0 as
	// an empty slot.
	t := st.keyTable(col, 0, int(p))
	keys := make([]int, 0, t.used)
	for i, w := range t.slots {
		if w != 0 {
			keys = append(keys, i)
		}
	}
	if !t.dense() {
		slices.SortFunc(keys, func(a, b int) int { return cmp.Compare(Value(t.slots[a]>>32), Value(t.slots[b]>>32)) })
	}
	next, at := make([]int32, len(t.slots)), int32(0)
	for _, i := range keys {
		next[i] = at
		at += int32(uint32(t.slots[i]))
	}
	to, moved := make([]int32, p), false
	for row := range to {
		i := t.probe(st.valueAt(row, col))
		to[row] = next[i]
		next[i]++
		moved = moved || int(to[row]) != row
	}
	if !moved {
		return
	}
	// The moved blocks get fresh tombstone bitsets as well (all clear: the
	// store has no tombstone), so that a retraction after the move sets
	// bits only in the new list, and a reader still on the old blocks
	// never tests an old place against a new place's bit.
	blocks, dead, last := slices.Clone(st.blocks), slices.Clone(st.dead), int(p-1)>>blockShift
	for b := 0; b <= last; b++ {
		blocks[b] = make([]Value, len(st.cols)<<blockShift)
		dead[b] = make([]uint64, deadWords)
	}
	for c := range st.cols {
		off := c << blockShift
		for row := int(p); row < min(st.rows, (last+1)<<blockShift); row++ {
			blocks[last][off|row&blockMask] = st.blocks[last][off|row&blockMask]
		}
		for row, dst := range to {
			blocks[dst>>blockShift][off|int(dst)&blockMask] = st.blocks[row>>blockShift][off|row&blockMask]
		}
	}
	for i, s := range st.slots {
		if s > 0 && int64(s) <= p {
			st.slots[i] = to[s-1] + 1
		}
	}
	st.blocks, st.dead = blocks, dead
	st.publishBlocks()
}

// Equal reports whether two relations hold the same tuple sets.
func (r *Relation) Equal(o *Relation) bool {
	if r == o {
		return true
	}
	if r.arity != o.arity {
		return false
	}
	if r.Len() != o.Len() {
		return false
	}
	scratch := make(Tuple, r.arity)
	v, lo := r.view()
	for row := lo; row < v.rows; row++ {
		if v.isDead(row) {
			continue
		}
		v.read(row, scratch)
		if !o.Contains(scratch) {
			return false
		}
	}
	return true
}

// SortedTuples returns the tuples in lexicographic order (fresh
// arena-backed slice), for deterministic output.
func (r *Relation) SortedTuples() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// SortedColumns returns the tuple set column-major in lexicographic row
// order: cols[c][i] is the i-th sorted tuple's value in column c, all
// columns backed by one arena. rows is the tuple count (arity-0
// relations have no columns, so rows alone carries their 0-or-1 count).
// This is the WAL snapshot writer's extraction path: the whole relation
// serializes from a handful of allocations, with no per-tuple re-boxing.
func (r *Relation) SortedColumns() (cols [][]Value, rows int) {
	ts := r.SortedTuples()
	rows = len(ts)
	if r.arity == 0 {
		return nil, rows
	}
	arena := make([]Value, rows*r.arity)
	cols = make([][]Value, r.arity)
	for c := range cols {
		col := arena[c*rows : (c+1)*rows]
		for i, t := range ts {
			col[i] = t[c]
		}
		cols[c] = col
	}
	return cols, rows
}

// Database is a named collection of relations sharing a symbol table and
// instrumentation counters. It is safe for concurrent use.
//
// A primary database (NewDatabase) tracks epochs: every accepted insert
// into one of its relations is stamped with the current epoch, recorded
// in the relation's bounded delta tail (Relation.DeltaSince), and advances
// the counter. Derived databases (NewDatabaseWith — semi-naive IDB
// state, magic-set scratch space) skip the tracking entirely.
type Database struct {
	Stats Counters // first field: keeps the atomics 64-bit aligned on 32-bit platforms
	Syms  *SymbolTable

	// epoch is the monotone mutation counter; lastMod the highest stamp
	// any accepted mutation received; mutations the accepted-mutation
	// count, inserts and retractions alike (the auto-checkpoint trigger).
	// All zero for derived databases.
	epoch     atomic.Uint64
	lastMod   atomic.Uint64
	mutations atomic.Int64
	track     bool

	mu   sync.RWMutex
	rels map[string]*Relation

	// journal, when non-nil, receives every commit's accepted mutations
	// (tracked databases only). An atomic pointer, so a journal can attach
	// while writers are in flight (SetJournal).
	journal atomic.Pointer[Journal]

	// watchers are the mutation-notification channels handed out by
	// Watch (live subscriptions block on them); hasWatch keeps the
	// accepted-mutation hot path to a single atomic load when nobody is
	// watching.
	watchMu  sync.Mutex
	watchers map[int]chan struct{}
	watchSeq int
	hasWatch atomic.Bool

	// retractGate orders retractions against delete-rederive maintenance
	// passes (HoldRetractions): a retraction run tombstones its rows
	// holding the gate exclusively, a pass holds it shared.
	retractGate sync.RWMutex
}

// NewDatabase creates an empty epoch-tracked database with a fresh
// symbol table.
func NewDatabase() *Database {
	return &Database{Syms: NewSymbolTable(), rels: make(map[string]*Relation), track: true}
}

// NewDatabaseWith creates an empty database sharing an existing symbol
// table (used for derived/IDB databases). Derived databases do not track
// epochs — their relations stamp nothing and keep no delta tails — and
// their relations report to no Counters: Stats stays zero.
func NewDatabaseWith(syms *SymbolTable) *Database {
	return &Database{Syms: syms, rels: make(map[string]*Relation)}
}

// Epoch returns the database's current epoch. An evaluation that records
// Epoch() before reading any relation may later reconstruct everything
// it missed with DeltaSince(stamp) on each relation: every accepted
// insert not visible to it carries a stamp >= that reading.
func (db *Database) Epoch() uint64 { return db.epoch.Load() }

// LastModified returns the highest epoch stamp any accepted insert into
// this database received (0 when empty or untracked). State captured at
// stamp S is current iff LastModified() < S.
func (db *Database) LastModified() uint64 { return db.lastMod.Load() }

// Mutations returns the number of accepted mutations — inserts plus
// retractions — of the database's relations since creation (untracked
// databases always report 0).
func (db *Database) Mutations() int64 { return db.mutations.Load() }

// stampRun stamps a run of n accepted mutations of one relation
// (rel is its watermark): it returns the epoch their delta-tail entries
// carry and moves the epoch, and the mutation count, n past it. Both
// watermarks reach the stamp BEFORE the epoch leaves it, and the
// compare-and-swap makes the stamp this run's alone, so whoever reads an
// epoch beyond a stamp — the reading a consumer adopts as its next
// DeltaSince bound — already finds LastModified at or above it and
// cannot step over the mutation for good. (A failed attempt leaves the
// watermarks below the final stamp, which is harmless.) The caller holds
// the relation's write lock, so the entries themselves appear when it is
// released.
func (db *Database) stampRun(rel *atomic.Uint64, n int) uint64 {
	for {
		stamp := db.epoch.Load()
		storeMax(rel, stamp)
		storeMax(&db.lastMod, stamp)
		if db.epoch.CompareAndSwap(stamp, stamp+uint64(n)) {
			db.mutations.Add(int64(n))
			return stamp
		}
	}
}

// HoldRetractions keeps every retraction into this database's relations
// from landing until release is called; inserts proceed. A
// delete-rederive maintenance pass holds it from before it collects its
// delta until it finishes: the pass reconstructs the pre-deletion state
// as "what is there now plus what the delta says left", so a tuple
// retracted mid-pass is missing from this pass's reconstruction and its
// partners from the next one's, and a fact they jointly supported would
// never be reconsidered. Holds are shared — passes over different
// retained states overlap — and a waiting retraction is admitted before
// any later pass starts.
func (db *Database) HoldRetractions() (release func()) {
	db.retractGate.RLock()
	return db.retractGate.RUnlock
}

// Watch registers a mutation watcher: the returned channel receives a
// (coalesced) signal after every accepted insert or retraction, and the
// cancel function unregisters it. The channel has a one-slot buffer and
// notification never blocks, so a slow watcher sees at least one signal
// for any burst of mutations — it re-reads Epoch and DeltaSince to find
// out what actually changed.
func (db *Database) Watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	db.watchMu.Lock()
	if db.watchers == nil {
		db.watchers = make(map[int]chan struct{})
	}
	id := db.watchSeq
	db.watchSeq++
	db.watchers[id] = ch
	db.hasWatch.Store(true)
	db.watchMu.Unlock()
	cancel := func() {
		db.watchMu.Lock()
		delete(db.watchers, id)
		if len(db.watchers) == 0 {
			db.hasWatch.Store(false)
		}
		db.watchMu.Unlock()
	}
	return ch, cancel
}

// NotifyWatchers signals every registered watcher without blocking. A
// committed run calls it; so does the engine when the program changed and
// the facts did not, which moves standing queries just the same.
func (db *Database) NotifyWatchers() {
	if !db.hasWatch.Load() {
		return
	}
	db.watchMu.Lock()
	for _, ch := range db.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	db.watchMu.Unlock()
}

// Shards returns 1.
//
// Deprecated: relations have one store; kept for bench/traced.go until ROADMAP item 4 rewrites it.
func (db *Database) Shards() int { return 1 }

// SetJournal attaches a journal (or detaches, with nil) to a primary
// database: every fresh symbol intern and every commit's accepted
// mutations are reported to it from now on. State already present is
// not replayed — callers that need it durable write a snapshot (see
// internal/wal). Derived databases sharing this database's symbol table
// are not journaled (and cannot be given a journal of their own): answer
// and magic relations live outside the journaled database, while their
// fresh symbol interns still flow through the shared table's hook,
// keeping logged Values dense and replayable.
func (db *Database) SetJournal(j Journal) {
	if !db.track {
		panic("storage: SetJournal on a derived database")
	}
	// Ordering: the intern hook installs before any commit can journal a
	// fact and uninstalls after the journal detaches. A fact record
	// referencing a Value whose sym record was skipped makes the log
	// unrecoverable; the reverse — an orphan sym record — is harmless.
	// (Interns that raced ahead of the hook install count as pre-attach
	// state, covered by the caller's snapshot.)
	if j == nil {
		db.journal.Store(nil)
		db.Syms.SetInternHook(nil)
		return
	}
	db.Syms.SetInternHook(j.JournalSym)
	db.journal.Store(&j)
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(pred string) *Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rels[pred]
}

// Ensure returns the named relation, creating it with the given arity when
// missing. It panics when the relation exists with a different arity —
// for callers whose arities come from an analysed program; callers
// holding outside input use Declare.
func (db *Database) Ensure(pred string, arity int) *Relation {
	r, ok := db.Declare(pred, arity)
	if !ok {
		panic(fmt.Sprintf("storage: relation %s has arity %d, requested %d", pred, r.arity, arity))
	}
	return r
}

// Declare is Ensure reporting an arity conflict instead of panicking: ok
// is false, and the existing relation is returned, when pred already
// exists with a different arity.
func (db *Database) Declare(pred string, arity int) (r *Relation, ok bool) {
	db.mu.RLock()
	r, found := db.rels[pred]
	db.mu.RUnlock()
	if found {
		return r, r.arity == arity
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if r, found := db.rels[pred]; found {
		return r, r.arity == arity
	}
	// A derived database's Stats is nobody's total: its relations count
	// nothing, and a semi-naive round's probes of them pay no atomic adds.
	var stats *Counters
	if db.track {
		stats = &db.Stats
	}
	// The name is copied for the same reason a symbol's is (SymbolTable):
	// the caller's may be a slice of a whole source text.
	pred = strings.Clone(pred)
	r = NewRelation(arity, stats)
	r.name = pred
	if db.track {
		r.db = db
		r.store.fixedFrom.Store(math.MaxInt64)
	}
	db.rels[pred] = r
	return r, true
}

// Preds returns the sorted relation names.
func (db *Database) Preds() []string {
	db.mu.RLock()
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	db.mu.RUnlock()
	sort.Strings(out)
	return out
}

// AddFact interns the constant names and inserts the tuple into pred,
// reporting whether the tuple was genuinely new: false on a duplicate,
// and — like RemoveFact — when pred exists with another arity, so the
// tuple cannot be stored.
func (db *Database) AddFact(pred string, consts ...string) bool {
	r, ok := db.Declare(pred, len(consts))
	if !ok {
		return false
	}
	t := make(Tuple, len(consts))
	db.Syms.InternBatch(consts, t)
	return r.Insert(t)
}

// RemoveFact retracts the named tuple from pred, reporting whether it
// was present. Unknown constants, an unknown predicate, or an arity
// mismatch all mean the tuple cannot be stored, so the result is false
// without interning anything.
func (db *Database) RemoveFact(pred string, consts ...string) bool {
	r := db.Relation(pred)
	if r == nil || r.arity != len(consts) {
		return false
	}
	t := make(Tuple, len(consts))
	return db.Syms.LookupBatch(consts, t) && r.Retract(t)
}

// TupleCount returns the total number of tuples across relations.
func (db *Database) TupleCount() int {
	db.mu.RLock()
	rels := make([]*Relation, 0, len(db.rels))
	for _, r := range db.rels {
		rels = append(rels, r)
	}
	db.mu.RUnlock()
	n := 0
	for _, r := range rels {
		n += r.Len()
	}
	return n
}

// Dump renders the database deterministically, one fact per line, in the
// parser's concrete syntax: predicates in name order, each relation's
// facts in rendered-text order, constant names quoted whenever the lexer
// needs it ('New York', capitalized names, the '#N' rendering of an
// out-of-range Value) and arity-0 facts written "p." rather than "p().".
// The output re-parses to the same fact set — parser.Parse(db.Dump())
// followed by a reload reproduces db — and, because lines are ordered by
// their rendered text rather than by interned Values, the bytes are
// stable across processes that interned the same facts in different
// orders (the crash-recovery byte-identity check relies on this).
func (db *Database) Dump() string {
	var b strings.Builder
	for _, p := range db.Preds() {
		r := db.Relation(p)
		snap := r.Tuples()
		lines := make([]string, len(snap))
		for j, t := range snap {
			var l strings.Builder
			l.WriteString(quote.Atom(p))
			if len(t) > 0 {
				l.WriteByte('(')
				for i, v := range t {
					if i > 0 {
						l.WriteString(", ")
					}
					l.WriteString(quote.Atom(db.Syms.Name(v)))
				}
				l.WriteByte(')')
			}
			l.WriteString(".\n")
			lines[j] = l.String()
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
		}
	}
	return b.String()
}
