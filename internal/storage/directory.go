package storage

import "sync/atomic"

// directory is one column's posting index in a relation: a flat
// open-addressing table (linear probing, power-of-two size) from a value
// to the ids of the rows holding it, in insertion order, and it holds no
// pointer per key. A slot is one word,
//
//	key<<32 | ref        (0: empty)
//
// and ref says where the rows are. With its top bit (inlineRow) set the
// rest of it IS the id of the key's one row — every key of a chain, a
// tree, any functional column — and a probe is done with the slot.
// Otherwise ref names a run in the directory's arena: chunk ref>>chunkShift,
// word ref&chunkMask, where one length word is followed by the ids, in room
// for runCap(length) of them (the capacity follows from the length and is
// not kept). Chunks never move and a run is never reused, so whatever a
// reader was handed stays as it was.
//
// One writer at a time — whoever holds the relation's write lock — extends a
// directory while any number of readers probe it without a lock, and one
// rule orders them: a reference is stored after what it refers to. The
// writer writes a run's ids and length, and publishes the chunk they are
// in, before the atomic store of the slot word that names the run; it
// appends an id before the atomic store of the longer length; a run that
// is full is copied into room twice the size, and the slot word then
// stored, the old run staying behind, abandoned, for the readers still on
// it. The reader makes one atomic 64-bit load of the slot, then loads the
// chunk list, then the length (slot, rows): the word it got was stored
// after a chunk list holding the run's chunk and after a length whose ids
// are there, and every later list and length covers as much.
//
// A key is never removed and a slot never moves: a table that must grow
// is copied into a larger one — a new key's slot stored in it first — and
// that one published in its place (store.cols), the old one staying as it
// was for the readers still in it. The copy carries the arena on: chunk
// list, fill mark and tallies.
//
// Reach: row ids are below 2^31 (as everywhere in the store — int32 ids),
// and a run reference is 31 bits: maxChunks chunks, each entered within
// its first 1<<chunkShift words, 2^31 arena words (8 GiB) in all. A
// directory that would need more panics, naming this limit.
type directory struct {
	slots []uint64
	// used counts occupied slots (the load-factor input); writer only.
	used int
	// chunks is the arena's chunk list as published to readers: replaced,
	// never written through. A chunk is 1<<chunkShift words at most, unless
	// a single run needs more (it then has the chunk to itself), or it is a
	// view of a bulk build's one allocation from a multiple of that size to
	// its end — so that a reference found by chunk and word still reads its
	// run whole.
	chunks atomic.Pointer[[][]int32]
	// free is the first unused word of the last chunk; words and abandoned
	// tally the arena's words — allocated in all, and held by runs that
	// have since moved to larger room. Writer only.
	free, words, abandoned int
}

const (
	// inlineRow is the reference bit that makes the rest a row id.
	inlineRow = 1 << 31
	// chunkShift splits a run reference into chunk and word.
	chunkShift = 16
	chunkMask  = 1<<chunkShift - 1
	// maxChunks is how many chunks a reference can tell apart.
	maxChunks = 1 << (31 - chunkShift)
	// minChunkWords is the size of a directory's first chunk; each later
	// one is as large as all before it together, up to 1<<chunkShift.
	minChunkWords = 16
	// minDirSlots is the size of the smallest directory.
	minDirSlots = 8
)

func newDirectory() *directory { return &directory{slots: make([]uint64, minDirSlots)} }

// slotWord is the word of key's slot once its rows are at ref.
func slotWord(key Value, ref uint32) uint64 { return uint64(uint32(key))<<32 | uint64(ref) }

// hashValue spreads a column value over a directory: interned Values are
// dense small integers, so a multiply spreads consecutive values, and the
// high bits are folded into the low ones the table indexes by.
func hashValue(v Value) uint32 {
	h := uint32(v) * 2654435761
	return h ^ h>>15
}

// slot returns the word of key's slot, 0 when the key has none. Safe
// without a lock.
func (d *directory) slot(key Value) uint64 {
	mask := uint32(len(d.slots) - 1)
	for i := hashValue(key) & mask; ; i = (i + 1) & mask {
		if w := atomic.LoadUint64(&d.slots[i]); w == 0 || Value(w>>32) == key {
			return w
		}
	}
}

// room returns the room of the run ref names, from its length word on,
// without looking at it. Safe without a lock, for a ref loaded before.
func (d *directory) room(ref uint32) []int32 {
	return (*d.chunks.Load())[ref>>chunkShift][ref&chunkMask:]
}

// count returns how many rows w — the word slot returned, of a slot of d —
// stands for. Safe without a lock.
func (d *directory) count(w uint64) int {
	switch {
	case w == 0:
		return 0
	case w&inlineRow != 0:
		return 1
	}
	return len(runIDs(d.room(uint32(w))))
}

// loneRow is the row id in a slot word whose inlineRow bit is set.
func loneRow(w uint64) int32 { return int32(w & (inlineRow - 1)) }

// runIDs returns the ids of the run whose room this is (see room): as
// many as its length word says now. Safe without a lock.
func runIDs(room []int32) []int32 { return room[1 : 1+atomic.LoadInt32(&room[0])] }

// rows returns the ids w — the word of an occupied slot of d — stands
// for: the run's, as many as its length word says now, or the one in the
// word, seen through lone. (The storage is the caller's because a view of
// the word that travelled with it would point into itself, and move every
// probe's to the heap.) Safe without a lock.
func (d *directory) rows(w uint64, lone *[1]int32) []int32 {
	if w&inlineRow != 0 {
		lone[0] = loneRow(w)
		return lone[:]
	}
	return runIDs(d.room(uint32(w)))
}

// probe returns the index of key's slot, or of the empty slot that ends
// its probe chain. Writer side.
func (d *directory) probe(key Value) int {
	mask := uint32(len(d.slots) - 1)
	i := hashValue(key) & mask
	for w := d.slots[i]; w != 0 && Value(w>>32) != key; w = d.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// claim returns the index of key's slot — an empty one, now counted as
// used and the caller's to fill, when the key is new — and the directory
// the slot is in: d itself, or the larger copy d had to make way for, which
// the caller publishes if d was. Writer side.
func (d *directory) claim(key Value) (int, *directory) {
	i := d.probe(key)
	if d.slots[i] == 0 {
		if 4*(d.used+1) > 3*len(d.slots) {
			d = d.grown()
			i = d.probe(key)
		}
		d.used++
	}
	return i, d
}

// grown returns a copy of d with twice the slots, the arena carried over:
// the writer goes on extending the same runs through the copy, beyond what
// d's slots and chunk list name.
func (d *directory) grown() *directory {
	g := &directory{
		slots: make([]uint64, 2*len(d.slots)),
		used:  d.used,
		free:  d.free, words: d.words, abandoned: d.abandoned,
	}
	g.chunks.Store(d.chunks.Load())
	for _, w := range d.slots {
		if w != 0 {
			g.slots[g.probe(Value(w>>32))] = w
		}
	}
	return g
}

// runCap is the capacity of a run holding n >= 1 ids: n rounded up to a
// power of two, and at least two.
func runCap(n int32) int32 {
	c := int32(2)
	for c < n {
		c <<= 1
	}
	return c
}

// arenaFull is the panic of a directory whose runs outgrew what a
// reference can name.
const arenaFull = "storage: a posting directory's run arena is limited to 2^31 words (32768 chunks entered within 65536 words each)"

// reserve reserves a run's room in the arena — a length word and c ids — and
// returns its reference and the room itself, zeroed. A new chunk is
// published here, before the caller can store a word that names it.
// Writer side.
func (d *directory) reserve(c int32) (ref uint32, run []int32) {
	need := int(c) + 1
	var list [][]int32
	if p := d.chunks.Load(); p != nil {
		list = *p
	}
	if len(list) == 0 || d.free+need > len(list[len(list)-1]) {
		if len(list) == maxChunks {
			panic(arenaFull)
		}
		d.free = 0
		if len(list) == 0 {
			d.free = 1 // reference 0 under key 0 would read as an empty slot
		}
		size := max(min(max(d.words, minChunkWords), 1<<chunkShift), d.free+need)
		longer := append(list[:len(list):len(list)], make([]int32, size))
		d.chunks.Store(&longer)
		d.words += size
		list = longer
	}
	at, last := d.free, len(list)-1
	d.free += need
	return uint32(last)<<chunkShift | uint32(at), list[last][at : at+need]
}

// post appends row to key's rows in d, the published directory of column
// col, publishing in turn what a reader could not otherwise reach (see
// directory): a key's second row moves both into a run, a full run moves
// to one twice the size, and a larger table replaces d when a new key
// needed a slot d had no room for. Caller holds the write lock.
func (st *store) post(col int, d *directory, key Value, row int32) {
	i, in := d.claim(key)
	slot := &in.slots[i]
	switch w := *slot; {
	case w == 0:
		atomic.StoreUint64(slot, slotWord(key, inlineRow|uint32(row)))
	case uint32(w)&inlineRow != 0:
		ref, run := in.reserve(runCap(2))
		run[0], run[1], run[2] = 2, loneRow(w), row
		atomic.StoreUint64(slot, slotWord(key, ref))
	default:
		run := in.room(uint32(w))
		n := run[0]
		if n < runCap(n) {
			run[1+n] = row
			atomic.StoreInt32(&run[0], n+1)
			break
		}
		ref, moved := in.reserve(2 * n)
		copy(moved[1:], run[1:1+n])
		moved[0], moved[1+n] = n+1, row
		in.abandoned += 1 + int(n)
		atomic.StoreUint64(slot, slotWord(key, ref))
	}
	if in != d {
		st.cols[col].Store(in)
	}
}

// buildDirectory indexes column col of the store's live rows in [lo, hi)
// (tombstoned rows are left out — the compaction path relies on this). It counts
// each key's rows first, in the low word of the key's slot, so that the
// table is sized once it stops growing and every run is carved, with room
// by the same rule as a posted one's, out of one exact allocation; the
// second pass fills the runs, a run's length word counting what it has so
// far. Caller holds the lock — the write lock for a directory of the
// store's own, the read lock for a window's — and the result is private
// until stored.
func (st *store) buildDirectory(col, lo, hi int) *directory {
	d := newDirectory()
	live := func(yield func(row int, key Value)) {
		for row := lo; row < hi; row++ {
			if st.deadCnt == 0 || !st.isDeadLocked(row) {
				yield(row, st.valueAt(row, col))
			}
		}
	}
	live(func(_ int, key Value) {
		var i int
		i, d = d.claim(key)
		if d.slots[i] == 0 {
			d.slots[i] = slotWord(key, 0)
		}
		d.slots[i]++
	})
	// Counts become references: of a bulk arena, whose chunks are views of
	// one allocation, a run's reference is its offset in it.
	total := 1 // word 0 is no run's: see reserve
	for i, w := range d.slots {
		switch key, n := Value(w>>32), int32(uint32(w)); {
		case n == 1:
			d.slots[i] = slotWord(key, inlineRow) // the row's id is or-ed in below
		case n > 1:
			d.slots[i] = slotWord(key, uint32(total))
			total += 1 + int(runCap(n))
		}
	}
	if total > 1<<31 {
		panic(arenaFull)
	}
	var arena []int32
	if total > 1 {
		arena = make([]int32, total)
		var list [][]int32
		for at := 0; at < total; at += 1 << chunkShift {
			list = append(list, arena[at:])
		}
		d.chunks.Store(&list)
		d.free, d.words = len(list[len(list)-1]), total
	}
	live(func(row int, key Value) {
		i := d.probe(key)
		if ref := uint32(d.slots[i]); ref&inlineRow != 0 {
			d.slots[i] |= uint64(row)
		} else {
			run := arena[ref:]
			run[0]++
			run[run[0]] = int32(row)
		}
	})
	return d
}
