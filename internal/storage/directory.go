package storage

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// directory is one column's posting index in a relation: a flat table
// from a value to the ids of the rows holding it, in row order, and
// it holds no pointer per key. A key's probe starts at its home slot,
//
//	home(key) = uint32(key-base) * mul >> shift
//
// and the table is one of two kinds, chosen from its keys when it is built
// or grown and fixed for its life (see sized):
//
//   - dense: mul 1 and shift 0, so key v's slot is slots[v-base], and
//     holds v's rows or nothing: there is no hash, no key compare and no
//     probe walk. Interned Values are dense in first-seen order, so the
//     columns a chain, a tree or most edge relations are keyed by go
//     dense, and the keys a walk down a chain visits in turn are
//     neighbours in the table.
//   - hashed: Fibonacci hashing (mul is fibonacci, base the lowest key
//     when the table was made, and home the top bits of the product),
//     linear probing, a power-of-two size.
//
// Either kind keeps the range [lo, hi] of its keys. A dense table spans at
// least that range, and a probe of it reads the key's slot if the table
// has one, and nothing else. A hashed table's probe outside [lo, hi] reads
// no slot. A hashed table whose keys, when it was made, span
// at most 64 values a slot — so that one bit a value takes no more memory
// than the slots — also keeps an exact presence bitmap: bit key-base of
// bits is set for every key it holds, over a range fixed for the table's
// life, from base to the end of the bitmap's last word. A probe inside
// that range tests the key's bit first, and one whose bit is clear — a
// miss, most probes of an exit relation — reads no slot and walks
// nothing; a probe beyond it (a key posted after the table was made)
// checks [lo, hi] and walks as before.
//
// A slot is one word (0: empty), and its low half, ref, says where the
// rows are. With ref's top bit (inlineRow) set, the word itself names
// them, and a probe reads no more than the word before the rows:
//
//	hashed:  key<<32   | inlineRow | row     the key's one row
//	dense:   count<<32 | inlineRow | first   count >= 1 rows from first on
//
// A hashed table needs the key in the word to tell it from the others
// its probe walk meets; a dense table's slot is its key's, so the high half
// holds the count instead, and one word names a lone row — every key of a
// chain, a tree, any functional column — or a range: one contiguous
// stretch of the blocks, what a build finds for every key of a clustered
// relation (store.cluster), and for any key whose rows happen to lie side
// by side. Otherwise ref names an entry in the directory's arena,
//
//	hashed:  key<<32 | ref
//	dense:   ref
//
// at chunk ref>>chunkShift, word ref&chunkMask, which starts with a length
// word. A negative length word makes the entry a range: one more word, the
// first row, and the key's rows are -length rows from it on — how a hashed
// table names a multi-row range (a dense table grown from a hashed one
// may keep such entries). A range entry is never written again once its
// slot word names it. Any other entry is a run: the length word is
// followed by the ids, in room for runCap(length) of them (the capacity
// follows from the length and is not kept). Chunks never move and an
// entry is never reused, so whatever a reader was handed stays as it was.
//
// One writer at a time — whoever holds the relation's write lock — extends a
// directory while any number of readers probe it without a lock, and one
// rule orders them: a reference is stored after what it refers to. The
// writer widens [lo, hi] to a new key, and sets the key's bit in the
// bitmap's range, before it stores the key's slot word, and clears no
// bit; it writes a row into its block, and publishes the block list if
// the row opened a block, before it posts the row; it writes an entry — a
// run's ids and length, a range's two words — and publishes the chunk it
// is in, before the atomic store of the slot word that names it; it
// appends an id to a run before the atomic store of the longer length. A
// dense table's inline range takes the row right after its last in place:
// one atomic store of the word with the count one higher, which names no
// row that is not in the blocks already. Any other inline word, a run that
// is full, or a range entry, which is never extended, is copied into a run
// with room for twice as many, and the slot word then stored, the old
// entry staying behind, abandoned, for the readers still on it. The reader
// of a hashed table loads the key's bit or [lo, hi] before the slot — a
// clear bit, or a key outside the range, means no word was there to
// load; a dense table's reader loads nothing before the slot, which
// outside [lo, hi] is empty or was stored after they widened. Then it
// makes one atomic 64-bit load of the slot, then loads the chunk list, then the
// length (slot, rows), and the block list last: the word it got was
// stored after a chunk list holding the run's chunk, after a length whose
// ids are there, and after the rows it names, and every later list and
// length covers as much.
//
// A key is never removed and a slot never moves: a table that must grow —
// a hashed one past 3/4 full, a dense one for a key beyond its ends — is
// copied into a new one sized for its keys and the new key, whose slot is
// stored in it first, and that one is published in its place (store.cols),
// the old one staying as it was for the readers still in it. The copy
// carries the arena on: chunk list, fill mark and tallies; its bitmap, if
// it has room for one, is built afresh over its keys' range; and each
// word is written as the copy's kind has it (into).
//
// Reach: row ids are below 2^31 (as everywhere in the store — int32 ids),
// and a run reference is 31 bits: maxChunks chunks, each entered within
// its first 1<<chunkShift words, 2^31 arena words (8 GiB) in all. A
// directory that would need more panics, naming this limit.
type directory struct {
	slots []uint64
	// base, mul and shift place a key's home slot (see above). The
	// arithmetic wraps, so a dense table may straddle the ends of Value.
	base  Value
	mul   uint32
	shift uint8
	// countShift is 32 in a dense table and 63 in a hashed one: an inline
	// word shifted right by it is a dense table's count, and at most 1 in a
	// hashed one, whose inline word is one row (see rows).
	countShift uint8
	// bits is a hashed table's presence bitmap, bit key-base per key, or
	// nil (see above). Its length is fixed; the writer sets a key's bit
	// before it stores the key's slot word, and no bit is cleared.
	bits []uint64
	// lo and hi bound the keys, lo > hi in a table with none. A writer
	// widens them before it stores the slot of a key beyond them.
	lo, hi atomic.Int32
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
	// minDirSlots is the size of the smallest hashed table.
	minDirSlots = 8
	// fibonacci is a hashed table's multiplier, 2^32 over the golden
	// ratio: consecutive keys' products land far apart in their top bits,
	// which is where home takes them from.
	fibonacci = 2654435761
)

// newDirectory returns a directory without keys: a dense table of no
// slots, which its first key grows.
func newDirectory() *directory {
	d := &directory{mul: 1, countShift: 32}
	d.lo.Store(math.MaxInt32)
	d.hi.Store(math.MinInt32)
	return d
}

// sized returns an empty table for n >= 1 keys in [lo, hi], its arena the
// caller's to fill or carry over. Where a hashed table is at most 3/4
// full, and so holds at most 8/3 slots a key right after it doubles, a
// dense one holds no more:
//
//   - Built for keys it will not outgrow (grow false, a bulk build), it is
//     dense when they span at most 8/3 slots a key, and holds the span.
//   - Grown by a key (grow true), it is dense when the keys span at most
//     2 slots a key. It holds 8/3 slots a key, so that the keys fill at
//     least 3/4 of it, as a hashed table's do, and the rest is split
//     between its two ends: room for keys beyond either, so that a run of
//     new keys, however it walks, grows the table by a constant factor.
//
// Otherwise it is hashed, at most 3/4 full, based at lo, with a presence
// bitmap over [lo, hi] where that is no larger than its slots.
func sized(n int, lo, hi Value, grow bool) *directory {
	d := &directory{mul: 1, countShift: 32}
	d.lo.Store(int32(lo))
	d.hi.Store(int32(hi))
	keys, span := int64(n), int64(hi)-int64(lo)+1
	switch {
	case !grow && 3*span <= 8*keys:
		d.base, d.slots = lo, make([]uint64, span)
	case grow && span <= 2*keys:
		size := 8 * keys / 3
		d.base, d.slots = lo-Value((size-span)/2), make([]uint64, size)
	default:
		size := minDirSlots
		for 4*n > 3*size {
			size *= 2
		}
		d.base, d.mul, d.shift, d.countShift, d.slots = lo, fibonacci, uint8(33-bits.Len(uint(size))), 63, make([]uint64, size)
		if words := (span + 63) / 64; words <= int64(size) {
			d.bits = make([]uint64, words)
		}
	}
	return d
}

// dense reports whether d is a dense table.
func (d *directory) dense() bool { return d.mul == 1 }

// slotWord is a hashed table's word of key's slot once its rows are at
// ref.
func slotWord(key Value, ref uint32) uint64 { return uint64(uint32(key))<<32 | uint64(ref) }

// refWord is the word of key's slot in d once its rows are at ref — an
// arena entry, or (keyTable) a count: a hashed table's slotWord, and ref
// alone in a dense one.
func (d *directory) refWord(key Value, ref uint32) uint64 {
	if d.dense() {
		return uint64(ref)
	}
	return slotWord(key, ref)
}

// inlineWord is the word of key's slot in d when its n rows are first on:
// in a dense table n<<32 | inlineRow | first, for any n >= 1; in a hashed
// one slotWord(key, inlineRow|first), for n = 1 only.
func (d *directory) inlineWord(key Value, first, n int32) uint64 {
	if d.dense() {
		return uint64(n)<<32 | inlineRow | uint64(first)
	}
	return slotWord(key, inlineRow|uint32(first))
}

// key returns the key of slot i, whose word w is not 0: the slot's own
// key in a dense table, the word's high half in a hashed one.
func (d *directory) key(i int, w uint64) Value {
	if d.dense() {
		return d.base + Value(i)
	}
	return Value(w >> 32)
}

// slot returns the word of key's slot, 0 when the key has none. A dense
// table's is its slot, found with no key compare and no walk; a hashed
// table's is read off the bitmap when the key is in its range and its bit
// is clear. Safe without a lock.
func (d *directory) slot(key Value) (w uint64) {
	i := uint32(key - d.base)
	if d.dense() {
		if i < uint32(len(d.slots)) {
			return atomic.LoadUint64(&d.slots[i])
		}
		return 0
	}
	if i>>6 < uint32(len(d.bits)) {
		if atomic.LoadUint64(&d.bits[i>>6])>>(i&63)&1 == 0 {
			return 0
		}
	} else if int32(key) < d.lo.Load() || int32(key) > d.hi.Load() {
		return 0
	}
	for i = i * d.mul >> d.shift; ; i = (i + 1) & uint32(len(d.slots)-1) {
		if w = atomic.LoadUint64(&d.slots[i]); w == 0 || Value(w>>32) == key {
			return w
		}
	}
}

// room returns the room of the entry ref names, from its length word on,
// without looking at it. Safe without a lock, for a ref loaded before.
func (d *directory) room(ref uint32) []int32 {
	return (*d.chunks.Load())[ref>>chunkShift][ref&chunkMask:]
}

// rowSet is the rows a slot word stands for: the ids of a run, or — ids
// nil — the n rows from first on, a key's lone row or a range. A run's ids
// ascend, as a range's rows do.
type rowSet struct {
	ids   []int32
	first int32
	n     int32
}

// at is the set's i-th row, for i < n.
func (s *rowSet) at(i int) int32 {
	if s.ids != nil {
		return s.ids[i]
	}
	return s.first + int32(i)
}

// count returns how many rows w — the word slot returned, of a slot of d —
// stands for. Safe without a lock.
func (d *directory) count(w uint64) int {
	if w == 0 {
		return 0
	}
	return int(d.rows(w).n)
}

// runIDs returns the rows of the entry whose room this is (see room): a
// range's, or as many of a run's ids as its length word says now. Safe
// without a lock.
func runIDs(room []int32) rowSet {
	n := atomic.LoadInt32(&room[0])
	if n < 0 {
		return rowSet{first: room[1], n: -n}
	}
	return rowSet{ids: room[1:][:n], n: n}
}

// rows returns the rows w — the word of an occupied slot of d — stands
// for: those the word names itself, when its inlineRow bit is set — the
// count in its high half from its row on in a dense table, its one row in
// a hashed one — or its entry's (runIDs). Safe without a lock; an inline
// word is read with no other load.
func (d *directory) rows(w uint64) rowSet {
	if int32(w) >= 0 { // inlineRow clear
		return runIDs(d.room(uint32(w)))
	}
	return rowSet{first: int32(w) & math.MaxInt32, n: max(int32(w>>d.countShift), 1)}
}

// probe returns the index of key's slot — in a hashed table, of the
// empty slot that ends its probe walk when it has none — or -1 when key
// is beyond a dense table's ends. Writer side.
func (d *directory) probe(key Value) int {
	i := uint32(key-d.base) * d.mul >> d.shift
	if d.dense() {
		if i < uint32(len(d.slots)) {
			return int(i)
		}
		return -1
	}
	mask := uint32(len(d.slots) - 1)
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
	if i >= 0 && d.slots[i] != 0 {
		return i, d
	}
	if i < 0 || !d.dense() && 4*(d.used+1) > 3*len(d.slots) {
		d = d.grown(key)
		i = d.probe(key)
	}
	d.used++
	if int32(key) < d.lo.Load() {
		d.lo.Store(int32(key))
	}
	if int32(key) > d.hi.Load() {
		d.hi.Store(int32(key))
	}
	d.mark(key)
	return i, d
}

// mark sets key's bit in the presence bitmap, if the table has one and
// the key is in its range. Writer side, before the key's slot word is
// stored.
func (d *directory) mark(key Value) {
	if i := uint32(key - d.base); i>>6 < uint32(len(d.bits)) {
		atomic.OrUint64(&d.bits[i>>6], 1<<(i&63))
	}
}

// grown returns a copy of d sized for its keys and key (see sized), the
// arena carried over: the writer goes on extending the same runs through
// the copy, beyond what d's slots and chunk list name.
func (d *directory) grown(key Value) *directory {
	lo, hi := min(Value(d.lo.Load()), key), max(Value(d.hi.Load()), key)
	return d.into(sized(d.used+1, lo, hi, true))
}

// into copies d's keys and their rows into g, an empty table with room for
// them, marking their keys in g's bitmap, and returns g. The arena comes
// along — chunk list, fill mark and tallies — and each word is written
// for g's kind (refWord, inlineWord): a dense table's key is its slot's,
// and its inline word names any number of rows, so a range going into a
// hashed table gets a range entry, reserved here, before g is published.
func (d *directory) into(g *directory) *directory {
	g.used, g.free, g.words, g.abandoned = d.used, d.free, d.words, d.abandoned
	g.chunks.Store(d.chunks.Load())
	for i, w := range d.slots {
		if w == 0 {
			continue
		}
		key := d.key(i, w)
		if w&inlineRow == 0 {
			w = g.refWord(key, uint32(w))
		} else if s := d.rows(w); g.dense() || s.n == 1 {
			w = g.inlineWord(key, s.first, s.n)
		} else {
			ref, entry := g.reserve(1)
			entry[0], entry[1] = -s.n, s.first
			w = slotWord(key, ref)
		}
		g.slots[g.probe(key)] = w
		g.mark(key)
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
// directory): a dense table's inline range whose next row this is takes it
// in place, by one store of its word; a run with room takes it in place; a
// key's lone row, any other inline range, a full run and a range entry
// move, with the row, to a run with room for twice as many; and a larger
// table replaces d when a new key needed a slot d had no room for. Caller
// holds the write lock.
func (st *store) post(col int, d *directory, key Value, row int32) {
	i, in := d.claim(key)
	slot := &in.slots[i]
	w := *slot
	var old rowSet
	if w != 0 {
		old = in.rows(w)
	}
	switch {
	case w == 0:
		atomic.StoreUint64(slot, in.inlineWord(key, row, 1))
	case in.dense() && w&inlineRow != 0 && old.first+old.n == row:
		atomic.StoreUint64(slot, w+1<<32) // one more row in the count
	case old.ids != nil && old.n < runCap(old.n):
		room := in.room(uint32(w))
		room[1+old.n] = row
		atomic.StoreInt32(&room[0], old.n+1)
	default:
		ref, moved := in.reserve(runCap(old.n + 1))
		for j := range int(old.n) {
			moved[1+j] = old.at(j)
		}
		moved[0], moved[1+old.n] = old.n+1, row
		switch {
		case old.ids != nil:
			in.abandoned += 1 + int(old.n)
		case w&inlineRow == 0:
			in.abandoned += 2
		}
		atomic.StoreUint64(slot, in.refWord(key, ref))
	}
	if in != d {
		st.cols[col].Store(in)
	}
}

// eachLive calls fn with each live row in [lo, hi) and its column col, in
// row order. Caller holds the lock.
func (st *store) eachLive(col, lo, hi int, fn func(row int, key Value)) {
	for row := lo; row < hi; row++ {
		if st.deadCnt == 0 || !st.isDeadLocked(row) {
			fn(row, st.valueAt(row, col))
		}
	}
}

// keyTable returns a table of the keys of column col among the store's
// live rows in [lo, hi), the low half of each key's slot word its count of
// them (refWord), and no arena. A first pass finds the keys' range: when it spans at
// most 8/3 slots a row, the table is dense and exactly that span from the
// start, and is rehashed once the keys are counted if there are too few
// of them for it (see sized); otherwise it is hashed and grows as the keys
// come in, every table it grows through made for the whole range, so that
// the last one's bitmap, if it has room for one, covers every key. The
// second pass counts each key's rows. Caller holds the lock.
func (st *store) keyTable(col, lo, hi int) *directory {
	rows, kmin, kmax := 0, Value(math.MaxInt32), Value(math.MinInt32)
	st.eachLive(col, lo, hi, func(_ int, key Value) {
		rows, kmin, kmax = rows+1, min(kmin, key), max(kmax, key)
	})
	d := newDirectory()
	if span := int64(kmax) - int64(kmin) + 1; rows > 0 && 3*span <= 8*int64(rows) {
		d = sized(rows, kmin, kmax, false) // dense: there are no more keys than rows
	} else if rows > 0 {
		d.lo.Store(int32(kmin))
		d.hi.Store(int32(kmax))
	}
	st.eachLive(col, lo, hi, func(_ int, key Value) {
		var i int
		i, d = d.claim(key)
		d.slots[i] = d.refWord(key, uint32(d.slots[i])+1)
	})
	if d.dense() && 3*len(d.slots) > 8*d.used {
		d = d.into(sized(d.used, kmin, kmax, false))
	}
	return d
}

// buildDirectory indexes column col of the store's live rows in [lo, hi)
// (tombstoned rows are left out — the compaction path relies on this). On
// the key table (keyTable), a third pass finds each key's first row and
// whether its rows are contiguous. A key with one row goes in its slot
// word, and so does a dense table's key whose rows are contiguous; every
// entry is then carved out of one exact allocation: a hashed table's key
// whose rows are contiguous gets a range, any other key a run, with room
// by the same rule as a posted one's, which a last pass fills — a run's
// length word counting what it has so far. Caller holds the lock — the write lock for
// a directory of the store's own, the read lock for a window's — and the
// result is private until stored.
func (st *store) buildDirectory(col, lo, hi int) *directory {
	d := st.keyTable(col, lo, hi)
	// first[i] is the first row of slot i's key, -1 before it is seen and
	// -2 once a row of the key lies past first + count: rows ascend, so a
	// key's rows are contiguous exactly when none does.
	first := make([]int32, len(d.slots))
	for i := range first {
		first[i] = -1
	}
	st.eachLive(col, lo, hi, func(row int, key Value) {
		i := d.probe(key)
		switch f := first[i]; {
		case f == -1:
			first[i] = int32(row)
		case f >= 0 && row-int(f) >= int(uint32(d.slots[i])):
			first[i] = -2
		}
	})
	// Counts become references: of a bulk arena, whose chunks are views of
	// one allocation, an entry's reference is its offset in it. A dense
	// table names contiguous rows in the slot word, a hashed one by a range
	// entry unless there is one row.
	total, runs := 1, false // word 0 is no entry's: see reserve
	for i, w := range d.slots {
		switch n := int32(uint32(w)); {
		case n > 1 && first[i] < 0:
			total += 1 + int(runCap(n))
			runs = true
		case n > 1 && !d.dense():
			total += 2
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
	at := 1
	for i, w := range d.slots {
		switch key, n := d.key(i, w), int32(uint32(w)); {
		case w == 0:
		case first[i] >= 0 && (n == 1 || d.dense()):
			d.slots[i] = d.inlineWord(key, first[i], n)
		case first[i] >= 0:
			arena[at], arena[at+1] = -n, first[i]
			d.slots[i] = slotWord(key, uint32(at))
			at += 2
		default:
			d.slots[i] = d.refWord(key, uint32(at))
			at += 1 + int(runCap(n))
		}
	}
	if runs {
		st.eachLive(col, lo, hi, func(row int, key Value) {
			i := d.probe(key)
			if ref := uint32(d.slots[i]); ref&inlineRow == 0 && first[i] < 0 {
				run := arena[ref:]
				run[0]++
				run[run[0]] = int32(row)
			}
		})
	}
	return d
}
