package storage

import (
	"sync/atomic"
	"unsafe"
)

// directory is one column's posting index in one shard: a flat
// open-addressing table (linear probing, power-of-two size) from a value
// to the run of row ids holding it, in insertion order. One writer at a
// time — whoever holds the shard's write lock — extends it while any
// number of readers probe it without a lock; see dirSlot for the protocol.
// A key is never removed and a slot never moves: a table that must grow is
// copied into a larger one and that one published in its place
// (shard.cols), the old one staying as it was for the readers still in it.
type directory struct {
	slots []dirSlot
	// used counts occupied slots (the load-factor input); writer only.
	used int
}

// dirSlot holds a key, the published length of its run and the run's
// address side by side, so a probe that finds its key has everything in
// the cache line it already fetched. n == 0 means empty.
//
// The fields are plain words accessed with atomic functions where a
// reader can be looking, not atomic types: a table under construction
// (an index build, the copy made by growth) is private until it is
// published through shard.cols and is filled with ordinary stores — an
// atomic store per slot is a full fence per cache miss there.
//
// Writer: key and run are written before the store of n that makes the
// slot non-empty; an append writes the row id into the run's spare
// capacity — or into a copy twice the size, whose address it then stores —
// and only then stores the longer n. A run's capacity follows from its
// length (runCap) and is not kept.
//
// Reader: loads n, then run (find). The n it got was stored after a run
// address whose array holds that many ids, and every later address holds
// at least as many, so whichever address it then sees covers run[:n].
type dirSlot struct {
	key Value
	n   int32
	run unsafe.Pointer // *int32, the run's first id
}

// ids views the slot's run up to length n. Writer side.
func (s *dirSlot) ids(n int32) []int32 { return unsafe.Slice((*int32)(s.run), n) }

// minDirSlots is the size of the smallest directory.
const minDirSlots = 8

func newDirectory() *directory { return &directory{slots: make([]dirSlot, minDirSlots)} }

// hashValue spreads a column value over a directory. The low bits are
// used: the high bits of the same product route the value to its shard,
// so every ShardColumn key one shard holds has them in common.
func hashValue(v Value) uint32 {
	h := uint32(v) * 2654435761
	return h ^ h>>15
}

// find returns the row ids posted under key, nil when there are none.
// Safe without a lock.
func (d *directory) find(key Value) []int32 {
	mask := uint32(len(d.slots) - 1)
	for i := hashValue(key) & mask; ; i = (i + 1) & mask {
		s := &d.slots[i]
		n := atomic.LoadInt32(&s.n)
		if n == 0 {
			return nil
		}
		if s.key == key {
			return unsafe.Slice((*int32)(atomic.LoadPointer(&s.run)), n)
		}
	}
}

// probe returns the index of key's slot, or of the empty slot that ends
// its probe chain. Writer side.
func (d *directory) probe(key Value) int {
	mask := uint32(len(d.slots) - 1)
	i := hashValue(key) & mask
	for d.slots[i].n != 0 && d.slots[i].key != key {
		i = (i + 1) & mask
	}
	return int(i)
}

// claim returns key's slot, taking an empty one (n == 0, key set) when
// the key is new, and the directory the slot is in: d itself, or the
// larger copy d had to make way for — which the caller publishes if d
// was. Writer side.
func (d *directory) claim(key Value) (*dirSlot, *directory) {
	s := &d.slots[d.probe(key)]
	if s.n == 0 {
		if 4*(d.used+1) > 3*len(d.slots) {
			d = d.grown()
			s = &d.slots[d.probe(key)]
		}
		d.used++
		s.key = key
	}
	return s, d
}

// grown returns a copy of d with twice the slots. The copy shares d's
// runs: the writer goes on appending to them through the copy, beyond
// the lengths d's slots keep.
func (d *directory) grown() *directory {
	g := &directory{slots: make([]dirSlot, 2*len(d.slots)), used: d.used}
	for i := range d.slots {
		if s := &d.slots[i]; s.n != 0 {
			g.slots[g.probe(s.key)] = *s
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

// post appends row to key's run in d, the published directory of column
// col, publishing in turn what a reader could not otherwise reach: a
// larger directory when the key needed a slot d had no room for, a
// larger run when the old one was full. Caller holds the write lock.
func (sh *shard) post(col int, d *directory, key Value, row int32) {
	s, in := d.claim(key)
	if in != d {
		sh.cols[col].Store(in)
	}
	n := s.n
	switch {
	case n == 0:
		run := make([]int32, runCap(1))
		run[0] = row
		s.run = unsafe.Pointer(&run[0])
	case n == runCap(n): // full
		run := make([]int32, 2*n)
		copy(run, s.ids(n))
		run[n] = row
		atomic.StorePointer(&s.run, unsafe.Pointer(&run[0]))
	default:
		s.ids(n + 1)[n] = row
	}
	atomic.StoreInt32(&s.n, n+1)
}

// buildDirectory indexes column col of the shard's live rows (tombstoned
// rows are left out — the compaction path relies on this). It counts
// each key's rows first, so that the table is sized once it stops
// growing and every run is carved out of one allocation. Caller holds the
// write lock; the result is private until stored.
func (sh *shard) buildDirectory(col int) *directory {
	d := newDirectory()
	for row := 0; row < sh.rows; row++ {
		if sh.deadCnt > 0 && sh.isDeadLocked(row) {
			continue
		}
		var s *dirSlot
		s, d = d.claim(sh.valueAt(row, col))
		s.n++
	}
	total := 0
	for i := range d.slots {
		if n := d.slots[i].n; n > 0 {
			total += int(runCap(n))
		}
	}
	arena := make([]int32, total)
	// filled[i] is how much of slot i's run the second pass has written.
	filled := make([]int32, len(d.slots))
	for i := range d.slots {
		if s := &d.slots[i]; s.n > 0 {
			s.run = unsafe.Pointer(&arena[0])
			arena = arena[runCap(s.n):]
		}
	}
	for row := 0; row < sh.rows; row++ {
		if sh.deadCnt > 0 && sh.isDeadLocked(row) {
			continue
		}
		i := d.probe(sh.valueAt(row, col))
		s := &d.slots[i]
		s.ids(s.n)[filled[i]] = int32(row)
		filled[i]++
	}
	return d
}
