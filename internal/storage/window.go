package storage

import (
	"slices"
	"sort"
	"sync"
)

// SignedDelta is DeltaSince's result: the tuples that entered and left
// the relation over the requested span of epochs, netted against the
// current state — a tuple retracted and later re-inserted appears only in
// Added, one inserted and later retracted only in Removed, so applying
// "remove Removed, add Added" to the caller's stale view converges on the
// relation's present tuple set regardless of interleaving.
//
// Added is a window over the relation's own rows (nil when no insert of
// the span is still live): a read-only Relation whose tuples are those
// rows, which nothing copied. Removed is materialized — the rows its
// tuples were read from are tombstoned, and may have left the relation's
// posting directories.
type SignedDelta struct {
	Added   *Relation
	Removed []Tuple
}

// Empty reports whether the delta carries no change.
func (d SignedDelta) Empty() bool { return d.Added == nil && len(d.Removed) == 0 }

// DeltaSince returns the signed delta of mutations accepted with an
// epoch stamp >= epoch. ok is false when the delta cannot be
// reconstructed — the relation is untracked, or its tail evicted entries
// the request needs — in which case the caller must fall back to treating
// the relation as fully changed. Tuples stamped exactly at the requested
// epoch may overlap state the caller already has; replaying them is
// idempotent under set semantics.
//
// Added is the window [lo, hi) of the relation's rows: rows are appended
// and stamped in row order under the relation's lock, so lo is the row of
// the first insert stamped >= epoch, and hi the row count as of this call.
// Its live rows are exactly the netted inserts — one inserted and then
// retracted is a dead row, skipped, and a re-inserted tuple is a fresh row
// at or after lo. The window is sound for as long as nothing tombstones a
// row inside it: a maintenance pass takes Database.HoldRetractions before
// calling DeltaSince and reads the window only until it releases the hold.
// No tombstone, and no directory drop, can land in [lo, hi) in between;
// inserts land at hi or after and stay outside. Beyond the hold the window
// still reads rows live at the instant of reading, but its Len is the
// count at this call.
func (r *Relation) DeltaSince(epoch uint64) (SignedDelta, bool) {
	var out SignedDelta
	if r.db == nil {
		return out, false
	}
	if r.lastMod.Load() < epoch {
		return out, true
	}
	st := r.store
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.tailFloor > epoch {
		return out, false
	}
	since := st.tail[sort.Search(len(st.tail), func(k int) bool { return st.tail[k].epoch >= epoch }):]
	lo, live, dels := -1, 0, 0
	for _, te := range since {
		if te.del {
			dels++
			continue
		}
		if lo < 0 {
			lo = te.row
		}
		if !st.isDeadLocked(te.row) {
			live++
		}
	}
	if live > 0 {
		out.Added = &Relation{arity: r.arity, name: r.name, store: st, win: &window{lo: lo, hi: st.rows}}
		out.Added.count.Store(int64(live))
		// The window may outlive the tail entries that name its rows: no
		// directory build may move them (store.cluster).
		for {
			at := st.fixedFrom.Load()
			if at <= int64(lo) || st.fixedFrom.CompareAndSwap(at, int64(lo)) {
				break
			}
		}
	}
	if dels == 0 {
		return out, true
	}
	arena := make([]Value, dels*r.arity)
	for _, te := range since {
		if !te.del {
			continue
		}
		dst := Tuple(arena[:r.arity:r.arity])
		arena = arena[r.arity:]
		for c := range dst {
			dst[c] = st.valueAt(te.row, c)
		}
		// A retraction whose tuple is live again cancelled out inside the
		// span.
		if st.findLocked(dst, HashTuple(dst)) < 0 {
			out.Removed = append(out.Removed, dst)
		}
	}
	return out, true
}

// window is what makes a Relation a read-only window over another
// relation's rows [lo, hi) (see DeltaSince): it shares that relation's
// store, reports to no Counters, and every write to it panics. Each read
// method dispatches on it once per call, so the base relation's loops do
// not test it per row.
//
// A keyed probe reads the base relation's posting directory for the
// column and narrows the key's rows to [lo, hi): a range — named by a
// dense table's slot word or by an entry — by its ends, a run by binary
// search — a run holds its row ids ascending: they are
// posted in row order, a moved run or range is copied in order, and a
// directory is built in row order. A window
// never builds a directory on its base, which would cost every later
// insert a post; when the column has none it indexes its own rows in a
// private directory.
type window struct {
	lo, hi int
	mu     sync.Mutex
	cols   []*directory
}

// holds reports whether row is one of the window's.
func (w *window) holds(row int) bool { return row >= w.lo && row < w.hi }

// trim returns the part of s inside the window.
func (w *window) trim(s rowSet) rowSet {
	if s.ids == nil {
		from, end := max(int(s.first), w.lo), min(int(s.first)+int(s.n), w.hi)
		return rowSet{first: int32(from), n: int32(max(end-from, 0))}
	}
	i, _ := slices.BinarySearch(s.ids, int32(w.lo))
	j, _ := slices.BinarySearch(s.ids[i:], int32(w.hi))
	return rowSet{ids: s.ids[i : i+j], n: int32(j)}
}

// rows returns the window's rows that the slot word w of d stands for, as
// directory.rows does.
func (w *window) rows(d *directory, word uint64) rowSet {
	if word == 0 {
		return rowSet{}
	}
	return w.trim(d.rows(word))
}

// index returns the directory a probe of column col reads: the base
// store's when it has one, else the window's own, built on first use
// over the window's live rows.
func (w *window) index(st *store, col int) *directory {
	if d := st.cols[col].Load(); d != nil {
		return d
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cols == nil {
		w.cols = make([]*directory, len(st.cols))
	}
	if w.cols[col] == nil {
		st.mu.RLock()
		w.cols[col] = st.buildDirectory(col, w.lo, w.hi)
		st.mu.RUnlock()
	}
	return w.cols[col]
}

// lookupWindow is LookupTally on a window, which counts nothing. With no
// binding it walks the rows lo..hi; otherwise the binding whose value has
// the fewest of the window's rows is walked, and every binding filters
// them, as walk does for a whole relation — a binding whose value has
// none ends the probe.
func (r *Relation) lookupWindow(bindings []Binding, scratch Tuple, yield func(Tuple) bool) {
	win, st := r.win, r.store
	var v storeView
	if len(bindings) == 0 {
		v.resolve(st)
		for row := win.lo; row < win.hi; row++ {
			if v.isDead(row) {
				continue
			}
			v.read(row, scratch)
			if !yield(scratch) {
				return
			}
		}
		return
	}
	var filter []Binding
	if len(bindings) > 1 {
		filter = bindings
	}
	var s rowSet
	by := bindings[0]
	for i, b := range bindings {
		in := win.index(st, b.Col)
		cand := win.rows(in, in.slot(b.Val))
		if cand.n == 0 {
			return
		}
		if i == 0 || cand.n < s.n {
			by, s = b, cand
		}
	}
	v.resolve(st)
rows:
	for i := range int(s.n) {
		if !v.readKeyed(s.at(i), by.Col, by.Val, scratch) {
			continue
		}
		for _, b := range filter {
			if scratch[b.Col] != b.Val {
				continue rows
			}
		}
		if !yield(scratch) {
			return
		}
	}
}

// lookupKeysWindow is LookupKeys on a window: one probe per key, in key
// order, each key's run trimmed to the window once. It counts nothing.
func (r *Relation) lookupKeysWindow(col int, keys []Value, ks *KeyStage, yield func(k int, t Tuple) bool) bool {
	win, st := r.win, r.store
	if len(ks.vals) < r.arity {
		ks.vals = make([]Value, stageRows*r.arity)
	}
	buf := Tuple(ks.vals[:r.arity:r.arity])
	// Every row of the window was published before DeltaSince returned, so
	// one block list, loaded now, has them all.
	var v storeView
	v.resolve(st)
	for k, key := range keys {
		d := win.index(st, col)
		s := win.rows(d, d.slot(key))
		for i := range int(s.n) {
			if v.readKeyed(s.at(i), col, key, buf) && !yield(k, buf) {
				return false
			}
		}
	}
	return true
}

// gatherKeysWindow is GatherKeys on a window: one probe per key, in key
// order, each key's run trimmed to the window. It counts nothing.
func (r *Relation) gatherKeysWindow(col int, outs []int, keys []Value, dst []Value, ends []int) []Value {
	for k, key := range keys {
		dst = r.gatherKeyWindow(col, outs, key, dst)
		ends[k] = len(dst)
	}
	return dst
}

// gatherKeyWindow is GatherKey on a window: the key's run trimmed to the
// window, appended, never returned by value. It counts nothing.
func (r *Relation) gatherKeyWindow(col int, outs []int, key Value, dst []Value) []Value {
	win, st := r.win, r.store
	var v storeView
	v.resolve(st)
	d := win.index(st, col)
	dst, _ = v.appendRows(dst, win.rows(d, d.slot(key)), outs)
	return dst
}
