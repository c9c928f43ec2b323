package storage

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// LookupTally is LookupBuf counting its work in the caller's tally
// instead of the shared Counters (see Tally; nil counts in the Counters)
// — the probe path for evaluator inner loops that hold one buffer and one
// tally per goroutine. It takes no lock and, given a tally, writes no
// memory another goroutine reads.
func (r *Relation) LookupTally(bindings []Binding, buf Tuple, tally *Tally, yield func(Tuple) bool) {
	if r.win != nil {
		r.lookupWindow(bindings, buf[:r.arity], yield)
		return
	}
	scratch := buf[:r.arity]
	if len(bindings) == 0 {
		r.tallyUp(tally, 0, 1, r.scan(scratch, yield))
		return
	}
	// Several bindings: the fewest rows are walked — the most selective
	// column — and every binding filters its rows.
	var filter []Binding
	if len(bindings) > 1 {
		filter = bindings
	}
	st := r.store
	by, d := bindings[0], st.index(bindings[0].Col)
	w := d.slot(by.Val)
	for _, b := range bindings[1:] {
		in := st.index(b.Col)
		if cand := in.slot(b.Val); in.count(cand) < d.count(w) {
			by, d, w = b, in, cand
		}
	}
	// A miss — most probes of an exit relation — reads no row.
	var examined int64
	if w != 0 {
		examined = st.walk(d, w, by, filter, scratch, yield)
	}
	r.tallyUp(tally, 1, 0, examined)
}

// tallyUp records one call's probes, scans and examined tuples: in tally
// when it stands in for the relation's Counters, else in the Counters.
func (r *Relation) tallyUp(tally *Tally, probes, scans, examined int64) {
	switch {
	case r.stats == nil:
	case tally != nil && tally.into == r.stats:
		tally.n.IndexLookups += probes
		tally.n.FullScans += scans
		tally.n.TuplesExamined += examined
	default:
		// A call probes or scans, never both, and a probe that misses
		// examines nothing: skip the zero adds.
		if probes > 0 {
			atomic.AddInt64(&r.stats.IndexLookups, probes)
		}
		if scans > 0 {
			atomic.AddInt64(&r.stats.FullScans, scans)
		}
		if examined > 0 {
			atomic.AddInt64(&r.stats.TuplesExamined, examined)
		}
	}
}

// walk yields, through scratch, the live rows that w stands for — the
// word of by.Val's occupied slot in d, column by.Col's directory — and
// that satisfy every binding of filter, until yield stops it, returning
// the number of live rows it read. It takes no lock; the block list is loaded
// here, after the slot (see store). The key is filled in per row, because
// yield may reuse the buffer for a nested probe.
func (st *store) walk(d *directory, w uint64, by Binding, filter []Binding, scratch Tuple, yield func(Tuple) bool) (examined int64) {
	s := d.rows(w)
	var v storeView
	v.resolve(st)
rows:
	for i := range int(s.n) {
		if !v.readKeyed(s.at(i), by.Col, by.Val, scratch) {
			continue
		}
		examined++
		for _, b := range filter {
			if scratch[b.Col] != b.Val {
				continue rows
			}
		}
		if !yield(scratch) {
			return examined
		}
	}
	return examined
}

// Sizes of a staged probe (LookupKeys): sixteen independent misses are
// about what a core keeps in flight, and four rows a probe is more than
// the graphs served fan out.
const (
	stageProbes = 16
	stageRows   = 64
)

// stageHook, nil outside tests, runs in every stage of LookupKeys and
// GatherKeys between the stage's slot loads and its entries' loads: a
// test's writer put there shows whether the block list is loaded after
// the entries, as it must be (see store).
var stageHook func()

// KeyStage is the scratch of LookupKeys and GatherKeys, owned by the
// caller — one per goroutine, reused from call to call, so that a call
// neither allocates nor clears it. The zero value is ready to use.
type KeyStage struct {
	// Per probe of the stage: its rows — until its entry is read, ids is
	// the entry's room — and where they end among those gathered. The
	// probe's key is keys[k+p] for the stage's first key k.
	rows [stageProbes]rowSet
	end  [stageProbes]int32
	// Per gathered row: its id, then — once read — the ordinal of its key
	// and its values in vals (arity apiece).
	id   [stageRows]int32
	of   [stageRows]int32
	vals []Value
}

// LookupKeys is one single-binding LookupTally of column col per key, in
// key order — yield receives the key's ordinal with each tuple, the same
// tuples in the same order — with the probes' cache misses overlapped. A
// probe is a chain of dependent loads — the directory slot, its arena
// entry unless the slot word names the rows itself (a lone row, or a dense
// table's range), the block row — each a miss on a relation larger than
// the cache; the keys are independent, so the probes go in stages of
// stageProbes keys: every directory slot, then every entry, then the rows
// named, stageRows at a time, and only then the yields. It reports false when yield stopped it.
//
// The counts of a call that runs to its end are those of the lookups it
// stands for; a call yield stops has counted the whole stage it stopped
// in, up to stageProbes probes and stageRows rows beyond the serial loop,
// never fewer. A yielded tuple is valid until yield returns, and was live
// when its row was read — at some instant during the call, not
// necessarily at its yield.
func (r *Relation) LookupKeys(col int, keys []Value, ks *KeyStage, tally *Tally, yield func(k int, t Tuple) bool) (more bool) {
	if r.win != nil {
		return r.lookupKeysWindow(col, keys, ks, yield)
	}
	arity := r.arity
	if len(ks.vals) < stageRows*arity {
		ks.vals = make([]Value, stageRows*arity)
	}
	st := r.store
	var probes, examined int64
	more = true
	for k := 0; k < len(keys) && more; {
		// Directory slots: every probe of the stage finds its rows in the
		// slot word, or where its entry is; then the entries. All of them
		// are loaded before the block list (see store).
		stage := keys[k:min(k+stageProbes, len(keys))]
		d, unread := st.index(col), uint32(0)
		for p, key := range stage {
			switch w := d.slot(key); {
			case w == 0:
				ks.rows[p] = rowSet{}
			case w&inlineRow != 0:
				ks.rows[p] = d.rows(w) // no entry: the rows are in the word
			default:
				ks.rows[p] = rowSet{ids: d.room(uint32(w))}
				unread |= 1 << p
			}
		}
		probes += int64(len(stage))
		if stageHook != nil {
			stageHook()
		}
		for ; unread != 0; unread &= unread - 1 {
			p := bits.TrailingZeros32(unread)
			ks.rows[p] = runIDs(ks.rows[p].ids)
		}
		var v storeView
		for p, at := 0, 0; p < len(stage) && more; {
			// Runs: the ids of the rows to read, while the buffer has room;
			// end[q] closes probe q's share of it.
			n, from := 0, p
			for p < len(stage) && n < stageRows {
				s := &ks.rows[p]
				for ; at < int(s.n) && n < stageRows; at, n = at+1, n+1 {
					ks.id[n] = s.at(at)
				}
				ks.end[p] = int32(n)
				if at < int(s.n) {
					break
				}
				p, at = p+1, 0
			}
			// Rows: read into the buffer, closing up over tombstoned ones.
			if n > 0 && v.blocks == nil {
				v.resolve(st)
			}
			live := 0
			for q, i := from, 0; i < n; q++ {
				for ord := int32(k + q); i < int(ks.end[q]); i++ {
					if v.readKeyed(ks.id[i], col, keys[ord], ks.vals[live*arity:(live+1)*arity]) {
						ks.of[live] = ord
						live++
					}
				}
			}
			examined += int64(live)
			for i := 0; i < live && more; i++ {
				more = yield(int(ks.of[i]), ks.vals[i*arity:(i+1)*arity:(i+1)*arity])
			}
		}
		k += len(stage)
	}
	r.tallyUp(tally, probes, 0, examined)
	return more
}

// GatherKeys is LookupKeys for a caller that wants only some columns of
// the rows and no callback: for each key, in key order, and each of its
// live rows, in order, it appends the row's columns outs to dst, and it
// sets ends[k] to len(dst) after key k's rows (len(ends) >= len(keys)).
// It returns the grown dst. The stages are LookupKeys's — every directory
// slot of a stage, then every entry, then the block list once, then the
// rows — but the rows are read straight into dst (appendRows): no row id
// is copied out and nothing is yielded. A lone key has nothing to overlap:
// GatherKey reads it. Its counts are those of LookupKeys run to its end,
// one probe per key and every live row examined. A gathered row was live
// at some instant during the call.
func (r *Relation) GatherKeys(col int, outs []int, keys []Value, ks *KeyStage, tally *Tally, dst []Value, ends []int) []Value {
	if r.win != nil {
		return r.gatherKeysWindow(col, outs, keys, dst, ends)
	}
	st := r.store
	var probes, examined int64
	for k := 0; k < len(keys); k += stageProbes {
		stage := keys[k:min(k+stageProbes, len(keys))]
		d, unread, hit := st.index(col), uint32(0), false
		for p, key := range stage {
			switch w := d.slot(key); {
			case w == 0:
				ks.rows[p] = rowSet{}
			case w&inlineRow != 0:
				ks.rows[p] = d.rows(w) // no entry: the rows are in the word
				hit = true
			default:
				ks.rows[p] = rowSet{ids: d.room(uint32(w))}
				unread |= 1 << p
				hit = true
			}
		}
		probes += int64(len(stage))
		if stageHook != nil {
			stageHook()
		}
		for ; unread != 0; unread &= unread - 1 {
			p := bits.TrailingZeros32(unread)
			ks.rows[p] = runIDs(ks.rows[p].ids)
		}
		// Every slot and entry of the stage is loaded: now the block list.
		var v storeView
		if hit {
			v.resolve(st)
		}
		for p := range stage {
			switch s := &ks.rows[p]; {
			case s.n == 0:
			case s.ids == nil && v.dead == nil && len(outs) == 1 && int(s.first)&blockMask+int(s.n) <= blockRows:
				// A range in one block, one column wanted, no tombstone —
				// a clustered key's successors, most keys of a wide level
				// — is one slice of the block, appended here: a call to
				// appendRows a key cost a wide level about a tenth.
				row := int(s.first)
				dst = append(dst, v.blocks[row>>blockShift][outs[0]<<blockShift|row&blockMask:][:s.n]...)
				examined += int64(s.n)
			default:
				var n int64
				dst, n = v.appendRows(dst, *s, outs)
				examined += n
			}
			ends[k+p] = len(dst)
		}
	}
	r.tallyUp(tally, probes, 0, examined)
	return dst
}

// GatherKey is GatherKeys of one key, which has nothing to stage: the
// key's slot word, then the block list, then its rows. When one column is
// wanted and the word names the key's one row, live — every level of a
// chain — it returns that row's column by value, one true and dst as it
// was: no append, and nothing for the caller to walk. Otherwise it appends
// the columns outs of each of the key's live rows to dst, as GatherKeys
// does, and returns the grown dst, one false. Either way its counts are
// GatherKeys' over the one key: one probe, every live row examined.
func (r *Relation) GatherKey(col int, outs []int, key Value, tally *Tally, dst []Value) (val Value, one bool, grown []Value) {
	if r.win != nil {
		return 0, false, r.gatherKeyWindow(col, outs, key, dst)
	}
	st := r.store
	d := st.index(col)
	w := d.slot(key)
	if w == 0 {
		r.tallyUp(tally, 1, 0, 0)
		return 0, false, dst
	}
	s := d.rows(w)
	var v storeView
	v.resolve(st)
	if row := int(s.first); s.n == 1 && w&inlineRow != 0 && len(outs) == 1 && !v.isDead(row) {
		// The key's one row is in its slot word: its column is read
		// straight off the block.
		r.tallyUp(tally, 1, 0, 1)
		return v.blocks[row>>blockShift][outs[0]<<blockShift|row&blockMask], true, dst
	}
	dst, examined := v.appendRows(dst, s, outs)
	r.tallyUp(tally, 1, 0, examined)
	return 0, false, dst
}

// appendRows appends to dst the columns outs of each live row of s, and
// reports how many rows it appended. dst grows once; then each column is
// copied on its own — the probed column too, whose value in the block is
// the key the rows are posted under: of a range, as one slice of each
// block the range crosses, and of a run one load and one store a row. Only
// a view with tombstones then closes up over the dead rows. Every gather
// reads its rows through here, but for a lone key's one row held in its
// slot word, whose one wanted column GatherKey returns by value, and a
// stage's range in one block of which one column is wanted (GatherKeys).
func (v *storeView) appendRows(dst []Value, s rowSet, outs []int) ([]Value, int64) {
	n := int(s.n)
	if n == 0 {
		return dst, 0
	}
	at, width := len(dst), len(outs)
	dst = slices.Grow(dst, n*width)[:at+n*width]
	rows := dst[at:]
	if s.ids == nil {
		for i := 0; i < n; {
			row := int(s.first) + i
			blk, off := v.blocks[row>>blockShift], row&blockMask
			m := min(n-i, blockRows-off)
			for j, c := range outs {
				col := rows[i*width+j:]
				for k, x := range blk[c<<blockShift|off:][:m] {
					col[k*width] = x
				}
			}
			i += m
		}
	} else {
		for j, c := range outs {
			off, col := c<<blockShift, rows[j:]
			for i, row := range s.ids {
				col[i*width] = v.blocks[row>>blockShift][off+int(row&blockMask)]
			}
		}
	}
	if v.dead == nil {
		return dst, int64(n)
	}
	live := 0
	for i := range n {
		if !v.isDead(int(s.at(i))) {
			copy(rows[live*width:(live+1)*width], rows[i*width:(i+1)*width])
			live++
		}
	}
	return dst[:at+live*width], int64(live)
}
