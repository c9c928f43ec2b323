package storage

import (
	"encoding/json"
	"fmt"
)

// Footprint is the memory a database's storage structures hold, in bytes
// by structure, computed from their lengths and capacities — what was
// allocated for them, slack included — and never from the runtime's
// statistics, so that equal histories report equal numbers. It covers the
// structures whose size grows with the data; the fixed part of a relation
// (its header, and a delta tail bounded at deltaTailBound entries) is
// left out.
type Footprint struct {
	// TupleBlocks is the column blocks and their tombstone bitsets.
	TupleBlocks int64 `json:"tuple_blocks"`
	// DeadRows counts rows, not bytes: the tombstoned rows the blocks
	// still hold. A retraction tombstones its row and a re-insert appends
	// a fresh one, so under insert/retract churn it grows with every
	// retraction while the live set stays flat.
	DeadRows int64 `json:"dead_rows"`
	// DedupTables is the open-addressing tables over row ids.
	DedupTables int64 `json:"dedup_tables"`
	// DirectorySlots is the slot tables of the built posting directories,
	// DirectoryBitmaps the presence bitmaps of those that hash (see
	// directory).
	DirectorySlots   int64 `json:"directory_slots"`
	DirectoryBitmaps int64 `json:"directory_bitmaps"`
	// DirectoryKeys counts keys, not bytes: the distinct values the built
	// directories index, summed over the columns. DenseDirectories counts
	// the built directories that address their slots by value (see
	// directory); the rest hash.
	DirectoryKeys    int64 `json:"directory_keys"`
	DenseDirectories int64 `json:"dense_directories"`
	// RunArenas is the directories' arenas of runs and of hashed tables'
	// range entries, chunk lists included (a dense table names a range in
	// its slot word, a lone row either kind); RunsAbandoned is the part of
	// it held by entries that have since moved to a larger run and stay
	// behind for readers (reclaimed when tombstone compaction rebuilds the
	// directory).
	RunArenas     int64 `json:"run_arenas"`
	RunsAbandoned int64 `json:"runs_abandoned"`
	// SymbolText is the symbol table's text chunks; SymbolIndex its spans
	// and lookup index.
	SymbolText  int64 `json:"symbol_text"`
	SymbolIndex int64 `json:"symbol_index"`
}

// Total is the sum over the structures (RunsAbandoned is part of
// RunArenas and not added again; DeadRows, DirectoryKeys and
// DenseDirectories are counts).
func (f Footprint) Total() int64 {
	return f.TupleBlocks + f.DedupTables + f.DirectorySlots + f.DirectoryBitmaps + f.RunArenas + f.SymbolText + f.SymbolIndex
}

// DirectoryBytesPerKey is what an indexed key costs, slots, bitmaps and
// runs together: (DirectorySlots + DirectoryBitmaps + RunArenas) /
// DirectoryKeys, 0 with no key.
func (f Footprint) DirectoryBytesPerKey() float64 {
	if f.DirectoryKeys == 0 {
		return 0
	}
	return float64(f.DirectorySlots+f.DirectoryBitmaps+f.RunArenas) / float64(f.DirectoryKeys)
}

// String renders the footprint on one line, bytes throughout but for the
// counts in parentheses.
func (f Footprint) String() string {
	return fmt.Sprintf("total=%d tuple-blocks=%d (dead-rows=%d) dedup-tables=%d directory-slots=%d (keys=%d dense-directories=%d bytes-per-key=%.1f) directory-bitmaps=%d run-arenas=%d (abandoned=%d) symbol-text=%d symbol-index=%d",
		f.Total(), f.TupleBlocks, f.DeadRows, f.DedupTables, f.DirectorySlots, f.DirectoryKeys, f.DenseDirectories, f.DirectoryBytesPerKey(), f.DirectoryBitmaps, f.RunArenas, f.RunsAbandoned, f.SymbolText, f.SymbolIndex)
}

// MarshalJSON adds directory_bytes_per_key to the fields.
func (f Footprint) MarshalJSON() ([]byte, error) {
	type fields Footprint
	return json.Marshal(struct {
		fields
		DirectoryBytesPerKey float64 `json:"directory_bytes_per_key"`
	}{fields(f), f.DirectoryBytesPerKey()})
}

// Sizes of the element types the structures are made of.
const (
	wordBytes   = 4  // Value, int32 row id, uint32 hash
	headerBytes = 24 // a slice header in a chunk or block list
)

// Footprint reports what the database's relations and its symbol table
// hold now. Each relation is read under its lock, one at a time: the
// report is exact for a quiesced database and a sum of per-relation
// instants beside writers.
func (db *Database) Footprint() Footprint {
	db.mu.RLock()
	rels := make([]*Relation, 0, len(db.rels))
	for _, r := range db.rels {
		rels = append(rels, r)
	}
	db.mu.RUnlock()
	var f Footprint
	for _, r := range rels {
		r.footprint(&f)
	}
	f.SymbolText, f.SymbolIndex = db.Syms.footprint()
	return f
}

// footprint adds the relation's structures to f.
func (r *Relation) footprint(f *Footprint) {
	st := r.store
	st.mu.RLock()
	defer st.mu.RUnlock()
	for b := range st.blocks {
		f.TupleBlocks += int64(cap(st.blocks[b]))*wordBytes + int64(cap(st.dead[b]))*8
	}
	f.TupleBlocks += int64(cap(st.blocks)+cap(st.dead)) * headerBytes
	f.DeadRows += int64(st.deadCnt)
	f.DedupTables += int64(cap(st.slots)+cap(st.hashes)) * wordBytes
	for c := range st.cols {
		if d := st.cols[c].Load(); d != nil {
			f.DirectorySlots += int64(cap(d.slots)) * 8
			f.DirectoryBitmaps += int64(cap(d.bits)) * 8
			f.DirectoryKeys += int64(d.used)
			if d.dense() {
				f.DenseDirectories++
			}
			f.RunArenas += int64(d.words) * wordBytes
			f.RunsAbandoned += int64(d.abandoned) * wordBytes
			if list := d.chunks.Load(); list != nil {
				f.RunArenas += int64(cap(*list)) * headerBytes
			}
		}
	}
}

// footprint returns the bytes of the table's text chunks, and of its spans
// and lookup index.
func (st *SymbolTable) footprint() (text, index int64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	text = int64(st.text) + int64(cap(st.chunks))*16
	index = int64(cap(st.spans))*8 + int64(cap(st.slots)+cap(st.hashes))*wordBytes
	return text, index
}
