package storage

import "fmt"

// Footprint is the memory a database's storage structures hold, in bytes
// by structure, computed from their lengths and capacities — what was
// allocated for them, slack included — and never from the runtime's
// statistics, so that equal histories report equal numbers. It covers the
// structures whose size grows with the data; the fixed part of a relation
// (shard headers, delta tails bounded at deltaTailBound entries a shard)
// is left out.
type Footprint struct {
	// TupleBlocks is the column blocks and their tombstone bitsets.
	TupleBlocks int64 `json:"tuple_blocks"`
	// DedupTables is the open-addressing tables over row ids.
	DedupTables int64 `json:"dedup_tables"`
	// DirectorySlots is the slot tables of the built posting directories.
	DirectorySlots int64 `json:"directory_slots"`
	// RunArenas is the directories' run arenas, chunk lists included;
	// RunsAbandoned is the part of it held by runs that have since moved
	// to larger room and stay behind for readers (reclaimed when tombstone
	// compaction rebuilds the directory).
	RunArenas     int64 `json:"run_arenas"`
	RunsAbandoned int64 `json:"runs_abandoned"`
	// SymbolText is the symbol table's text chunks; SymbolIndex its spans
	// and lookup index.
	SymbolText  int64 `json:"symbol_text"`
	SymbolIndex int64 `json:"symbol_index"`
}

// Total is the sum over the structures (RunsAbandoned is part of
// RunArenas and not added again).
func (f Footprint) Total() int64 {
	return f.TupleBlocks + f.DedupTables + f.DirectorySlots + f.RunArenas + f.SymbolText + f.SymbolIndex
}

// String renders the footprint on one line, bytes throughout.
func (f Footprint) String() string {
	return fmt.Sprintf("total=%d tuple-blocks=%d dedup-tables=%d directory-slots=%d run-arenas=%d (abandoned=%d) symbol-text=%d symbol-index=%d",
		f.Total(), f.TupleBlocks, f.DedupTables, f.DirectorySlots, f.RunArenas, f.RunsAbandoned, f.SymbolText, f.SymbolIndex)
}

// Sizes of the element types the structures are made of.
const (
	wordBytes   = 4  // Value, int32 row id, uint32 hash
	headerBytes = 24 // a slice header in a chunk or block list
)

// Footprint reports what the database's relations and its symbol table
// hold now. Each shard is read under its lock, one at a time: the report
// is exact for a quiesced database and a sum of per-shard instants beside
// writers.
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
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for b := range sh.blocks {
			f.TupleBlocks += int64(cap(sh.blocks[b]))*wordBytes + int64(cap(sh.dead[b]))*8
		}
		f.TupleBlocks += int64(cap(sh.blocks)+cap(sh.dead)) * headerBytes
		f.DedupTables += int64(cap(sh.slots)+cap(sh.hashes)) * wordBytes
		for c := range sh.cols {
			if d := sh.cols[c].Load(); d != nil {
				f.DirectorySlots += int64(cap(d.slots)) * 8
				f.RunArenas += int64(d.words) * wordBytes
				f.RunsAbandoned += int64(d.abandoned) * wordBytes
				if list := d.chunks.Load(); list != nil {
					f.RunArenas += int64(cap(*list)) * headerBytes
				}
			}
		}
		sh.mu.RUnlock()
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
