package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// dirRows is what directory d holds under key, copied out.
func dirRows(t *testing.T, d *directory, key Value) []int32 {
	t.Helper()
	w := d.slot(key)
	if w == 0 {
		if d.count(w) != 0 {
			t.Fatalf("key %d: no slot, count %d", key, d.count(w))
		}
		return nil
	}
	var lone [1]int32
	rows := slices.Clone(d.rows(w, &lone))
	if d.count(w) != len(rows) {
		t.Fatalf("key %d: count %d, %d rows", key, d.count(w), len(rows))
	}
	return rows
}

// TestDirectoryAgainstModel runs one seeded history through two
// single-shard relations — one whose column-0 directory exists from the
// start, so that every row is posted into it, one that builds it in bulk
// from the rows — and checks both directories, key by key, against a
// map[Value][]int32 of row ids in insertion order. The history has key 0
// (the slot word's key half is zero), keys stopping at every row count from
// 1 to 70 (in the slot, then a run, then the run moving at every runCap
// boundary), one key with more rows than a chunk has words, and a few
// thousand keys of small random fan-out; then most of it is retracted, so
// that tombstone compaction drops the directories and both rebuild from the
// live rows, and the history goes on over the rebuilt ones.
func TestDirectoryAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const long = Value(1_000_000)
	var plan []Value
	for k := Value(0); k < 70; k++ {
		for j := Value(0); j <= k; j++ {
			plan = append(plan, k) // key k: k+1 rows
		}
	}
	for j := 0; j < 1<<chunkShift+100; j++ {
		plan = append(plan, long)
	}
	for k := Value(100); k < 4100; k++ {
		for j := rng.Intn(6); j >= 0; j-- {
			plan = append(plan, k)
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })

	posted, bulk := NewRelation(2, nil), NewRelation(2, nil)
	posted.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true }) // an empty directory
	model := make(map[Value][]int32)
	dir := func(r *Relation) *directory { return r.shards[0].index(0) }
	check := func(when string, r *Relation, keys ...Value) {
		t.Helper()
		d := dir(r)
		for _, k := range keys {
			if got := dirRows(t, d, k); !slices.Equal(got, model[k]) {
				t.Fatalf("%s: key %d holds %d rows %v…, model %d rows %v…", when, k, len(got), head(got), len(model[k]), head(model[k]))
			}
		}
	}
	rows := 0
	insert := func(k Value) {
		tup := Tuple{k, Value(rows)}
		if !posted.Insert(tup) || !bulk.Insert(tup) {
			t.Fatalf("insert of %v refused", tup)
		}
		model[k] = append(model[k], int32(rows))
		rows++
	}
	for _, k := range plan {
		insert(k)
		if n := len(model[k]); k != long || n&(n-1) == 0 || (n-1)&(n-2) == 0 { // the long key around its boundaries only
			check("posted", posted, k)
		}
	}
	keys := make([]Value, 0, len(model)+2)
	for k := range model {
		keys = append(keys, k)
	}
	keys = append(keys, 99, long+1) // never inserted
	check("posted, at the end", posted, keys...)
	if dir(bulk) == nil || bulk.shards[0].cols[0].Load().abandoned != 0 {
		t.Fatal("a bulk build abandoned runs")
	}
	check("built in bulk", bulk, keys...)
	for name, r := range map[string]*Relation{"posted": posted, "bulk": bulk} {
		d := dir(r)
		if chunks := len(*d.chunks.Load()); chunks < 2 {
			t.Fatalf("test premise: the %s arena has %d chunks", name, chunks)
		}
	}
	if posted.shards[0].cols[0].Load().abandoned == 0 {
		t.Fatal("test premise: posting moved no run")
	}

	// Retract three rows in four: past the compaction threshold on the
	// way, so the directories are dropped and rebuilt from the live rows.
	clear(model)
	for row, k := range plan {
		if row%4 == 0 {
			model[k] = append(model[k], int32(row))
		} else if tup := (Tuple{k, Value(row)}); !posted.Retract(tup) || !bulk.Retract(tup) {
			t.Fatalf("retract of %v refused", tup)
		}
	}
	for _, r := range []*Relation{posted, bulk} {
		if r.shards[0].cols[0].Load() != nil {
			t.Fatal("test premise: the retractions dropped no directory")
		}
	}
	check("posted, rebuilt", posted, keys...)
	check("bulk, rebuilt", bulk, keys...)
	// The rebuilt arenas are exact: the next run posted starts a chunk.
	for i := 0; i < 3000; i++ {
		insert(keys[rng.Intn(len(keys))])
	}
	check("posted on the rebuilt directory", posted, keys...)
	check("bulk, posted on the rebuilt directory", bulk, keys...)

	// And through the front door: Lookup yields the live rows in the
	// directory's order.
	for _, k := range keys {
		var got []int32
		posted.Lookup([]Binding{{Col: 0, Val: k}}, func(tup Tuple) bool {
			if tup[0] != k {
				t.Fatalf("lookup of %d yielded %v", k, tup)
			}
			got = append(got, int32(tup[1]))
			return true
		})
		if !slices.Equal(got, model[k]) {
			t.Fatalf("lookup of %d yielded rows %v…, model %v…", k, head(got), head(model[k]))
		}
	}
}

// head is the first few of ids, for messages.
func head(ids []int32) []int32 { return ids[:min(len(ids), 8)] }

// TestDirectoryReachIsAPanic: a reference cannot name a chunk past
// maxChunks, and reserving one says so instead of wrapping around.
func TestDirectoryReachIsAPanic(t *testing.T) {
	d := newDirectory()
	list := make([][]int32, maxChunks)
	d.chunks.Store(&list)
	defer func() {
		if got := fmt.Sprint(recover()); got != arenaFull {
			t.Fatalf("recovered %q, want the arena's limit", got)
		}
	}()
	d.reserve(2)
}

// TestLoneRowProbeDoesNotAllocate: a key whose one row is in its slot is
// handed to the probe loops by value. (A view of the slot word that
// travelled with the word would point into itself and go to the heap,
// once per probe: the level loop's allocation budget catches that end to
// end, this catches it here.)
func TestLoneRowProbeDoesNotAllocate(t *testing.T) {
	db := NewDatabase()
	rel := db.Ensure("a", 2)
	for i := 0; i < 1000; i++ {
		rel.Insert(Tuple{Value(i), Value(i + 1)})
	}
	buf, bind, tally := make(Tuple, 2), make([]Binding, 1), db.Stats.Tally()
	var st KeyStage
	keys := make([]Value, 40)
	for i := range keys {
		keys[i] = Value(i * 7)
	}
	found := 0
	yield := func(Tuple) bool { found++; return true }
	yieldK := func(int, Tuple) bool { found++; return true }
	rel.LookupKeys(0, keys, &st, &tally, yieldK) // builds the directory, sizes the stage
	allocs := testing.AllocsPerRun(20, func() {
		for _, k := range keys {
			bind[0] = Binding{Col: 0, Val: k}
			rel.LookupTally(bind, buf, &tally, yield)
		}
		rel.LookupKeys(0, keys, &st, &tally, yieldK)
	})
	tally.Flush()
	if allocs != 0 || found != (1+21*2)*len(keys) {
		t.Fatalf("%v allocations a pass over %d lone-row keys, %d rows found", allocs, len(keys), found)
	}
}

// TestDirectoryBytesPerKey pins what a key costs in a posting directory
// built in bulk, by Footprint, at the slot table's worst load — 3/8, the
// table having just doubled: a column of unique keys (a slot apiece, the
// row in it) and one of fan-out four (a slot, and a run of a length word
// and four ids). The 16-byte slot and separately allocated runs this
// layout replaced cost 51 and 59 bytes.
func TestDirectoryBytesPerKey(t *testing.T) {
	const keys = 3<<15 + 1 // one past 3/4 of 2^17 slots
	for _, c := range []struct {
		fanout int
		budget float64
	}{{1, 22}, {4, 44}} {
		db := NewDatabase()
		db.SetShards(1)
		rel := db.Ensure("a", 2)
		batch := make([]Tuple, 0, keys*c.fanout)
		for k := 0; k < keys; k++ {
			for j := 0; j < c.fanout; j++ {
				batch = append(batch, Tuple{Value(k), Value(j)})
			}
		}
		rel.InsertBatch(batch)
		before := db.Footprint()
		rel.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
		f := db.Footprint()
		if before.DirectorySlots+before.RunArenas != 0 || f.RunsAbandoned != 0 {
			t.Fatalf("fan-out %d: %d directory bytes before any lookup, %d abandoned after", c.fanout, before.DirectorySlots+before.RunArenas, f.RunsAbandoned)
		}
		if slots := f.DirectorySlots / 8; slots != 1<<18 {
			t.Fatalf("test premise: %d keys in %d slots is not the worst load", keys, slots)
		}
		perKey := float64(f.DirectorySlots+f.RunArenas) / keys
		t.Logf("fan-out %d: %.1f B/key (%d slot bytes, %d arena bytes)", c.fanout, perKey, f.DirectorySlots, f.RunArenas)
		if perKey > c.budget {
			t.Errorf("fan-out %d: %.1f bytes a key, budget %v", c.fanout, perKey, c.budget)
		}
	}
}

// TestFootprintCountsWhatIsThere checks Footprint against sizes worked out
// by hand on a small database, and that it is a function of the history.
func TestFootprintCountsWhatIsThere(t *testing.T) {
	build := func() *Database {
		db := NewDatabase()
		db.SetShards(1)
		for i := 0; i < 10; i++ {
			db.AddFact("e", fmt.Sprintf("n%d", i/2), fmt.Sprintf("n%d", i+1))
		}
		db.Ensure("e", 2).Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
		db.AddFact("e", "n0", "n9") // n0's run of two moves to room for four
		return db
	}
	f := build().Footprint()
	want := Footprint{
		TupleBlocks:    2*blockRows*4 + deadWords*8 + 2*headerBytes, // one block of two columns, its bitset, two list entries
		DedupTables:    16 * 8,                                      // the smallest table
		DirectorySlots: 8 * 8,                                       // five keys in the smallest table
		RunArenas:      (16+16)*4 + 2*headerBytes,                   // 1 + 5×3 words filled the first chunk; a second for the moved run
		RunsAbandoned:  3 * 4,
		SymbolText:     256 + 16, // one text chunk, one list entry
		SymbolIndex:    16*8 + 16*8,
	}
	if f != want {
		t.Fatalf("footprint\n got %+v\nwant %+v", f, want)
	}
	if again := build().Footprint(); again != f {
		t.Fatalf("the same history reported %+v, then %+v", f, again)
	}
	if f.Total() != f.TupleBlocks+f.DedupTables+f.DirectorySlots+f.RunArenas+f.SymbolText+f.SymbolIndex {
		t.Fatalf("total %d", f.Total())
	}
}
