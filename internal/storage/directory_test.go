package storage

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	s := d.rows(w)
	rows := make([]int32, s.n)
	for i := range rows {
		rows[i] = s.at(i)
	}
	if d.count(w) != len(rows) {
		t.Fatalf("key %d: count %d, %d rows", key, d.count(w), len(rows))
	}
	return rows
}

// TestDirectoryAgainstModel runs one seeded history through two
// relations — one whose column-0 directory exists from the
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
	dir := func(r *Relation) *directory { return r.store.index(0) }
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
	if dir(bulk) == nil || bulk.store.cols[0].Load().abandoned != 0 {
		t.Fatal("a bulk build abandoned runs")
	}
	check("built in bulk", bulk, keys...)
	for name, r := range map[string]*Relation{"posted": posted, "bulk": bulk} {
		d := dir(r)
		if chunks := len(*d.chunks.Load()); chunks < 2 {
			t.Fatalf("test premise: the %s arena has %d chunks", name, chunks)
		}
	}
	if posted.store.cols[0].Load().abandoned == 0 {
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
		if r.store.cols[0].Load() != nil {
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
// built in bulk, by Footprint, for a column of unique keys (a slot apiece,
// the row in it) and one of fan-out four, inserted key by key (a slot and
// a two-word range entry hashed; dense, the slot alone, naming the four
// rows), in both kinds of table. Keys three apart span more
// than 8/3 slots a key, so they are hashed, and there are as many as puts
// the table at its worst load — 3/8, having just doubled. Keys 0, 1, 2, …
// are dense and cost no more: their table is their span, a slot a key.
// The 16-byte slot and separately allocated runs this layout replaced
// cost 51 and 59 bytes a key hashed.
func TestDirectoryBytesPerKey(t *testing.T) {
	const keys = 3<<15 + 1 // one past 3/4 of 2^17 slots
	for _, c := range []struct {
		stride, fanout int
		slots          int64
		budget         float64
	}{
		{3, 1, 1 << 18, 22}, {3, 4, 1 << 18, 44},
		{1, 1, keys, 9}, {1, 4, keys, 29},
	} {
		db := NewDatabase()
		rel := db.Ensure("a", 2)
		batch := make([]Tuple, 0, keys*c.fanout)
		for k := 0; k < keys; k++ {
			for j := 0; j < c.fanout; j++ {
				batch = append(batch, Tuple{Value(k * c.stride), Value(j)})
			}
		}
		rel.InsertBatch(batch)
		before := db.Footprint()
		rel.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
		f := db.Footprint()
		name := fmt.Sprintf("stride %d, fan-out %d", c.stride, c.fanout)
		if before.DirectorySlots+before.RunArenas != 0 || f.RunsAbandoned != 0 {
			t.Fatalf("%s: %d directory bytes before any lookup, %d abandoned after", name, before.DirectorySlots+before.RunArenas, f.RunsAbandoned)
		}
		if dense := c.stride == 1; f.DirectorySlots/8 != c.slots || f.DirectoryKeys != keys || (f.DenseDirectories == 1) != dense {
			t.Fatalf("test premise: %d keys in %d slots (%d dense), want %d slots, dense %v", f.DirectoryKeys, f.DirectorySlots/8, f.DenseDirectories, c.slots, dense)
		}
		perKey := f.DirectoryBytesPerKey()
		t.Logf("%s: %.1f B/key (%d slot bytes, %d bitmap bytes, %d arena bytes)", name, perKey, f.DirectorySlots, f.DirectoryBitmaps, f.RunArenas)
		if perKey > c.budget {
			t.Errorf("%s: %.1f bytes a key, budget %v", name, perKey, c.budget)
		}
	}
}

// TestFootprintCountsWhatIsThere checks Footprint against sizes worked out
// by hand on a small database, and that it is a function of the history.
func TestFootprintCountsWhatIsThere(t *testing.T) {
	build := func() *Database {
		db := NewDatabase()
		for i := 0; i < 10; i++ {
			db.AddFact("e", fmt.Sprintf("n%d", i/2), fmt.Sprintf("n%d", i+1))
		}
		db.Ensure("e", 2).Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
		db.AddFact("e", "n0", "n9") // n0's range of two, in its slot word, moves to a run with room for four
		return db
	}
	f := build().Footprint()
	want := Footprint{
		TupleBlocks:      2*blockRows*4 + deadWords*8 + 2*headerBytes, // one block of two columns, its bitset, two list entries
		DedupTables:      16 * 8,                                      // the smallest table
		DirectorySlots:   5 * 8,                                       // keys n0…n4 are Values 0…4: a dense table, a slot each
		DirectoryKeys:    5,
		DenseDirectories: 1,
		RunArenas:        16*4 + headerBytes, // each key's two rows are contiguous, a range in its slot word: no arena until n0's run, in a first chunk of 16 words
		SymbolText:       256 + 16,           // one text chunk, one list entry
		SymbolIndex:      16*8 + 16*8,
	}
	if f != want {
		t.Fatalf("footprint\n got %+v\nwant %+v", f, want)
	}
	// (40 slot bytes + 88 arena bytes) / 5 keys, in the line and the JSON.
	if perKey := "25.6"; !strings.Contains(f.String(), "keys=5 dense-directories=1 bytes-per-key="+perKey) {
		t.Fatalf("String() = %s, want 5 keys, 1 dense directory, %s B/key", f, perKey)
	} else if js, err := json.Marshal(f); err != nil || !strings.Contains(string(js), `"directory_keys":5,"dense_directories":1,`) || !strings.Contains(string(js), `"directory_bytes_per_key":`+perKey) {
		t.Fatalf("JSON %s (%v)", js, err)
	}
	if again := build().Footprint(); again != f {
		t.Fatalf("the same history reported %+v, then %+v", f, again)
	}
	if f.Total() != f.TupleBlocks+f.DedupTables+f.DirectorySlots+f.DirectoryBitmaps+f.RunArenas+f.SymbolText+f.SymbolIndex {
		t.Fatalf("total %d", f.Total())
	}

	// A hashed directory: keys 0, 100, …, 900 span 901 values, more than
	// 8/3 slots a key, so the bulk build hashes them, growing from 8 slots
	// to 16 at the seventh key. 901 values are 15 bitmap words: too many
	// for 8 slots, not for 16. Every key has one row, in its slot: no run.
	db := NewDatabase()
	for k := 0; k < 10; k++ {
		db.Ensure("h", 2).Insert(Tuple{Value(100 * k), 0})
	}
	db.Ensure("h", 2).Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	h := db.Footprint()
	want = Footprint{
		TupleBlocks:      2*blockRows*4 + deadWords*8 + 2*headerBytes,
		DedupTables:      16 * 8,
		DirectorySlots:   16 * 8,
		DirectoryBitmaps: 15 * 8,
		DirectoryKeys:    10,
		SymbolText:       h.SymbolText, // the empty symbol table is the first case's business
		SymbolIndex:      h.SymbolIndex,
	}
	if h != want {
		t.Fatalf("hashed footprint\n got %+v\nwant %+v", h, want)
	}
	// (128 slot bytes + 120 bitmap bytes) / 10 keys.
	if perKey := "24.8"; !strings.Contains(h.String(), "keys=10 dense-directories=0 bytes-per-key="+perKey+") directory-bitmaps=120 ") {
		t.Fatalf("String() = %s, want 10 keys, no dense directory, %s B/key, 120 bitmap bytes", h, perKey)
	} else if js, err := json.Marshal(h); err != nil || !strings.Contains(string(js), `"directory_bitmaps":120,`) || !strings.Contains(string(js), `"directory_bytes_per_key":`+perKey) {
		t.Fatalf("JSON %s (%v)", js, err)
	}
}

// TestFootprintCountsDeadRows: N insert/retract cycles over ten keys leave
// N dead rows behind, across relations, and nothing live — the growth a
// compaction of churned stores is to bound.
func TestFootprintCountsDeadRows(t *testing.T) {
	db := NewDatabase()
	const cycles = 3 * blockRows
	for i := 0; i < cycles; i++ {
		pred := []string{"e", "f"}[i%2]
		key := fmt.Sprintf("k%d", i%10)
		if !db.AddFact(pred, key, "v") || !db.RemoveFact(pred, key, "v") {
			t.Fatalf("cycle %d: the insert or the retraction was not accepted", i)
		}
	}
	f := db.Footprint()
	if f.DeadRows != cycles {
		t.Fatalf("DeadRows = %d after %d insert/retract cycles, want %d", f.DeadRows, cycles, cycles)
	}
	if db.TupleCount() != 0 {
		t.Fatalf("%d tuples live after the cycles", db.TupleCount())
	}
	if !strings.Contains(f.String(), fmt.Sprintf("dead-rows=%d", cycles)) {
		t.Fatalf("String() leaves out the dead rows: %s", f)
	}
}

// dirModel is a relation's live rows as a plain map: each key's values in
// the second column, in the order their rows were inserted.
type dirModel map[Value][]Value

func (m dirModel) has(key, v Value) bool { return slices.Contains(m[key], v) }

func (m dirModel) retract(key, v Value) {
	m[key] = slices.DeleteFunc(m[key], func(x Value) bool { return x == v })
	if len(m[key]) == 0 {
		delete(m, key)
	}
}

// TestDirectoryMatchesModel runs seeded histories of inserts,
// retractions and re-inserts through column 0's directory in four key
// patterns — ascending, descending, random within a band, and a band with
// far outliers, Value's two ends among them — and after every step
// compares LookupTally, LookupKeys, Contains and the probes of a delta
// window with a plain map, for every key the model holds and for keys it
// does not: between its keys, just beyond them and far away. A probe that
// finds nothing still counts as one lookup. The patterns take the
// directory through both ways of finding a slot, and the test sees each
// switch happen: the outliers turn a dense table hashed, and the
// compaction rebuild once they are retracted turns it dense again.
func TestDirectoryMatchesModel(t *testing.T) {
	const keys = 160
	band := func(rng *rand.Rand) Value { return 5000 + Value(rng.Intn(keys)) }
	outliers := []Value{-1 << 31, 1<<31 - 1, -3_000_000, 7_000_000}
	patterns := []struct {
		name string
		key  func(rng *rand.Rand, step int) Value
		// outliers: far keys join at the middle step, and retracting them
		// with most of the band drops the directory for a rebuild.
		outliers bool
	}{
		{"ascending", func(_ *rand.Rand, step int) Value { return Value(step / 2) }, false},
		{"descending", func(_ *rand.Rand, step int) Value { return Value(keys - step/2) }, false},
		{"band", func(rng *rand.Rand, _ int) Value { return band(rng) }, false},
		{"outliers", func(rng *rand.Rand, _ int) Value { return band(rng) }, true},
	}
	for _, p := range patterns {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := NewDatabase()
			r := db.Ensure("e", 2)
			st, model := r.store, dirModel{}
			buf, tally := make(Tuple, 2), db.Stats.Tally()
			var ks KeyStage
			at := fmt.Sprintf("%s, seed %d", p.name, seed)
			// The probe keys: every key the model holds, and around them
			// keys it does not.
			probeKeys := func() []Value {
				ks := []Value{-1 << 31, 1<<31 - 1, -1, 0, 1, 4999, 5000 + keys, 1 << 20}
				for k := range model {
					ks = append(ks, k, k-1, k+1)
				}
				return ks
			}
			lookup := func(rel *Relation, key Value) []Value {
				var got []Value
				rel.LookupTally([]Binding{{Col: 0, Val: key}}, buf, &tally, func(tup Tuple) bool {
					if tup[0] != key {
						t.Fatalf("%s: lookup of %d yielded %v", at, key, tup)
					}
					got = append(got, tup[1])
					return true
				})
				return got
			}
			check := func(step int, since dirModel, win *Relation) {
				t.Helper()
				probes := probeKeys()
				counted := func(what string, probe func()) {
					before := db.Stats.Snapshot().IndexLookups
					probe()
					tally.Flush()
					if n := db.Stats.Snapshot().IndexLookups - before; n != int64(len(probes)) {
						t.Fatalf("%s, step %d: %d %s counted %d", at, step, len(probes), what, n)
					}
				}
				counted("lookups", func() {
					for _, k := range probes {
						if got := lookup(r, k); !slices.Equal(got, model[k]) {
							t.Fatalf("%s, step %d: lookup of %d yields %v, model %v", at, step, k, got, model[k])
						}
					}
				})
				staged := map[Value][]Value{}
				counted("staged lookups", func() {
					r.LookupKeys(0, probes, &ks, &tally, func(k int, tup Tuple) bool {
						if tup[0] != probes[k] {
							t.Fatalf("%s, step %d: staged probe of %d yielded %v", at, step, probes[k], tup)
						}
						if len(staged[tup[0]]) < len(model[tup[0]]) { // a key probed three times yields three times
							staged[tup[0]] = append(staged[tup[0]], tup[1])
						}
						return true
					})
				})
				for k, vs := range model {
					if !slices.Equal(staged[k], vs) {
						t.Fatalf("%s, step %d: staged probe of %d yields %v, model %v", at, step, k, staged[k], vs)
					}
					for _, v := range vs {
						if !r.Contains(Tuple{k, v}) {
							t.Fatalf("%s, step %d: %v is live, Contains says not", at, step, Tuple{k, v})
						}
					}
				}
				if win == nil {
					if len(since) != 0 {
						t.Fatalf("%s, step %d: no window, %d keys inserted since the stamp", at, step, len(since))
					}
					return
				}
				for _, k := range probes {
					if got := lookup(win, k); !slices.Equal(got, since[k]) {
						t.Fatalf("%s, step %d: window lookup of %d yields %v, model %v", at, step, k, got, since[k])
					}
					for _, v := range model[k] {
						if win.Contains(Tuple{k, v}) != since.has(k, v) {
							t.Fatalf("%s, step %d: window Contains(%v) = %v", at, step, Tuple{k, v}, !since.has(k, v))
						}
					}
				}
				win.LookupKeys(0, probes, &ks, nil, func(k int, tup Tuple) bool {
					if tup[0] != probes[k] || !since.has(tup[0], tup[1]) {
						t.Fatalf("%s, step %d: staged window probe of %d yielded %v", at, step, probes[k], tup)
					}
					return true
				})
			}
			// A step is a batch of up to eight writes: mostly inserts of a
			// pattern key (its value counting rows, so every tuple is new),
			// some retractions, and re-inserts of retracted tuples.
			var gone []Tuple
			seq := Value(0)
			stamp, since := db.Epoch(), dirModel{}
			var modes []bool // each directory built or grown, dense or not
			note := func() {
				if d := st.cols[0].Load(); d != nil && (len(modes) == 0 || modes[len(modes)-1] != d.dense()) {
					modes = append(modes, d.dense())
				}
			}
			insert := func(tup Tuple) {
				if !r.Insert(tup) {
					t.Fatalf("%s: insert of %v refused", at, tup)
				}
				model[tup[0]] = append(model[tup[0]], tup[1])
				since[tup[0]] = append(since[tup[0]], tup[1])
			}
			retract := func(tup Tuple) {
				if !r.Retract(tup) {
					t.Fatalf("%s: retraction of %v refused", at, tup)
				}
				model.retract(tup[0], tup[1])
				since.retract(tup[0], tup[1])
				gone = append(gone, tup)
			}
			const steps = 2 * keys
			for step := 0; step < steps; step++ {
				if step%40 == 0 {
					stamp, since = db.Epoch(), dirModel{}
				}
				if p.outliers && step == steps/2 {
					for i, k := range outliers {
						insert(Tuple{k, Value(-1 - i)})
					}
				}
				for n := 1 + rng.Intn(8); n > 0; n-- {
					switch op := rng.Intn(10); {
					case op < 7 || len(model) == 0:
						seq++
						insert(Tuple{p.key(rng, step), seq})
					case op < 9:
						for k, vs := range model { // some live tuple
							retract(Tuple{k, vs[rng.Intn(len(vs))]})
							break
						}
					case len(gone) > 0:
						i := rng.Intn(len(gone))
						tup := gone[i]
						gone = slices.Delete(gone, i, i+1)
						insert(tup)
					}
				}
				d, ok := r.DeltaSince(stamp)
				if !ok {
					t.Fatalf("%s, step %d: DeltaSince fell back", at, step)
				}
				check(step, since, d.Added)
				note()
			}
			// Ascending and descending keys are dense from the first. A
			// band's first few keys are sparse in it — hashed, whether or not
			// the very first was dense — and dense once the band fills in.
			want := []bool{true}
			if p.name != "ascending" && p.name != "descending" {
				want = []bool{false, true}
				if modes[0] {
					modes = modes[1:]
				}
			}
			if p.outliers {
				// Retract the outliers and the top three quarters of the
				// band: past the compaction threshold, so the lookups rebuild
				// the table from the bottom quarter alone, which is dense;
				// then insert a few more.
				atDrop := st.deadAtDrop
				for i, k := range outliers {
					if model.has(k, Value(-1-i)) {
						retract(Tuple{k, Value(-1 - i)})
					}
				}
				for k, vs := range model {
					if k >= 5000+keys/4 {
						for _, v := range slices.Clone(vs) {
							retract(Tuple{k, v})
						}
					}
				}
				if st.deadAtDrop == atDrop {
					t.Fatalf("%s: test premise: the retractions dropped no directory", at)
				}
				stamp, since = db.Epoch(), dirModel{}
				for i := 0; i < 10; i++ {
					seq++
					insert(Tuple{5000 + Value(rng.Intn(keys/4)), seq})
				}
				d, ok := r.DeltaSince(stamp)
				if !ok {
					t.Fatalf("%s: DeltaSince fell back", at)
				}
				check(steps, since, d.Added)
				note()
				want = []bool{false, true, false, true}
			}
			if !slices.Equal(modes, want) {
				t.Fatalf("%s: the directory went dense %v, want %v", at, modes, want)
			}
		}
	}
}

// TestDirectoryModesBesideReaders puts three lock-free readers beside a
// writer that grows column 0's directory as a dense table, down and up,
// turns it hashed with far keys, and retracts past the compaction
// threshold so that it is rebuilt dense. Whatever a reader is handed must
// be a tuple the writer had at least started to insert, under the key it
// asked for. Run under -race.
func TestDirectoryModesBesideReaders(t *testing.T) {
	const n = 1500
	var plan []Tuple
	for i := 0; i < n; i++ { // dense, grown up and down by turns
		k := Value(i / 2)
		if i%2 == 1 {
			k = -k
		}
		plan = append(plan, Tuple{k, Value(len(plan))})
	}
	for _, k := range []Value{-1 << 31, 1<<31 - 1, 1 << 24} { // hashed
		plan = append(plan, Tuple{k, Value(len(plan))})
	}
	for i := 0; i < n; i++ { // more rows under the same keys: runs
		plan = append(plan, Tuple{Value(i%200 - 100), Value(len(plan))})
	}
	r := NewRelation(2, nil)
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	var started atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make(Tuple, 2)
			var ks KeyStage
			check := func(key Value, tup Tuple) bool {
				id := int(tup[1])
				if tup[0] != key || id < 0 || id >= len(plan) || tkey(plan[id]) != tkey(tup) || int64(id) >= started.Load() {
					t.Errorf("probe of %d yielded %v", key, tup)
					return false
				}
				return true
			}
			for !t.Failed() {
				select {
				case <-stop:
					return
				default:
				}
				key := plan[rng.Intn(len(plan))][0] + Value(rng.Intn(3)-1)
				if rng.Intn(2) == 0 {
					r.LookupTally([]Binding{{Col: 0, Val: key}}, buf, nil, func(tup Tuple) bool { return check(key, tup) })
				} else {
					keys := []Value{key, key + 1, 1 << 30, key - 1}
					r.LookupKeys(0, keys, &ks, nil, func(k int, tup Tuple) bool { return check(keys[k], tup) })
				}
				runtime.Gosched()
			}
		}(int64(g))
	}
	var modes []bool
	note := func() {
		if d := r.store.cols[0].Load(); d != nil && (len(modes) == 0 || modes[len(modes)-1] != d.dense()) {
			modes = append(modes, d.dense())
		}
	}
	for i, tup := range plan {
		started.Store(int64(i + 1))
		r.Insert(tup)
		note()
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	// The outliers first, then the first stretch from its far ends in: a
	// reader may rebuild the dropped table at any point after the drop,
	// and must find only keys near the runs' then.
	first := slices.Clone(plan[:n])
	slices.Reverse(first)
	for _, tup := range append(slices.Clone(plan[n:n+3]), first...) {
		r.Retract(tup)
	}
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	note()
	close(stop)
	wg.Wait()
	if want := []bool{true, false, true}; !slices.Equal(modes, want) {
		t.Fatalf("test premise: the directory went dense %v, want %v", modes, want)
	}
}

// walkSlot is slot without the presence bitmap and without [lo, hi]: what
// the table itself holds for key, found from its home slot.
func walkSlot(d *directory, key Value) uint64 {
	i := uint32(key-d.base) * d.mul >> d.shift
	if d.dense() {
		if i >= uint32(len(d.slots)) {
			return 0
		}
		return atomic.LoadUint64(&d.slots[i])
	}
	for ; ; i = (i + 1) & uint32(len(d.slots)-1) {
		if w := atomic.LoadUint64(&d.slots[i]); w == 0 || Value(w>>32) == key {
			return w
		}
	}
}

// filteredBy reports whether d's bitmap answers a probe of key by itself:
// the key is in its range and its bit is clear.
func filteredBy(d *directory, key Value) bool {
	i := uint32(key - d.base)
	return i>>6 < uint32(len(d.bits)) && d.bits[i>>6]>>(i&63)&1 == 0
}

// TestDirectoryFilterMatchesProbe checks the presence bitmap against the
// table it filters: for every key from two below a directory's lowest to
// two above its highest, slot returns what a walk of the table without
// bitmap or key range finds. The directories are dense; hashed with a
// bitmap, and without one (keys too sparse for a bitmap no larger than
// the slots); hashed over negative keys; hashed with keys posted beyond
// the bitmap's range, then grown by more so that the new table's bitmap
// covers them; and rebuilt by tombstone compaction. Seeded.
func TestDirectoryFilterMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// distinct returns n distinct random keys from [lo, lo+span).
	distinct := func(n int, lo Value, span int) []Value {
		seen := map[Value]bool{}
		var keys []Value
		for len(keys) < n {
			if k := lo + Value(rng.Intn(span)); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}
	type premise int
	const (
		dense premise = iota
		bitmap
		noBitmap
	)
	check := func(name string, r *Relation, want premise) *directory {
		t.Helper()
		r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
		d := r.store.cols[0].Load()
		if got := map[bool]premise{true: dense}[d.dense()]; !d.dense() {
			got = map[bool]premise{true: bitmap, false: noBitmap}[d.bits != nil]
			if got != want {
				t.Fatalf("%s: test premise: table kind %d, want %d (%d keys in %d slots over [%d, %d], base %d, %d words)", name, got, want, d.used, len(d.slots), d.lo.Load(), d.hi.Load(), d.base, len(d.bits))
			}
		} else if want != dense {
			t.Fatalf("%s: test premise: a dense table", name)
		}
		lo, hi := int64(d.lo.Load()), int64(d.hi.Load())
		filtered := 0
		for k := lo - 2; k <= hi+2; k++ {
			key := Value(k)
			if got, want := d.slot(key), walkSlot(d, key); got != want {
				t.Fatalf("%s: slot(%d) = %#x, the table holds %#x", name, key, got, want)
			}
			if filteredBy(d, key) {
				filtered++
			}
		}
		if (filtered > 0) != (want == bitmap) {
			t.Fatalf("%s: test premise: the bitmap answered %d probes", name, filtered)
		}
		t.Logf("%s: keys %d in %d slots over [%d, %d], %d bitmap words, %d probes answered by the bitmap", name, d.used, len(d.slots), lo, hi, len(d.bits), filtered)
		return d
	}
	fill := func(keys []Value) *Relation {
		r := NewRelation(2, nil)
		for _, k := range keys {
			for j := 0; j <= rng.Intn(3); j++ {
				r.Insert(Tuple{k, Value(j)})
			}
		}
		return r
	}
	check("dense", fill(distinct(1000, 0, 1000)), dense)
	check("hashed, no bitmap", fill(distinct(50, 0, 10_000_000)), noBitmap)
	check("hashed over negative keys", fill(distinct(300, -30000, 30000)), bitmap)
	r := fill(distinct(300, 0, 30000))
	d := check("hashed", r, bitmap)

	// Keys beyond the bitmap's range, on both sides, too few to grow the
	// table: they are found by the walk.
	end := int64(d.base) + 64*int64(len(d.bits))
	var beyond []Value
	for _, k := range distinct(40, Value(end), 1000) {
		beyond = append(beyond, k, Value(d.lo.Load())-1-(k-Value(end))) // as far above the bitmap as below the lowest key
	}
	for _, k := range beyond {
		r.Insert(Tuple{k, 0})
	}
	if d2 := check("keys beyond the bitmap", r, bitmap); d2 != d {
		t.Fatalf("test premise: the table grew")
	}
	for _, k := range beyond {
		if i := uint32(k - d.base); i>>6 < uint32(len(d.bits)) || d.slot(k) == 0 {
			t.Fatalf("test premise: key %d beyond the bitmap, and found", k)
		}
	}
	// More keys: the table grows, and the new one's bitmap spans them all.
	for _, k := range distinct(200, 0, 30000) {
		r.Insert(Tuple{k, 7})
	}
	if d2 := check("grown", r, bitmap); d2 == d || 64*int64(len(d2.bits)) < int64(d2.hi.Load())-int64(d2.lo.Load())+1 {
		t.Fatalf("test premise: a grown table whose bitmap covers its keys (%d words over [%d, %d])", len(d2.bits), d2.lo.Load(), d2.hi.Load())
	}
	// More than half the rows retracted: compaction drops the table, the
	// next lookup rebuilds it from what is left.
	before := r.store.cols[0].Load()
	live := r.Tuples()
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	r.RetractBatch(live[:len(live)*11/20])
	if d2 := check("rebuilt", r, bitmap); d2 == before {
		t.Fatalf("test premise: a rebuilt table")
	}
}
