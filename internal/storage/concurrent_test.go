package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLookupMultiBindingComplete is the regression test for multi-binding
// lookups: whatever column Lookup chooses to probe, the result must equal
// the brute-force filter over all bindings — no missed tuples, no
// spurious ones — for every subset and order of bindings.
func TestLookupMultiBindingComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRelation(3, nil)
	var all []Tuple
	for i := 0; i < 400; i++ {
		// Column 0 is low-cardinality (many duplicates), column 1 mid,
		// column 2 high — so the selective column varies per query.
		tup := Tuple{Value(rng.Intn(3)), Value(rng.Intn(20)), Value(rng.Intn(200))}
		if r.Insert(tup) {
			all = append(all, tup.Clone())
		}
	}
	oracle := func(bindings []Binding) map[tupleKey]bool {
		out := make(map[tupleKey]bool)
		for _, tup := range all {
			ok := true
			for _, b := range bindings {
				if tup[b.Col] != b.Val {
					ok = false
				}
			}
			if ok {
				out[tkey(tup)] = true
			}
		}
		return out
	}
	check := func(bindings []Binding) {
		t.Helper()
		want := oracle(bindings)
		got := make(map[tupleKey]bool)
		r.Lookup(bindings, func(tup Tuple) bool {
			got[tkey(tup)] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("bindings %v: got %d tuples, want %d", bindings, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("bindings %v: missing tuple", bindings)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		cols := rng.Perm(3)[:n]
		var bindings []Binding
		for _, c := range cols {
			bindings = append(bindings, Binding{Col: c, Val: Value(rng.Intn(20))})
		}
		check(bindings)
	}
}

// TestLookupProbesSelectiveColumn checks that with a low-selectivity
// binding listed first and a high-selectivity one second, the probe uses
// the selective column: the number of tuples examined must match the
// short posting list, not the long one.
func TestLookupProbesSelectiveColumn(t *testing.T) {
	var stats Counters
	r := NewRelation(2, &stats)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{0, Value(i)}) // column 0 always 0: worthless index
	}
	stats.Reset()
	n := 0
	r.Lookup([]Binding{{Col: 0, Val: 0}, {Col: 1, Val: 42}}, func(tup Tuple) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("matches = %d, want 1", n)
	}
	s := stats.Snapshot()
	if s.TuplesExamined != 1 {
		t.Fatalf("examined %d tuples; the probe should have used column 1's posting list (len 1)", s.TuplesExamined)
	}
	if s.FullScans != 0 || s.IndexLookups != 1 {
		t.Fatalf("counters = %+v", s)
	}
}

// TestRelationConcurrentReadersOneWriter drives lock-free Scan and Lookup
// (and Contains) against a relation while one writer takes it through
// every kind of republication: a block append, directory growth, a
// posting run outgrowing its capacity while readers hold the old one,
// retractions, and a tombstone compaction with the rebuild that follows.
// Whatever a reader is handed must satisfy its bindings and be a tuple
// the writer had at least started to insert; once the writer stops, the
// relation must equal a plain-map model. Run under -race.
func TestRelationConcurrentReadersOneWriter(t *testing.T) {
	var stats Counters
	r := NewRelation(3, &stats)
	// The writer's whole plan, fixed up front: tuple id is {key, seq, id}.
	// Distinct keys first (blocks and directories grow, each key's row in
	// its slot), then one hot key (its run doubles again and again), then a
	// second and a third row for every other key (the row leaves the slot for
	// a run, stored under the readers of that key, and the runs fill chunk
	// after chunk of the arena), then — after the retractions — more of all
	// three on the rebuilt directories.
	const distinct, hot, hotKey, late = 3000, 700, 7, 600
	var plan []Tuple
	add := func(key, seq int) { plan = append(plan, Tuple{Value(key), Value(seq), Value(len(plan))}) }
	for k := 0; k < distinct; k++ {
		add(k, 0)
	}
	for j := 1; j <= hot; j++ {
		add(hotKey, j)
	}
	for k := 0; k < distinct; k += 2 {
		add(k, hot+late+2)
		add(k, hot+late+3)
	}
	early := len(plan)
	for k := 0; k < late; k++ {
		add(distinct+k, 0)
		add(hotKey, hot+1+k)
		add(2*k+1, hot+late+2) // a second row for a key left with one, or with none
	}
	// started is how far into the plan the writer has got: it moves past
	// a tuple before the tuple is inserted.
	var started, reads atomic.Int64
	// read runs one Scan (no bindings) or Lookup and checks what it
	// yields. The callback touches nothing the writer synchronizes on — an
	// id the writer had not yet started on is looked for after the call —
	// so a row handed out before it was written stays a race the detector
	// can see.
	read := func(bindings ...Binding) {
		newest := int64(-1)
		yield := func(tup Tuple) bool {
			for _, b := range bindings {
				if tup[b.Col] != b.Val {
					t.Errorf("read %v yielded %v", bindings, tup)
				}
			}
			id := int64(tup[2])
			if id < 0 || id >= int64(len(plan)) || tkey(plan[id]) != tkey(tup) {
				t.Errorf("read %v yielded %v, no tuple of the plan", bindings, tup)
				return false
			}
			newest = max(newest, id)
			return true
		}
		if len(bindings) == 0 {
			r.Scan(yield)
		} else {
			r.Lookup(bindings, yield)
		}
		if newest >= started.Load() {
			t.Errorf("read %v yielded tuple %d before the writer started on it", bindings, newest)
		}
	}
	// readKeys is read for a staged probe of one column by several keys.
	readKeys := func(st *KeyStage, col int, keys ...Value) {
		newest, last := int64(-1), 0
		r.LookupKeys(col, keys, st, nil, func(k int, tup Tuple) bool {
			id := int64(tup[2])
			if k < last || tup[col] != keys[k] || id < 0 || id >= int64(len(plan)) || tkey(plan[id]) != tkey(tup) {
				t.Errorf("staged read of column %d by %v yielded %v for key %d (after key %d)", col, keys, tup, k, last)
				return false
			}
			newest, last = max(newest, id), k
			return true
		})
		if newest >= started.Load() {
			t.Errorf("staged read of column %d by %v yielded tuple %d before the writer started on it", col, keys, newest)
		}
	}
	// Build both directories before the writer starts, so that all of its
	// inserts go through them.
	r.Lookup([]Binding{{Col: 0, Val: 0}, {Col: 1, Val: 0}}, func(Tuple) bool { return true })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var st KeyStage
			for !t.Failed() {
				select {
				case <-stop:
					return
				default:
				}
				// Mostly one-tuple probes: a scan costs thousands of them, a
				// probe of the hot key hundreds, and the writer needs the
				// processor.
				key, op := Value(rng.Intn(distinct+late)), rng.Intn(32)
				if op < 4 {
					key = hotKey
				}
				switch op % 8 {
				case 0:
					if op == 0 {
						read()
					}
				case 1, 2: // bound on the first column
					read(Binding{Col: 0, Val: key})
				case 3: // bound on the second
					read(Binding{Col: 1, Val: Value(1 + rng.Intn(hot+late))})
				case 4, 5: // the long run listed first, the short one chosen
					read(Binding{Col: 1, Val: 0}, Binding{Col: 0, Val: key})
				case 6: // staged, with the hot key's long run among the short ones
					readKeys(&st, 0, key, key+1, hotKey, Value(distinct+late), key)
				case 7:
					if op == 7 { // staged on the second column
						readKeys(&st, 1, Value(1+rng.Intn(hot+late)), Value(hot+late+1), Value(1+rng.Intn(hot)))
						break
					}
					fallthrough
				default:
					r.Contains(plan[rng.Intn(len(plan))])
				}
				reads.Add(1)
			}
		}(int64(g))
	}

	model := make(map[tupleKey]bool)
	// The writer lets the readers in every thousand steps, so that
	// reads fall into every stretch of its plan on any scheduler.
	step := func(i int) {
		if i%1024 == 0 {
			for upTo := reads.Load() + 64; reads.Load() < upTo && !t.Failed(); {
				runtime.Gosched()
			}
		}
	}
	insert := func(upTo int) {
		for id := int(started.Load()); id < upTo; id++ {
			step(id)
			started.Store(int64(id + 1))
			if !r.Insert(plan[id]) {
				t.Errorf("insert of %v refused", plan[id])
			}
			model[tkey(plan[id])] = true
		}
	}
	insert(early)
	st := r.store
	blocks, slots, chunks := len(st.blocks), 0, 0
	for c := range st.cols[:2] { // the two columns the readers bind
		d := st.cols[c].Load()
		slots, chunks = max(slots, len(d.slots)), max(chunks, len(*d.chunks.Load()))
	}
	if blocks < 2 || slots <= minDirSlots || chunks < 4 {
		t.Fatalf("test premise: %d blocks, %d directory slots, %d arena chunks", blocks, slots, chunks)
	}
	// Retract two thirds of everything so far: more than half of the rows
	// the directories can name, so they are dropped on the way.
	for id := 0; id < early; id++ {
		step(id)
		if id%3 != 0 {
			if !r.Retract(plan[id]) {
				t.Errorf("retract of %v refused", plan[id])
			}
			delete(model, tkey(plan[id]))
		}
	}
	insert(len(plan))
	close(stop)
	wg.Wait()

	if st.deadAtDrop == 0 {
		t.Fatal("test premise: the relation never dropped its directories")
	}

	if r.Len() != len(model) {
		t.Fatalf("len = %d, model holds %d", r.Len(), len(model))
	}
	scanned := make(map[tupleKey]bool)
	r.Scan(func(tup Tuple) bool { scanned[tkey(tup)] = true; return true })
	byKey := make(map[Value]int)
	for _, tup := range plan {
		live := model[tkey(tup)]
		if r.Contains(tup) != live || scanned[tkey(tup)] != live {
			t.Fatalf("%v: contains=%v scanned=%v, model says %v", tup, r.Contains(tup), scanned[tkey(tup)], live)
		}
		if live {
			byKey[tup[0]]++
		}
	}
	if len(scanned) != len(model) {
		t.Fatalf("scan yielded %d distinct tuples, model holds %d", len(scanned), len(model))
	}
	for key := Value(0); key < distinct+late; key++ {
		got := 0
		r.Lookup([]Binding{{Col: 0, Val: key}}, func(tup Tuple) bool {
			if !model[tkey(tup)] {
				t.Fatalf("lookup of key %d yielded %v, not in the model", key, tup)
			}
			got++
			return true
		})
		if got != byKey[key] {
			t.Fatalf("lookup of key %d yielded %d tuples, model holds %d", key, got, byKey[key])
		}
	}
}

// TestLookupYieldsInInsertionOrder pins the order Lookup yields a key's
// tuples in — the order they were inserted — across a posting run that
// outgrows its capacity, a directory rebuilt after compaction and one
// built late: callers that stop at the first match (existential atoms)
// examine a repeatable number of tuples only because of it.
func TestLookupYieldsInInsertionOrder(t *testing.T) {
	r := NewRelation(2, nil)
	lookup := func() (got []Value) {
		r.Lookup([]Binding{{Col: 0, Val: 1}}, func(tup Tuple) bool { got = append(got, tup[1]); return true })
		return got
	}
	expect := func(when string, want ...Value) {
		t.Helper()
		if got := lookup(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: lookup yielded %v, want %v", when, got, want)
		}
	}
	for _, v := range []Value{50, 10, 40} {
		r.Insert(Tuple{1, v})
		r.Insert(Tuple{2, v})
	}
	expect("directory built from rows", 50, 10, 40)
	for _, v := range []Value{30, 20, 60} { // appended through the directory: 3 -> 4 -> 8
		r.Insert(Tuple{1, v})
	}
	expect("run grown in place and by copy", 50, 10, 40, 30, 20, 60)
	r.Retract(Tuple{1, 10})
	r.Insert(Tuple{1, 10}) // a fresh row: now the newest
	expect("retracted and re-inserted", 50, 40, 30, 20, 60, 10)
	for _, v := range []Value{50, 10, 40} { // drops the directories: 4 of 10 rows dead, then 6 of 10
		r.Retract(Tuple{2, v})
	}
	r.Retract(Tuple{1, 30})
	r.Retract(Tuple{1, 20})
	if r.store.cols[0].Load() != nil {
		t.Fatal("test premise: the retractions dropped no directory")
	}
	expect("rebuilt after compaction", 50, 40, 60, 10)
	first := Value(-1)
	r.Lookup([]Binding{{Col: 0, Val: 1}}, func(tup Tuple) bool { first = tup[1]; return false })
	if first != 50 {
		t.Fatalf("first match is %d, want the oldest live tuple's 50", first)
	}
}

// TestLookupDuringInsertSameGoroutine is TestScanDuringInsertSameGoroutine
// for Lookup: a callback that inserts into the relation being probed —
// under the very key being probed — neither deadlocks nor sees its own
// inserts, whether they fit the run's spare capacity or replace the run.
func TestLookupDuringInsertSameGoroutine(t *testing.T) {
	r := NewRelation(2, nil)
	for i := 0; i < 3; i++ {
		r.Insert(Tuple{1, Value(i)})
	}
	seen := 0
	r.Lookup([]Binding{{Col: 0, Val: 1}}, func(tup Tuple) bool {
		seen++
		for k := Value(0); k < 4; k++ {
			r.Insert(Tuple{1, 100 + 10*tup[1] + k})
		}
		return true
	})
	if seen != 3 {
		t.Fatalf("lookup saw %d tuples, want the 3-tuple snapshot", seen)
	}
	seen = 0
	r.Lookup([]Binding{{Col: 0, Val: 1}}, func(Tuple) bool { seen++; return true })
	if seen != 15 || r.Len() != 15 {
		t.Fatalf("afterwards lookup sees %d tuples and len = %d, want 15", seen, r.Len())
	}
}

// TestScanDuringInsertSameGoroutine pins the snapshot semantics the
// fixpoint loops rely on: inserting into the relation being scanned (from
// the scan callback itself) must not deadlock or affect the snapshot.
func TestScanDuringInsertSameGoroutine(t *testing.T) {
	r := NewRelation(1, nil)
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{Value(i)})
	}
	seen := 0
	r.Scan(func(tup Tuple) bool {
		seen++
		r.Insert(Tuple{tup[0] + 100})
		return true
	})
	if seen != 10 {
		t.Fatalf("scan saw %d tuples, want the 10-tuple snapshot", seen)
	}
	if r.Len() != 20 {
		t.Fatalf("len = %d, want 20", r.Len())
	}
}

// TestDatabaseConcurrentEnsureAndSymbols exercises Database.Ensure,
// AddFact, and SymbolTable.Intern from many goroutines. Run under -race.
func TestDatabaseConcurrentEnsureAndSymbols(t *testing.T) {
	db := NewDatabase()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.AddFact(fmt.Sprintf("p%d", i%5), fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", g))
				db.Relation(fmt.Sprintf("p%d", (i+1)%5))
				db.Syms.Name(Value(i % 10))
			}
		}(g)
	}
	wg.Wait()
	if got := len(db.Preds()); got != 5 {
		t.Fatalf("preds = %d, want 5", got)
	}
	if db.TupleCount() == 0 {
		t.Fatal("no tuples after concurrent inserts")
	}
}

// TestLookupDuringCompaction: a lookup that races tombstone compaction
// still returns its rows. Ten keys hold three rows each and are never
// retracted; beside them a writer inserts and retracts forty other tuples
// per round — twenty keys of two rows, so that each key's first row is
// stored in its slot and then moved to a run, under readers of that key —
// and each round's retractions cross the compaction threshold and drop the
// posting directories. A reader that finds no directory
// builds one and must then probe what it built, or a later one — not
// whatever a concurrent drop left behind. (With the RWMutex on the
// read path, a reader dropped the read lock to build, and re-took it to
// probe a map that a retraction in between had set to nil.)
func TestLookupDuringCompaction(t *testing.T) {
	// Every rebuild walks all the rows the relation ever held, so tries at
	// the window are bought with fresh relations, not with more rounds.
	for rep := 0; rep < 3 && !t.Failed(); rep++ {
		lookupDuringCompaction(t)
	}
}

func lookupDuringCompaction(t *testing.T) {
	r := NewRelation(2, nil)
	const keys, perKey, churn = 10, 3, 40
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			r.Insert(Tuple{Value(k), Value(100 + j)})
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// More readers than processors: the window opens for each reader that
	// found the directory gone, not only for the one that rebuilds it. Each
	// does a fixed number of lookups at most — readers that block on
	// nothing would otherwise keep the writer off a small machine's
	// processors for as long as they liked.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every other reader probes the same keys staged, three at a time.
			var st KeyStage
			for i := g; i < g+20000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, got := Value(i%keys), 0
				if i%4 == 3 {
					// A churned key: whatever is there of its two rows, its
					// first in the slot or both in a run.
					k = Value(1000 + i%(churn/2))
					r.Lookup([]Binding{{Col: 0, Val: k}}, func(tup Tuple) bool {
						if tup[0] != k {
							t.Errorf("lookup of key %d yielded %v", k, tup)
						}
						return true
					})
					continue
				}
				if g%2 == 1 {
					probe := []Value{k, (k + 1) % keys, (k + 2) % keys}
					r.LookupKeys(0, probe, &st, nil, func(at int, tup Tuple) bool {
						if tup[0] != probe[at] {
							t.Errorf("staged lookup of key %d yielded %v", probe[at], tup)
						}
						got++
						return true
					})
					got /= len(probe)
				} else {
					r.Lookup([]Binding{{Col: 0, Val: k}}, func(tup Tuple) bool {
						if tup[0] != k {
							t.Errorf("lookup of key %d yielded %v", k, tup)
						}
						got++
						return true
					})
				}
				if got != perKey {
					t.Errorf("lookup of never-retracted key %d yielded %d rows, want %d", k, got, perKey)
					return
				}
			}
		}(g)
	}
	st := r.store
	for round := 0; round < 300; round++ {
		for i := 0; i < churn; i++ {
			r.Insert(Tuple{Value(1000 + i/2), Value(2*round + i%2)})
		}
		atDrop := st.deadAtDrop
		for i := 0; i < churn; i++ {
			r.Retract(Tuple{Value(1000 + i/2), Value(2*round + i%2)})
		}
		if st.deadAtDrop == atDrop {
			t.Fatalf("test premise: round %d dropped no directory", round)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentInsertsExactlyOnce hammers one relation from many writers
// with overlapping tuple sets and verifies exactly-once insert accounting:
// the sum of true returns must equal the final Len. Run under -race.
func TestConcurrentInsertsExactlyOnce(t *testing.T) {
	r := NewRelation(2, nil)
	const writers, perWriter = 8, 3000
	counts := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				// Overlapping key space: most inserts race with a duplicate.
				tup := Tuple{Value(rng.Intn(200)), Value(rng.Intn(40))}
				if r.Insert(tup) {
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != r.Len() {
		t.Fatalf("accepted inserts = %d, Len = %d", total, r.Len())
	}
	for _, tup := range r.Tuples() {
		if !r.Contains(tup) {
			t.Fatalf("tuple %v in snapshot but Contains is false", tup)
		}
	}
}
