package storage

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestSymbolTable(t *testing.T) {
	st := NewSymbolTable()
	a := st.Intern("alpha")
	b := st.Intern("beta")
	if a == b {
		t.Fatal("distinct names must intern to distinct values")
	}
	if st.Intern("alpha") != a {
		t.Fatal("re-interning must be stable")
	}
	if st.Name(a) != "alpha" || st.Name(b) != "beta" {
		t.Fatal("Name round trip failed")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
	if _, ok := st.Lookup("gamma"); ok {
		t.Fatal("Lookup must not intern")
	}
	if st.Name(Value(99)) != "#99" {
		t.Fatal("unknown value should render as #id")
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation(2, nil)
	if !r.Insert(Tuple{1, 2}) {
		t.Fatal("first insert should be new")
	}
	if r.Insert(Tuple{1, 2}) {
		t.Fatal("duplicate insert should report false")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{2, 1}) {
		t.Fatal("Contains wrong")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := NewRelation(1, nil)
	buf := Tuple{7}
	r.Insert(buf)
	buf[0] = 9
	if !r.Contains(Tuple{7}) || r.Contains(Tuple{9}) {
		t.Fatal("Insert must copy the tuple")
	}
}

func TestLookupWithIndex(t *testing.T) {
	var stats Counters
	r := NewRelation(2, &stats)
	r.Insert(Tuple{1, 10})
	r.Insert(Tuple{1, 11})
	r.Insert(Tuple{2, 10})

	var got []Tuple
	r.Lookup([]Binding{{Col: 0, Val: 1}}, func(t Tuple) bool {
		got = append(got, t.Clone())
		return true
	})
	if len(got) != 2 {
		t.Fatalf("got %d tuples", len(got))
	}
	if stats.IndexLookups != 1 || stats.FullScans != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.TuplesExamined != 2 {
		t.Fatalf("examined = %d", stats.TuplesExamined)
	}

	// Multi-binding: first column probes, second filters.
	got = nil
	r.Lookup([]Binding{{Col: 0, Val: 1}, {Col: 1, Val: 11}}, func(t Tuple) bool {
		got = append(got, t.Clone())
		return true
	})
	if len(got) != 1 || got[0][1] != 11 {
		t.Fatalf("filtered lookup got %v", got)
	}
}

func TestIndexStaysFreshAfterInsert(t *testing.T) {
	r := NewRelation(2, nil)
	r.Insert(Tuple{1, 10})
	count := 0
	r.Lookup([]Binding{{Col: 0, Val: 1}}, func(Tuple) bool { count++; return true })
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	// Insert after the index was built: the index must pick it up.
	r.Insert(Tuple{1, 99})
	count = 0
	r.Lookup([]Binding{{Col: 0, Val: 1}}, func(Tuple) bool { count++; return true })
	if count != 2 {
		t.Fatalf("count after insert = %d", count)
	}
}

func TestScanCountsAsFullScan(t *testing.T) {
	var stats Counters
	r := NewRelation(1, &stats)
	r.Insert(Tuple{1})
	r.Insert(Tuple{2})
	n := 0
	r.Scan(func(Tuple) bool { n++; return true })
	if n != 2 {
		t.Fatalf("scanned %d", n)
	}
	if stats.FullScans != 1 || stats.TuplesExamined != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Lookup with no bindings degrades to a scan.
	r.Lookup(nil, func(Tuple) bool { return true })
	if stats.FullScans != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestZeroArityRelation pins the degenerate case: an arity-0 relation is
// a set of at most one empty tuple.
func TestZeroArityRelation(t *testing.T) {
	r := NewRelation(0, nil)
	if !r.Insert(Tuple{}) || r.Insert(Tuple{}) {
		t.Fatal("arity-0 insert dedup broken")
	}
	if r.Len() != 1 || !r.Contains(Tuple{}) {
		t.Fatal("arity-0 membership broken")
	}
}

// TestLookupCountsOneProbe is the Property-3 accounting: a Lookup with a
// bound column costs one IndexLookups whichever column is bound — the
// first, another, several, or one the caller stops early.
func TestLookupCountsOneProbe(t *testing.T) {
	var stats Counters
	r := NewRelation(2, &stats)
	for i := 0; i < 64; i++ {
		r.Insert(Tuple{Value(i), Value(i % 7)})
	}
	for _, c := range []struct {
		bindings []Binding
		stop     bool
		want     int
	}{
		{[]Binding{{Col: 0, Val: 3}}, false, 1},
		{[]Binding{{Col: 1, Val: 2}}, false, 9},
		{[]Binding{{Col: 1, Val: 2}, {Col: 0, Val: 9}}, false, 1},
		{[]Binding{{Col: 1, Val: 2}}, true, 5},
	} {
		stats.Reset()
		n := 0
		r.Lookup(c.bindings, func(Tuple) bool { n++; return !c.stop || n < 5 })
		if n != c.want {
			t.Fatalf("%v: yielded %d tuples, want %d", c.bindings, n, c.want)
		}
		if got := stats.Snapshot(); got.IndexLookups != 1 || got.FullScans != 0 {
			t.Fatalf("%v: recorded %d probes and %d full scans, want 1 and 0", c.bindings, got.IndexLookups, got.FullScans)
		}
	}
}

// TestShardedLookupEarlyStop checks that a yield returning false stops a
// lookup bound on a non-first column mid-way.
func TestShardedLookupEarlyStop(t *testing.T) {
	r := NewRelation(2, nil)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{Value(i), 7})
	}
	seen := 0
	r.Lookup([]Binding{{Col: 1, Val: 7}}, func(Tuple) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("yield called %d times after early stop, want 5", seen)
	}
}

// TestShardedLookupCountsPerShardProbes pins the deprecated sharded
// constructor to the one-store accounting: whatever shard count it is
// given, a lookup bound on any column is one IndexLookups probe, and the
// database reports one shard.
func TestShardedLookupCountsPerShardProbes(t *testing.T) {
	var stats Counters
	r := NewShardedRelation(2, &stats, 8)
	for i := 0; i < 64; i++ {
		r.Insert(Tuple{Value(i), Value(i % 7)})
	}
	for _, col := range []int{0, 1} {
		stats.Reset()
		n := 0
		r.Lookup([]Binding{{Col: col, Val: 3}}, func(Tuple) bool { n++; return true })
		if n == 0 {
			t.Fatalf("lookup on column %d found nothing", col)
		}
		if got := stats.Snapshot(); got.IndexLookups != 1 || got.FullScans != 0 {
			t.Fatalf("lookup on column %d recorded %d probes and %d full scans, want 1 and 0",
				col, got.IndexLookups, got.FullScans)
		}
	}
	if got := NewDatabase().Shards(); got != 1 {
		t.Fatalf("Database.Shards() = %d, want 1", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	r := NewRelation(1, nil)
	for i := 0; i < 5; i++ {
		r.Insert(Tuple{Value(i)})
	}
	n := 0
	r.Scan(func(Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop failed: n=%d", n)
	}
}

func TestRelationEqual(t *testing.T) {
	a := NewRelation(2, nil)
	b := NewRelation(2, nil)
	a.Insert(Tuple{1, 2})
	b.Insert(Tuple{1, 2})
	if !a.Equal(b) {
		t.Fatal("equal relations reported unequal")
	}
	b.Insert(Tuple{3, 4})
	if a.Equal(b) {
		t.Fatal("unequal relations reported equal")
	}
}

func TestSortedTuples(t *testing.T) {
	r := NewRelation(2, nil)
	r.Insert(Tuple{2, 1})
	r.Insert(Tuple{1, 9})
	r.Insert(Tuple{1, 2})
	got := r.SortedTuples()
	want := []Tuple{{1, 2}, {1, 9}, {2, 1}}
	for i := range want {
		if tkey(got[i]) != tkey(want[i]) {
			t.Fatalf("sorted[%d] = %v", i, got[i])
		}
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	db.AddFact("edge", "a", "b")
	db.AddFact("edge", "b", "c")
	db.AddFact("node", "a")
	if db.Relation("edge").Len() != 2 {
		t.Fatal("edge should have 2 tuples")
	}
	if got := db.Preds(); len(got) != 2 || got[0] != "edge" || got[1] != "node" {
		t.Fatalf("preds = %v", got)
	}
	if db.TupleCount() != 3 {
		t.Fatalf("TupleCount = %d", db.TupleCount())
	}
	want := "edge(a, b).\nedge(b, c).\nnode(a).\n"
	if got := db.Dump(); got != want {
		t.Fatalf("dump = %q", got)
	}
}

func TestDatabaseSharedSymbols(t *testing.T) {
	db := NewDatabase()
	db.AddFact("p", "x")
	derived := NewDatabaseWith(db.Syms)
	derived.AddFact("q", "x")
	v1, _ := db.Syms.Lookup("x")
	if got := derived.Relation("q").Tuples()[0][0]; got != v1 {
		t.Fatal("shared symbol table must give identical values")
	}
}

func TestEnsureArityPanics(t *testing.T) {
	db := NewDatabase()
	db.Ensure("p", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	db.Ensure("p", 3)
}

func TestInsertArityPanics(t *testing.T) {
	r := NewRelation(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	r.Insert(Tuple{1})
}

// TestQuickInsertDedupMatchesEquality property-tests the dedup table:
// equal tuples must hash identically (growth rehashes from stored
// hashes), and Insert must dedup on tuple equality exactly — hash
// collisions between distinct tuples may occur but must not conflate
// them.
func TestQuickInsertDedupMatchesEquality(t *testing.T) {
	f := func(a, b []int32) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = Value(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = Value(v)
		}
		if len(ta) != len(tb) {
			return true // relations are fixed-arity
		}
		same := true
		for i := range ta {
			if ta[i] != tb[i] {
				same = false
				break
			}
		}
		if same && HashTuple(ta) != HashTuple(tb) {
			return false
		}
		r := NewRelation(len(ta), nil)
		r.Insert(ta)
		return r.Insert(tb) == !same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersAddReset(t *testing.T) {
	a := Counters{TuplesExamined: 1, IndexLookups: 2, FullScans: 3, Inserts: 4}
	b := Counters{TuplesExamined: 10, IndexLookups: 20, FullScans: 30, Inserts: 40}
	a.Add(b)
	if a.TuplesExamined != 11 || a.IndexLookups != 22 || a.FullScans != 33 || a.Inserts != 44 {
		t.Fatalf("Add = %+v", a)
	}
	a.Reset()
	if a != (Counters{}) {
		t.Fatalf("Reset = %+v", a)
	}
}

// TestTuplesSizedByLiveRows: a relation that has retracted nearly all it
// ever held hands out a snapshot sized by what is left, not by its arena
// of tombstones — the standing-query and DRed relations churn like this,
// and snapshot them on every tick.
func TestTuplesSizedByLiveRows(t *testing.T) {
	const inserted, kept = 10000, 10
	r := NewRelation(2, nil)
	for i := 0; i < inserted; i++ {
		r.Insert(Tuple{Value(i), Value(i + 1)})
	}
	for i := kept; i < inserted; i++ {
		if !r.Retract(Tuple{Value(i), Value(i + 1)}) {
			t.Fatalf("retract %d refused", i)
		}
	}
	want := map[tupleKey]bool{}
	r.Scan(func(tup Tuple) bool { want[tkey(tup)] = true; return true })
	got := r.Tuples()
	if len(got) != kept || len(want) != kept {
		t.Fatalf("Tuples has %d rows, Scan %d, want %d", len(got), len(want), kept)
	}
	for _, tup := range got {
		if !want[tkey(tup)] {
			t.Fatalf("Tuples yields %v, Scan does not", tup)
		}
	}
	if c := cap(got); c != kept {
		t.Errorf("Tuples sized for %d rows, %d are live", c, kept)
	}
	if n := testing.AllocsPerRun(20, func() { r.Tuples() }); n > 2 {
		t.Errorf("Tuples allocates %v objects, want two arenas", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		r.Tuples()
	}
	runtime.ReadMemStats(&after)
	// 10 tuple headers and 20 values are 400 bytes. The arena of every row
	// ever appended was 400 KB.
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1024 {
		t.Errorf("Tuples allocates %d bytes for %d live rows", per, kept)
	}
}

// TestTuplesCountsOnlyTheViewsTombstones: rows appended and retracted
// after a view was taken share tombstone words with the view's rows and
// must not shrink its buffer.
func TestTuplesCountsOnlyTheViewsTombstones(t *testing.T) {
	r := NewRelation(1, nil)
	for i := 0; i < 70; i++ {
		r.Insert(Tuple{Value(i)})
	}
	r.Retract(Tuple{Value(3)})
	v := r.store.view()
	for i := 70; i < 100; i++ {
		r.Insert(Tuple{Value(i)})
		r.Retract(Tuple{Value(i)})
	}
	if got := v.live(); got != 69 {
		t.Fatalf("view of 70 rows with one tombstone counts %d live", got)
	}
	if got := len(r.Tuples()); got != 69 {
		t.Fatalf("Tuples = %d rows, want 69", got)
	}
}
