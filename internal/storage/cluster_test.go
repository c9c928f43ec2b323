package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// ranges counts the keys column col's directory names by a range: of
// more than one row, in a dense table's slot word or a hashed table's
// range entry.
func ranges(st *store, col int) (n int) {
	d := st.cols[col].Load()
	for _, w := range d.slots {
		if s := d.rows(w); w != 0 && s.ids == nil && s.n > 1 {
			n++
		}
	}
	return n
}

// crossesKeyZero reports whether the key table of column 0 over rows
// [0, p) — the one store.cluster counts by — is hashed and holds a key
// with a row before key 0's first row whose probe path runs over key 0's
// slot: the key a move that read key 0's place 0 in its slot word as an
// empty slot would send to key 0's place.
func crossesKeyZero(st *store, p int) bool {
	t := st.keyTable(0, 0, p)
	if t.dense() {
		return false
	}
	zero := t.probe(0)
	first := map[Value]int{}
	for row := p - 1; row >= 0; row-- {
		first[st.valueAt(row, 0)] = row
	}
	if _, ok := first[0]; !ok {
		return false
	}
	for i, w := range t.slots {
		key := Value(w >> 32)
		if w == 0 || key == 0 || first[key] > first[0] {
			continue
		}
		for j := int(uint32(key-t.base) * t.mul >> t.shift); j != i; j = (j + 1) & (len(t.slots) - 1) {
			if j == zero {
				return true
			}
		}
	}
	return false
}

// probeCounts is the probe half of a Counters.
func probeCounts(c *Counters) Counters {
	s := c.Snapshot()
	return Counters{TuplesExamined: s.TuplesExamined, IndexLookups: s.IndexLookups, FullScans: s.FullScans}
}

// TestClusteredMatchesUnclustered runs one seeded history through a tracked
// relation, whose first directory clusters its rows, and an untracked one,
// whose rows never move, and probes column 0 of both for every key after
// each phase: LookupTally, run whole and stopped after every row;
// LookupKeys over a key list with repeats and misses, stopped after every
// tuple; and GatherKeys. Each must yield the same tuples in the same order
// and count the same probes and rows. The history opens with a window
// handed out and then more inserts than the delta tail keeps, mostly of
// other keys, so that the move stops at the window and leaves keys with
// rows on both sides of it; then posts extend ranges into runs, and
// retractions drop the directories, which rebuild from the live rows.
//
// The keys are 0 to 299, whose key tables are dense, and then the same
// keys spread 7 919 apart, whose tables are hashed; there key 0 comes in
// only after rows of keys whose probe paths run over its slot.
func TestClusteredMatchesUnclustered(t *testing.T) {
	for _, spread := range []int{1, 7919} {
		for seed := int64(1); seed <= 3; seed++ {
			clusteredMatchesUnclustered(t, seed, spread)
		}
	}
}

// clusteredMatchesUnclustered is TestClusteredMatchesUnclustered for one
// seed and key spread.
func clusteredMatchesUnclustered(t *testing.T, seed int64, spread int) {
	rng := rand.New(rand.NewSource(seed))
	// val is key k's value, k times spread — but for keys 1 and 2 of
	// the hashed tables: two values whose probes start at the last
	// slot of a table of any size up to 4 096 slots, so that one of
	// them wraps round to slot 0, key 0's home, before key 0 comes in.
	var wrap []Value
	for v := Value(1); spread > 1 && len(wrap) < 2; v++ {
		if uint32(v)*fibonacci>>20 == 1<<12-1 && int(v)%spread != 0 {
			wrap = append(wrap, v)
		}
	}
	val := func(k int) Value {
		if spread > 1 && (k == 1 || k == 2) {
			return wrap[k-1]
		}
		return Value(k * spread)
	}
	db := NewDatabase()
	clustered := db.Ensure("e", 2)
	var stats Counters
	plain := NewRelation(2, &stats)
	const keys = 300
	insert := func(n, lo, hi int) {
		for i := range n {
			key := lo + rng.Intn(hi-lo)
			if i%50 == 49 {
				key = rng.Intn(keys)
			}
			tup := Tuple{val(key), Value(rng.Intn(4 * keys))}
			if clustered.Insert(tup) != plain.Insert(tup) {
				t.Fatalf("seed %d: the relations disagree on inserting %v", seed, tup)
			}
		}
	}
	if spread == 1 {
		insert(400, 0, keys/2)
	} else {
		insert(200, 1, keys/2)
		insert(1, 0, 1)
		insert(199, 0, keys)
	}
	stamp := db.Epoch()
	insert(60, 0, keys/2)
	if d, _ := clustered.DeltaSince(stamp); d.Added == nil {
		t.Fatalf("seed %d: test premise: no window", seed)
	}
	insert(deltaTailBound+deltaTailBound/2, keys/2, keys)

	compare := func(phase string) {
		t.Helper()
		probe := func(r *Relation, c *Counters, f func(r *Relation) []string) ([]string, Counters) {
			before := probeCounts(c)
			got := f(r)
			return got, probeCounts(c).Sub(before)
		}
		same := func(what string, f func(r *Relation) []string) {
			t.Helper()
			a, ca := probe(clustered, &db.Stats, f)
			b, cb := probe(plain, &stats, f)
			if !slices.Equal(a, b) || ca != cb {
				t.Fatalf("seed %d, spread %d, %s, %s:\nclustered %v %+v\nplain     %v %+v", seed, spread, phase, what, a, ca, b, cb)
			}
		}
		for k := range keys + 2 {
			key := val(k)
			var n int
			plain.Lookup([]Binding{{Col: 0, Val: key}}, func(Tuple) bool { n++; return true })
			for stop := 1; stop <= max(n, 1); stop++ {
				same(fmt.Sprintf("LookupTally of %d stopped after %d", key, stop), func(r *Relation) (got []string) {
					buf := make(Tuple, 2)
					r.LookupTally([]Binding{{Col: 0, Val: key}}, buf, nil, func(tup Tuple) bool {
						got = append(got, fmt.Sprint(tup))
						return len(got) < stop
					})
					return got
				})
			}
		}
		list := make([]Value, 24)
		for i := range list {
			list[i] = val(rng.Intn(keys + 2))
		}
		var total int
		plain.LookupKeys(0, list, &KeyStage{}, nil, func(int, Tuple) bool { total++; return true })
		for stop := 0; stop <= total; stop++ {
			same(fmt.Sprintf("LookupKeys stopped after %d", stop), func(r *Relation) (got []string) {
				r.LookupKeys(0, list, &KeyStage{}, nil, func(k int, tup Tuple) bool {
					got = append(got, fmt.Sprint(k, tup))
					return len(got) < stop
				})
				return got
			})
		}
		all := make([]Value, keys+2)
		for i := range all {
			all[i] = val(i)
		}
		for _, outs := range [][]int{{1}, {1, 0}} {
			same(fmt.Sprintf("GatherKeys of %v", outs), func(r *Relation) []string {
				ends := make([]int, len(all))
				dst := r.GatherKeys(0, outs, all, &KeyStage{}, nil, nil, ends)
				return []string{fmt.Sprint(dst), fmt.Sprint(ends)}
			})
		}
	}

	if spread > 1 && !crossesKeyZero(clustered.store, int(clustered.store.fixedFrom.Load())) {
		t.Fatalf("seed %d: test premise: no key's probe path runs over key 0's slot before key 0's first row", seed)
	}
	compare("first directory")
	if ranges(clustered.store, 0) < keys/8 {
		t.Fatalf("seed %d: test premise: the first directory names %d keys by a range", seed, ranges(clustered.store, 0))
	}
	if tail := clustered.store.tail[0].row; tail == clustered.store.rows || clustered.store.fixedFrom.Load() >= int64(tail) {
		t.Fatalf("seed %d: test premise: the window's rows are not below the tail's (%d)", seed, tail)
	}
	insert(300, 0, keys)
	compare("after posts")
	var live []Tuple
	for _, tup := range plain.Tuples() {
		live = append(live, tup.Clone())
	}
	for i, tup := range live {
		if i%3 != 0 && clustered.Retract(tup) != plain.Retract(tup) {
			t.Fatalf("seed %d: the relations disagree on retracting %v", seed, tup)
		}
	}
	if clustered.store.cols[0].Load() != nil {
		t.Fatalf("seed %d: test premise: the retractions dropped no directory", seed)
	}
	compare("rebuilt after compaction")
	insert(200, 0, keys)
	compare("posted after the rebuild")
}

// TestWindowOutlivesItsTailEntries hands out a DeltaSince window, pushes
// more inserts than the delta tail keeps so that no tail entry names the
// window's rows any more, and only then builds the relation's first
// directory, which clusters the rows below the tail. The window must still
// read exactly its tuples, in their insertion order, and a DeltaSince
// inside the tail must read the same before the move and after it, and
// match a plain-map model.
func TestWindowOutlivesItsTailEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := NewDatabase()
	r := db.Ensure("e", 2)
	var history []Tuple // accepted inserts, in order
	stamps := []uint64{}
	insert := func(n int, keys Value) {
		for range n {
			tup := Tuple{keys + Value(rng.Intn(200)), Value(rng.Intn(1000))}
			stamps = append(stamps, db.Epoch())
			if r.Insert(tup) {
				history = append(history, tup)
			} else {
				stamps = stamps[:len(stamps)-1]
			}
		}
	}
	insert(500, 0)
	from := len(history)
	stamp := db.Epoch()
	insert(100, 0)
	win, ok := r.DeltaSince(stamp)
	if !ok || win.Added == nil {
		t.Fatal("no window")
	}
	wantWin := fmt.Sprint(history[from:])
	insert(deltaTailBound+300, 200)
	if tail := r.store.tail[0].row; tail <= from+100 {
		t.Fatalf("test premise: the tail still names row %d of the window", tail)
	}
	late := len(history) - 200
	model := func() string {
		got := slices.Clone(history[late:])
		slices.SortFunc(got, func(a, b Tuple) int { return slices.Compare(a, b) })
		return fmt.Sprint(got)
	}
	delta := func() string {
		d, ok := r.DeltaSince(stamps[late])
		if !ok || len(d.Removed) != 0 {
			t.Fatalf("DeltaSince(%d): ok %v, removed %v", stamps[late], ok, d.Removed)
		}
		got := added(d)
		slices.SortFunc(got, func(a, b Tuple) int { return slices.Compare(a, b) })
		return fmt.Sprint(got)
	}
	before := delta()
	if before != model() {
		t.Fatalf("before the move: DeltaSince %s, model %s", before, model())
	}
	order := fmt.Sprint(r.Tuples())
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	if fmt.Sprint(r.Tuples()) == order {
		t.Fatal("test premise: the first directory moved no row")
	}
	if after := delta(); after != before {
		t.Fatalf("DeltaSince before the move %s, after it %s", before, after)
	}
	if got := fmt.Sprint(win.Added.Tuples()); got != wantWin {
		t.Fatalf("the window reads %s, want %s", got, wantWin)
	}
	for key := Value(0); key < 200; key++ {
		var want, got []string
		for _, tup := range history[from : from+100] {
			if tup[0] == key {
				want = append(want, fmt.Sprint(tup))
			}
		}
		win.Added.Lookup([]Binding{{Col: 0, Val: key}}, func(tup Tuple) bool {
			got = append(got, fmt.Sprint(tup))
			return true
		})
		ends := make([]int, 1)
		gathered := win.Added.GatherKeys(0, []int{0, 1}, []Value{key}, &KeyStage{}, nil, nil, ends)
		if !slices.Equal(got, want) || len(gathered) != 2*len(want) {
			t.Fatalf("window, key %d: Lookup %v, GatherKeys %v, want %v", key, got, gathered, want)
		}
	}
}

// TestClusterBesideReaders puts readers — Scan, and GatherKeys of column
// 0, the first of which builds the first directory and so clusters the
// rows — on a relation at once, round after round, and a writer that,
// once the directory is there, retracts some of the moved tuples: a
// reader on the old block list must finish on it, and one on the new list
// must find every key's rows where the directory says, in insertion
// order. Each must yield every tuple that was live all through its call,
// and none that never was. The keys of the last inserts, which the delta
// tail names and which do not move, are others than those of the rows
// before them.
func TestClusterBesideReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		db := NewDatabase()
		r := db.Ensure("e", 2)
		const keys = 400
		want := make([][]Value, keys)
		set, gone := map[tupleKey]bool{}, map[tupleKey]bool{}
		var retract []Tuple
		for i := range 3000 + deltaTailBound {
			tup := Tuple{Value(rng.Intn(keys / 2)), Value(rng.Intn(5000))}
			if i >= 3000 {
				tup[0] += keys / 2
			}
			if r.Insert(tup) {
				want[tup[0]] = append(want[tup[0]], tup[1])
				set[tkey(tup)] = true
				if i%100 == 0 {
					retract = append(retract, tup)
					gone[tkey(tup)] = true
				}
			}
		}
		// kept reports whether got is want less some retracted values of
		// key, in want's order.
		kept := func(key Value, got, want []Value) bool {
			i := 0
			for _, v := range want {
				if i < len(got) && got[i] == v {
					i++
				} else if !gone[tkey(Tuple{key, v})] {
					return false
				}
			}
			return i == len(got)
		}
		all := make([]Value, keys)
		for i := range all {
			all[i] = Value(i)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r.store.cols[0].Load() == nil {
				runtime.Gosched()
			}
			for _, tup := range retract {
				r.Retract(tup)
				runtime.Gosched()
			}
		}()
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for range 5 {
					if g%2 == 0 {
						seen := map[tupleKey]bool{}
						for tup := range r.Scan {
							if !set[tkey(tup)] || seen[tkey(tup)] {
								errs <- fmt.Errorf("round %d: Scan yielded %v", round, tup)
								return
							}
							seen[tkey(tup)] = true
						}
						for k := range set {
							if !seen[k] && !gone[k] {
								errs <- fmt.Errorf("round %d: Scan missed %v", round, k)
								return
							}
						}
						continue
					}
					ends := make([]int, keys)
					dst := r.GatherKeys(0, []int{1}, all, &KeyStage{}, nil, nil, ends)
					for k, at := range ends {
						from := 0
						if k > 0 {
							from = ends[k-1]
						}
						if !kept(Value(k), dst[from:at], want[k]) {
							errs <- fmt.Errorf("round %d: key %d gathered %v, want %v", round, k, dst[from:at], want[k])
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if ranges(r.store, 0) == 0 {
			t.Fatalf("round %d: test premise: the first directory named no range", round)
		}
	}
}

// TestRetractAfterClusterSparesOldTombstones stands where a lock-free
// reader can stand: between its load of the block list, made before the
// first directory moved the rows, and its load of whether the store has
// tombstones, made after a retraction that followed the move. Read through
// the old list with the tombstone bitsets that list carries, every tuple
// there must still be there but the retracted one.
func TestRetractAfterClusterSparesOldTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDatabase()
	r := db.Ensure("e", 2)
	for i := range 3000 + deltaTailBound {
		tup := Tuple{Value(rng.Intn(200)), Value(rng.Intn(5000))}
		if i >= 3000 {
			tup[0] += 200
		}
		r.Insert(tup)
	}
	st := r.store
	rows, old := int(st.rowsPublished.Load()), st.published.Load()
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	was := storeView{blocks: old.blocks, rows: rows}
	now := st.view()
	moved := -1
	a, b := make(Tuple, 2), make(Tuple, 2)
	for row := range rows {
		was.read(row, a)
		if now.read(row, b); !slices.Equal(a, b) {
			moved = row
			break
		}
	}
	if moved < 0 {
		t.Fatal("test premise: the first directory moved no row")
	}
	// The tuple now at row moved is retracted, which sets row moved's bit;
	// on the old blocks that row is another tuple, live throughout.
	now.read(moved, b)
	if !r.Retract(b) {
		t.Fatalf("retracting %v", b)
	}
	was.dead = old.dead
	var got, want []string
	for row := range rows {
		if was.read(row, a); !slices.Equal(a, b) {
			want = append(want, fmt.Sprint(a))
		}
		if !was.isDead(row) && !slices.Equal(a, b) {
			got = append(got, fmt.Sprint(a))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("through the old blocks, %d of the %d tuples live throughout read as live", len(got), len(want))
	}
}
