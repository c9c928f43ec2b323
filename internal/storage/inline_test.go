package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInlineRangesMatchModel runs a seeded history through column 0's
// directory of a relation that built it before its first row — so that
// every row is posted and none moves — and after each phase probes every
// key the model holds, and keys around them, against a plain map of each
// key's values in insertion order: LookupTally, LookupKeys, GatherKeys of
// one and two columns, Contains, and the count the key's slot word gives;
// and the same probes of a delta window opened part-way through the
// phase, which trims the ranges that began before it. Each phase checks
// that the directory did what the phase is about:
//
//   - a key's rows inserted one after another extend its inline range in
//     place: its slot word counts them, and the arena holds nothing;
//   - a row of a key after another key's breaks the key's range, which
//     moves to a run;
//   - keys beyond the table's ends grow it, dense, its inline words copied;
//   - far keys turn it hashed, a range of several rows becoming a range
//     entry, which the key's next row moves to a run;
//   - retracting most rows drops the directory; the rebuild, dense again,
//     names contiguous keys inline, and their next rows extend them in
//     place.
func TestInlineRangesMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		inlineRangesMatchModel(t, seed)
	}
}

// inlineRangesMatchModel is TestInlineRangesMatchModel for one seed.
func inlineRangesMatchModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	r := db.Ensure("e", 2)
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true }) // the directory, before any row
	st := r.store
	model, since := dirModel{}, dirModel{}
	stamp, seq := db.Epoch(), Value(0)
	open := func() { stamp, since = db.Epoch(), dirModel{} }
	insert := func(key Value, n int) {
		for range n {
			seq++
			if !r.Insert(Tuple{key, seq}) {
				t.Fatalf("seed %d: insert of %v refused", seed, Tuple{key, seq})
			}
			model[key] = append(model[key], seq)
			since[key] = append(since[key], seq)
		}
	}
	retract := func(key Value) {
		for _, v := range slices.Clone(model[key]) {
			if !r.Retract(Tuple{key, v}) {
				t.Fatalf("seed %d: retraction of %v refused", seed, Tuple{key, v})
			}
			model.retract(key, v)
			since.retract(key, v)
		}
	}
	dir := func() *directory { return st.index(0) }
	// inline reports whether key's slot word names its rows itself, and
	// as many as the model holds.
	inline := func(key Value) bool {
		d := dir()
		w := d.slot(key)
		return w&inlineRow != 0 && int(d.rows(w).n) == len(model[key])
	}
	run := func(key Value) bool {
		d := dir()
		w := d.slot(key)
		return w != 0 && d.rows(w).ids != nil
	}

	check := func(phase string) {
		t.Helper()
		at := fmt.Sprintf("seed %d, %s", seed, phase)
		probes := []Value{-1 << 31, 1<<31 - 1, -100, 500, 1 << 20}
		for k := range model {
			probes = append(probes, k, k-1, k+1)
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		probes = slices.Compact(probes)
		d := dir()
		buf := make(Tuple, 2)
		for _, k := range probes {
			var got []Value
			r.LookupTally([]Binding{{Col: 0, Val: k}}, buf, nil, func(tup Tuple) bool {
				if tup[0] != k {
					t.Fatalf("%s: lookup of %d yielded %v", at, k, tup)
				}
				got = append(got, tup[1])
				return true
			})
			if !slices.Equal(got, model[k]) {
				t.Fatalf("%s: lookup of %d yields %v, model %v", at, k, got, model[k])
			}
			if n := d.count(d.slot(k)); n != len(model[k]) {
				t.Fatalf("%s: key %d counts %d rows, model %d", at, k, n, len(model[k]))
			}
			for _, v := range model[k] {
				if !r.Contains(Tuple{k, v}) {
					t.Fatalf("%s: %v is live, Contains says not", at, Tuple{k, v})
				}
			}
		}
		staged := map[Value][]Value{}
		r.LookupKeys(0, probes, &KeyStage{}, nil, func(i int, tup Tuple) bool {
			if tup[0] != probes[i] {
				t.Fatalf("%s: staged probe of %d yielded %v", at, probes[i], tup)
			}
			staged[tup[0]] = append(staged[tup[0]], tup[1])
			return true
		})
		gathered := func(rel *Relation, outs []int) map[Value][]Value {
			ends := make([]int, len(probes))
			dst := rel.GatherKeys(0, outs, probes, &KeyStage{}, nil, nil, ends)
			out, from := map[Value][]Value{}, 0
			for i, end := range ends {
				for ; from < end; from += len(outs) {
					if len(outs) == 2 && dst[from+1] != probes[i] {
						t.Fatalf("%s: gather of %d read key %d", at, probes[i], dst[from+1])
					}
					out[probes[i]] = append(out[probes[i]], dst[from])
				}
			}
			return out
		}
		one, two := gathered(r, []int{1}), gathered(r, []int{1, 0})
		for _, k := range probes {
			if !slices.Equal(staged[k], model[k]) || !slices.Equal(one[k], model[k]) || !slices.Equal(two[k], model[k]) {
				t.Fatalf("%s: key %d: staged %v, gathered %v and %v, model %v", at, k, staged[k], one[k], two[k], model[k])
			}
		}
		delta, ok := r.DeltaSince(stamp)
		if !ok {
			t.Fatalf("%s: DeltaSince fell back", at)
		}
		if delta.Added == nil {
			if len(since) != 0 {
				t.Fatalf("%s: no window, %d keys inserted since the stamp", at, len(since))
			}
			return
		}
		win := delta.Added
		winOne := gathered(win, []int{1})
		for _, k := range probes {
			var got []Value
			win.Lookup([]Binding{{Col: 0, Val: k}}, func(tup Tuple) bool { got = append(got, tup[1]); return true })
			if !slices.Equal(got, since[k]) || !slices.Equal(winOne[k], since[k]) {
				t.Fatalf("%s: window, key %d: lookup %v, gather %v, model %v", at, k, got, winOne[k], since[k])
			}
		}
	}

	// Keys 0…59, each key's rows one after another: every range extends
	// in place. The window opens half-way, inside key 30's range.
	for k := Value(0); k < 60; k++ {
		n := 1 + rng.Intn(6)
		if k == 30 {
			n = 6
		}
		insert(k, n/2)
		if k == 30 {
			open()
		}
		insert(k, n-n/2)
	}
	d := dir()
	for k := Value(0); k < 60; k++ {
		if !d.dense() || !inline(k) {
			t.Fatalf("seed %d: test premise: key %d's %d rows are not one inline range of a dense table", seed, k, len(model[k]))
		}
	}
	if d.words != 0 {
		t.Fatalf("seed %d: test premise: inline ranges took %d arena words", seed, d.words)
	}
	check("extended in place")

	// A row of a key after another key's: that key's range becomes a run.
	var broken []Value
	for len(broken) < 10 {
		if k := Value(rng.Intn(59)); !slices.Contains(broken, k) {
			broken = append(broken, k)
			insert(k, 1)
		}
	}
	for _, k := range broken {
		if !run(k) {
			t.Fatalf("seed %d: test premise: key %d's range, broken, is no run", seed, k)
		}
	}
	check("contiguity broken")

	// Keys beyond both ends: the dense table grows, and keeps its inline
	// words.
	open()
	for k := Value(60); k < 200; k++ {
		insert(k, 1+rng.Intn(4))
	}
	for k := Value(-1); k >= -40; k-- {
		insert(k, 1+rng.Intn(4))
	}
	if g := dir(); g == d || !g.dense() {
		t.Fatalf("seed %d: test premise: the table did not grow dense", seed)
	}
	for k := Value(-40); k < 200; k++ {
		if !slices.Contains(broken, k) && !inline(k) {
			t.Fatalf("seed %d: test premise: key %d, grown, is not one inline range", seed, k)
		}
	}
	check("grown dense")

	// Far keys turn the table hashed: a range of several rows becomes a
	// range entry, and its key's next row moves it to a run.
	var multi Value = -1
	for k := Value(0); k < 60 && multi < 0; k++ {
		if !slices.Contains(broken, k) && len(model[k]) > 1 {
			multi = k
		}
	}
	insert(1<<28, 1)
	insert(-1<<28, 2)
	h := dir()
	if w := h.slot(multi); h.dense() || w&inlineRow != 0 || h.rows(w).ids != nil || int(h.rows(w).n) != len(model[multi]) {
		t.Fatalf("seed %d: test premise: key %d's range is no range entry of a hashed table", seed, multi)
	}
	check("turned hashed")
	insert(multi, 2)
	if !run(multi) {
		t.Fatalf("seed %d: test premise: key %d's range entry did not move to a run", seed, multi)
	}
	check("hashed range extended")

	// Key 99's rows retracted and three inserted anew, the store's last;
	// then every key but 0…99 retracted: the directory is dropped, and the
	// rebuild over what is left is dense, names key 99's rows by an inline
	// range, and extends it in place with the key's next rows.
	retract(99)
	insert(99, 3)
	atDrop := st.deadAtDrop
	for k := range model {
		if k < 0 || k >= 100 {
			retract(k)
		}
	}
	if st.deadAtDrop == atDrop {
		t.Fatalf("seed %d: test premise: the retractions dropped no directory", seed)
	}
	check("rebuilt")
	rebuilt := dir()
	if !rebuilt.dense() || !inline(99) || len(model[99]) != 3 {
		t.Fatalf("seed %d: test premise: the rebuilt table is not dense with key 99's three rows inline", seed)
	}
	open()
	insert(99, 2)
	if dir() != rebuilt || !inline(99) || rebuilt.words != 0 && rebuilt.abandoned != 0 {
		t.Fatalf("seed %d: test premise: key 99's rows did not extend its range in place after the rebuild", seed)
	}
	check("posted after the rebuild")
}

// TestInlineRangeExtendsBesideReaders puts lock-free readers — LookupTally,
// LookupKeys and GatherKeys of column 0 — beside a writer that posts rows
// key after key, each key's rows one after another, so that the key's
// inline range takes each in place by one store of its slot word: across
// block boundaries, and through the dense table's growth. Now and then a
// row goes to an earlier key instead, whose range then moves to a run. A
// read of a key must find a prefix of the key's rows in insertion order,
// and at least every row whose insert had returned before the read began.
// Run under -race.
func TestInlineRangeExtendsBesideReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const keys = 500
	var order []Value // the key of each row, in insertion order
	for k := Value(0); k < keys; k++ {
		for range 1 + rng.Intn(24) {
			order = append(order, k)
		}
		if rng.Intn(8) == 0 {
			order = append(order, Value(rng.Intn(int(k)+1)))
		}
	}
	// rowsOf[k] are the insertion indices of key k's rows, ascending: the
	// tuple inserted i-th is (order[i], i).
	rowsOf := make([][]Value, keys)
	for i, k := range order {
		rowsOf[k] = append(rowsOf[k], Value(i))
	}
	r := NewRelation(2, nil)
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	var done atomic.Int64
	// read checks what a read of key, begun once floor inserts had
	// returned, found.
	read := func(key Value, floor int64, got []Value) error {
		var want []Value
		if key >= 0 && key < keys {
			want = rowsOf[key]
		}
		at := sort.Search(len(want), func(i int) bool { return int64(want[i]) >= floor })
		if len(got) < at || len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			return fmt.Errorf("key %d, read after %d inserts: got %v, want a prefix of %v of at least %d", key, floor, got, want, at)
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make(Tuple, 2)
			var ks KeyStage
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := Value(rng.Intn(keys+2) - 1)
				list := []Value{key, key + 1, 1 << 30, key - 1}
				floor := done.Load()
				got := make([][]Value, len(list))
				switch rng.Intn(3) {
				case 0:
					for i, k := range list {
						r.LookupTally([]Binding{{Col: 0, Val: k}}, buf, nil, func(tup Tuple) bool {
							got[i] = append(got[i], tup[1])
							return true
						})
					}
				case 1:
					r.LookupKeys(0, list, &ks, nil, func(i int, tup Tuple) bool {
						got[i] = append(got[i], tup[1])
						return true
					})
				default:
					ends := make([]int, len(list))
					dst := r.GatherKeys(0, []int{1}, list, &ks, nil, nil, ends)
					from := 0
					for i, end := range ends {
						got[i] = dst[from:end]
						from = end
					}
				}
				for i, k := range list {
					if err := read(k, floor, got[i]); err != nil {
						errs <- err
						return
					}
				}
				runtime.Gosched()
			}
		}(int64(g))
	}
	for i, k := range order {
		r.Insert(Tuple{k, Value(i)})
		done.Store(int64(i + 1))
		if i%32 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d := r.store.cols[0].Load()
	ranges, runs := 0, 0
	for _, w := range d.slots {
		if w == 0 {
			continue
		}
		if s := d.rows(w); s.ids != nil {
			runs++
		} else if s.n > 1 {
			ranges++
		}
	}
	if !d.dense() || ranges == 0 || runs == 0 || r.store.rows <= 2*blockRows {
		t.Fatalf("test premise: %d inline ranges and %d runs in a dense table %v, over %d rows", ranges, runs, d.dense(), r.store.rows)
	}
}
