package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// Shape of the relations TestDeltaWindowMatchesModel drives: arity two,
// few enough values per column that a key holds runs of rows.
const (
	winKeys0 = 12
	winKeys1 = 20
)

// winModel is the plain-map model of a tracked relation from a stamp on:
// the live set, and which tuples' live rows were inserted after the stamp
// (the netted inserts) or retracted after it and are not live again (the
// netted retractions).
type winModel struct {
	live, since, gone map[tupleKey]bool
}

func (m *winModel) insert(k tupleKey) {
	m.live[k], m.since[k] = true, true
	delete(m.gone, k)
}

func (m *winModel) retract(k tupleKey) {
	delete(m.live, k)
	delete(m.since, k)
	m.gone[k] = true
}

// renderSet is a sorted rendering of a tuple set, for failure messages
// and comparisons alike.
func renderSet(set map[tupleKey]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, fmt.Sprint(k[1:3]))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestDeltaWindowMatchesModel is DeltaSince's window contract as a seeded
// property. Random batches of inserts, retractions and re-inserts run
// against a plain-map model, before a stamp and after it; then the window
// DeltaSince(stamp) returns must hold exactly the model's netted inserts
// since the stamp, and every probe of it return exactly the window's live
// matches — LookupTally with one binding and with two, LookupKeys, Scan,
// Contains, Tuples — on each column, with the base relation's directory
// for that column built or not. A window never builds a base directory.
// Inserts after DeltaSince never enter the window, any write to it
// panics, and ok is false once the tail evicted what a stamp needs. The
// posting runs a window trims by binary search are checked ascending after
// every batch — through run moves, directory growth and the rebuild after
// a tombstone compaction, each of which the test sees happen. Last, a
// writer appends beside goroutines probing a window (run under -race).
func TestDeltaWindowMatchesModel(t *testing.T) {
	var moved, grown, rebuilt bool
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		r := db.Ensure("e", 2)
		st := r.store
		m := &winModel{live: map[tupleKey]bool{}, since: map[tupleKey]bool{}, gone: map[tupleKey]bool{}}
		random := func() Tuple { return Tuple{Value(rng.Intn(winKeys0)), Value(100 + rng.Intn(winKeys1))} }
		// The directories a trial keeps built: none, either column's, or both.
		dirs := rng.Intn(4)
		build := func() {
			for col := 0; col < 2; col++ {
				if dirs>>col&1 == 1 {
					r.Lookup([]Binding{{Col: col, Val: 0}}, func(Tuple) bool { return true })
				}
			}
		}
		// batch commits one random run: inserts (fresh tuples and tuples
		// retracted before), or retractions of live tuples and misses.
		batch := func() {
			run := make([]Tuple, 1+rng.Intn(12))
			del := rng.Intn(2) == 0
			atDrop := st.deadAtDrop
			for i := range run {
				run[i] = random()
			}
			accepted := 0
			for _, tup := range run {
				k := tkey(tup)
				switch {
				case del && m.live[k]:
					m.retract(k)
					accepted++
				case !del && !m.live[k]:
					m.insert(k)
					accepted++
				}
			}
			var n int
			if del {
				n = r.RetractBatch(run)
			} else {
				n = r.InsertBatch(run)
			}
			if n != accepted {
				t.Fatalf("seed %d: a run of %d accepted %d, model %d", seed, len(run), n, accepted)
			}
			if st.deadAtDrop != atDrop && dirs != 0 {
				// A compaction dropped the directories: rebuild them.
				build()
				rebuilt = true
			}
			checkRunsAscending(t, st)
		}
		build()
		for i := rng.Intn(120); i > 0; i-- {
			batch()
		}
		stamp := db.Epoch()
		clear(m.since)
		clear(m.gone)
		for i := 1 + rng.Intn(40); i > 0; i-- {
			batch()
		}
		for col := range st.cols {
			if d := st.cols[col].Load(); d != nil {
				moved = moved || d.abandoned > 0
				grown = grown || len(d.slots) > minDirSlots
			}
		}
		d, ok := r.DeltaSince(stamp)
		if !ok {
			t.Fatalf("seed %d: DeltaSince fell back within the tail", seed)
		}
		if d.Empty() != (len(m.since) == 0 && len(m.gone) == 0) {
			t.Fatalf("seed %d: Empty() = %v, model since=%d gone=%d", seed, d.Empty(), len(m.since), len(m.gone))
		}
		if got := tupleSet(d.Removed); renderSet(got) != renderSet(m.gone) {
			t.Fatalf("seed %d: Removed %s, model %s", seed, renderSet(got), renderSet(m.gone))
		}
		if d.Added == nil {
			if len(m.since) != 0 {
				t.Fatalf("seed %d: no window, model inserted %s", seed, renderSet(m.since))
			}
			continue
		}
		unbuilt := [2]bool{st.cols[0].Load() == nil, st.cols[1].Load() == nil}
		checkWindow(t, fmt.Sprintf("seed %d", seed), d.Added, m.since)
		// Fresh tuples and re-inserts land after the window.
		for i := 0; i < 30; i++ {
			tup := random()
			if !m.live[tkey(tup)] {
				m.live[tkey(tup)] = true
				r.Insert(tup)
			}
		}
		checkWindow(t, fmt.Sprintf("seed %d after inserts", seed), d.Added, m.since)
		for col, none := range unbuilt {
			if none && st.cols[col].Load() != nil {
				t.Fatalf("seed %d: probing the window built the base relation a directory on column %d", seed, col)
			}
		}
		checkWindowWritesPanic(t, r, d.Added)
	}
	if !moved || !grown || !rebuilt {
		t.Fatalf("test premise: runs moved %v, directories grew %v, rebuilt after a compaction %v", moved, grown, rebuilt)
	}

	// Tail eviction: past the bound, a stamp before it falls back, and one
	// after it is still served.
	db := NewDatabase()
	r := db.Ensure("e", 2)
	stamp := db.Epoch()
	for i := 0; i <= deltaTailBound; i++ {
		r.Insert(Tuple{Value(i), Value(i)})
	}
	if _, ok := r.DeltaSince(stamp); ok {
		t.Fatal("DeltaSince served a stamp the tail evicted")
	}
	if d, ok := r.DeltaSince(db.Epoch() - 5); !ok || d.Added.Len() != 5 {
		t.Fatalf("DeltaSince of the last five inserts: ok=%v", ok)
	}

	windowBesideWriter(t)
}

// checkWindow compares every read of window w with want, its tuple set.
func checkWindow(t *testing.T, at string, w *Relation, want map[tupleKey]bool) {
	t.Helper()
	if w.Len() != len(want) {
		t.Fatalf("%s: window Len %d, model %d", at, w.Len(), len(want))
	}
	if got := tupleSet(w.Tuples()); renderSet(got) != renderSet(want) {
		t.Fatalf("%s: window Tuples %s, model %s", at, renderSet(got), renderSet(want))
	}
	collect := func(probe func(yield func(Tuple) bool)) map[tupleKey]bool {
		got := map[tupleKey]bool{}
		probe(func(tup Tuple) bool {
			got[tkey(tup)] = true
			return true
		})
		return got
	}
	matching := func(keep func(k tupleKey) bool) map[tupleKey]bool {
		out := map[tupleKey]bool{}
		for k := range want {
			if keep(k) {
				out[k] = true
			}
		}
		return out
	}
	same := func(what string, got, want map[tupleKey]bool) {
		t.Helper()
		if renderSet(got) != renderSet(want) {
			t.Fatalf("%s: %s yields %s, model %s", at, what, renderSet(got), renderSet(want))
		}
	}
	same("Scan", collect(w.Scan), want)
	keys := [2][]Value{}
	for v := 0; v < winKeys0+2; v++ {
		keys[0] = append(keys[0], Value(v))
	}
	for v := 98; v < 100+winKeys1+2; v++ {
		keys[1] = append(keys[1], Value(v))
	}
	var ks KeyStage
	for col := 0; col < 2; col++ {
		for _, v := range keys[col] {
			got := collect(func(yield func(Tuple) bool) { w.LookupTally([]Binding{{Col: col, Val: v}}, make(Tuple, 2), nil, yield) })
			same(fmt.Sprintf("LookupTally(col %d = %d)", col, v), got, matching(func(k tupleKey) bool { return k[1+col] == v }))
		}
		staged := map[int]map[tupleKey]bool{}
		w.LookupKeys(col, keys[col], &ks, nil, func(at int, tup Tuple) bool {
			if staged[at] == nil {
				staged[at] = map[tupleKey]bool{}
			}
			staged[at][tkey(tup)] = true
			return true
		})
		for at, v := range keys[col] {
			same(fmt.Sprintf("LookupKeys(col %d = %d)", col, v), staged[at], matching(func(k tupleKey) bool { return k[1+col] == v }))
		}
	}
	for _, v0 := range keys[0] {
		for _, v1 := range keys[1] {
			b := []Binding{{Col: 0, Val: v0}, {Col: 1, Val: v1}}
			if v0%2 == 1 {
				b[0], b[1] = b[1], b[0]
			}
			got := collect(func(yield func(Tuple) bool) { w.LookupTally(b, make(Tuple, 2), nil, yield) })
			want := matching(func(k tupleKey) bool { return k[1] == v0 && k[2] == v1 })
			same(fmt.Sprintf("LookupTally(%d, %d)", v0, v1), got, want)
			if in := len(want) == 1; w.Contains(Tuple{v0, v1}) != in {
				t.Fatalf("%s: window Contains(%d, %d) = %v, model %v", at, v0, v1, !in, in)
			}
		}
	}
}

// checkWindowWritesPanic checks that every write to window w panics, and
// that none reaches its base relation.
func checkWindowWritesPanic(t *testing.T, base, w *Relation) {
	t.Helper()
	tup := Tuple{1000, 1000}
	baseLen, winLen := base.Len(), w.Len()
	for name, write := range map[string]func(){
		"Insert":      func() { w.Insert(tup) },
		"Offer":       func() { w.Offer(tup) },
		"InsertBatch": func() { w.InsertBatch([]Tuple{tup}) },
		"Retract":     func() { w.Retract(tup) },
		"RetractBatch": func() {
			w.RetractBatch(w.Tuples())
		},
		"Reset": w.Reset,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a window did not panic", name)
				}
			}()
			write()
		}()
	}
	if base.Len() != baseLen || w.Len() != winLen || len(w.Tuples()) != winLen || base.Contains(tup) {
		t.Fatalf("a write to a window reached it or its base relation")
	}
}

// checkRunsAscending checks every posting run of st's built directories
// holds its row ids in ascending order, which window.trim relies on.
func checkRunsAscending(t *testing.T, st *store) {
	t.Helper()
	for col := range st.cols {
		d := st.cols[col].Load()
		if d == nil {
			continue
		}
		for _, w := range d.slots {
			if w == 0 || w&inlineRow != 0 {
				continue
			}
			run := runIDs(d.room(uint32(w)))
			for i := 1; i < len(run); i++ {
				if run[i-1] >= run[i] {
					t.Fatalf("column %d, key %d: run %v is not ascending", col, Value(w>>32), run)
				}
			}
		}
	}
}

// windowBesideWriter probes a window from several goroutines while a
// writer appends to its base relation — block appends, run moves and
// directory growth — and every probe must still find exactly the window.
func windowBesideWriter(t *testing.T) {
	db := NewDatabase()
	r := db.Ensure("e", 2)
	for i := 0; i < 300; i++ {
		r.Insert(Tuple{Value(i % 7), Value(i)})
	}
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	stamp := db.Epoch()
	want := map[tupleKey]bool{}
	for i := 300; i < 340; i++ {
		tup := Tuple{Value(i % 7), Value(i)}
		r.Insert(tup)
		want[tkey(tup)] = true
	}
	d, ok := r.DeltaSince(stamp)
	if !ok {
		t.Fatal("DeltaSince fell back within the tail")
	}
	w := d.Added
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 340; i < 340+3*blockRows; i++ {
			select {
			case <-stop:
				return
			default:
				r.Insert(Tuple{Value(i % 7), Value(i)})
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var ks KeyStage
			keys := []Value{0, 1, 2, 3, 4, 5, 6}
			for iter := 0; iter < 200; iter++ {
				n := 0
				switch iter % 3 {
				case 0:
					w.Scan(func(Tuple) bool { n++; return true })
				case 1:
					w.LookupKeys(0, keys, &ks, nil, func(int, Tuple) bool { n++; return true })
				default:
					for _, k := range keys {
						// Column 1 has no base directory: the window indexes it.
						w.Lookup([]Binding{{Col: 0, Val: k}}, func(Tuple) bool { n++; return true })
						w.Lookup([]Binding{{Col: 1, Val: Value(300 + int(k))}}, func(tup Tuple) bool {
							if !want[tkey(tup)] {
								t.Errorf("window probe yielded %v", tup)
							}
							return true
						})
					}
				}
				if n != len(want) {
					t.Errorf("reader %d: a window probe found %d rows, want %d", g, n, len(want))
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
