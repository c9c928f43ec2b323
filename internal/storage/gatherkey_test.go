package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGatherKeyMatchesGatherKeys is the lone-key read's contract: for
// every kind of slot word — a dense table's inline row and inline range,
// a hashed table's inline row, a run, a tombstoned row, an absent key, a
// key beyond a dense table's ends — and on a DeltaSince window, GatherKey
// of one key gives the values GatherKeys of that key appends, in the same
// order, and moves the Counters, or a tally, by the same counts. It hands
// the value back by value exactly when one column is wanted and the key's
// slot word names its one row, live; then dst is left as it was.
func TestGatherKeyMatchesGatherKeys(t *testing.T) {
	db := NewDatabase()
	seen := map[string]int{}
	byValue := 0
	// check compares the two reads of every key of keys on rel, whose
	// slot words kind names.
	check := func(what string, rel *Relation, keys []Value, kind func(Value) string) {
		t.Helper()
		for _, key := range keys {
			k := kind(key)
			seen[k]++
			for _, outs := range [][]int{{1}, {1, 0}, {0}} {
				name := fmt.Sprintf("%s, key %d (%s), outs %v", what, key, k, outs)
				ends := make([]int, 1)
				before := db.Stats.Snapshot()
				want := rel.GatherKeys(0, outs, []Value{key}, &KeyStage{}, nil, []Value{-7}, ends)
				wantMoved := db.Stats.Snapshot().Sub(before)

				dst := make([]Value, 1, 4)
				dst[0] = -7
				before = db.Stats.Snapshot()
				v, one, got := rel.GatherKey(0, outs, key, nil, dst)
				moved := db.Stats.Snapshot().Sub(before)
				if one {
					byValue++
					if len(got) != 1 || &got[0] != &dst[0] {
						t.Fatalf("%s: returned a value and grew dst to %v", name, got)
					}
					got = append(got, v)
				}
				if !slices.Equal(got, want) || ends[0] != len(want) || moved != wantMoved {
					t.Fatalf("%s:\nGatherKey  %v (by value %v, counters %+v)\nGatherKeys %v, end %d (counters %+v)", name, got, one, moved, want, ends[0], wantMoved)
				}
				lone := rel.win == nil && len(outs) == 1 && (k == "dense inline row" || k == "hashed inline row")
				if one != lone {
					t.Fatalf("%s: by value %v, want %v", name, one, lone)
				}

				tally := db.Stats.Tally()
				before = db.Stats.Snapshot()
				rel.GatherKey(0, outs, key, &tally, nil)
				if moved := db.Stats.Snapshot().Sub(before); moved != (Counters{}) || tally.n != wantMoved {
					t.Fatalf("%s: tallied read moved the Counters by %+v and the tally by %+v, want %+v", name, moved, tally.n, wantMoved)
				}
			}
		}
	}
	// kindOf names the slot word of key in column 0's directory of rel.
	kindOf := func(rel *Relation, dead map[Value]bool) func(Value) string {
		return func(key Value) string {
			d := rel.store.index(0)
			w := d.slot(key)
			switch {
			case w == 0 && d.dense() && (key < d.base || int(key-d.base) >= len(d.slots)):
				return "beyond a dense table"
			case w == 0:
				return "absent"
			case dead[key]:
				return "tombstoned row"
			case w&inlineRow == 0:
				return "run"
			case !d.dense():
				return "hashed inline row"
			case d.rows(w).n == 1:
				return "dense inline row"
			default:
				return "dense inline range"
			}
		}
	}

	// A dense table built before its first row, so that every row is
	// posted: keys 0–9 and 14 one row each, key 10 four rows one after
	// another (an inline range), keys 11 and 12 alternating (runs), key 13
	// none. Key 5's row and one row each of keys 10 and 11 are then
	// retracted.
	dense := db.Ensure("dense", 2)
	dense.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	seq := Value(100)
	insert := func(r *Relation, key Value) {
		seq++
		if !r.Insert(Tuple{key, seq}) {
			t.Fatalf("insert of %v refused", Tuple{key, seq})
		}
	}
	for k := Value(0); k < 10; k++ {
		insert(dense, k)
	}
	for range 4 {
		insert(dense, 10)
	}
	for range 3 {
		insert(dense, 11)
		insert(dense, 12)
	}
	insert(dense, 14)
	retract := func(r *Relation, key Value, nth int) {
		var rows []Value
		r.Lookup([]Binding{{Col: 0, Val: key}}, func(tup Tuple) bool { rows = append(rows, tup[1]); return true })
		if !r.Retract(Tuple{key, rows[nth]}) {
			t.Fatalf("retraction of row %d of key %d refused", nth, key)
		}
	}
	retract(dense, 5, 0)
	retract(dense, 10, 1)
	retract(dense, 11, 2)
	keys := []Value{-5, -1, 0, 3, 5, 9, 10, 11, 12, 13, 14, 15, 1000}
	check("dense", dense, keys, kindOf(dense, map[Value]bool{5: true}))
	if d := dense.store.index(0); !d.dense() {
		t.Fatal("test premise: consecutive keys made a hashed table")
	}

	// A hashed table: keys a thousand apart, one row each, and one key
	// with two rows apart (a run); one lone row retracted.
	hashed := db.Ensure("hashed", 2)
	hashed.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	for k := Value(0); k < 8; k++ {
		insert(hashed, 1000*k)
	}
	insert(hashed, 3000)
	retract(hashed, 5000, 0)
	keys = []Value{0, 1000, 3000, 5000, 7000, 500, 9000, -1000}
	check("hashed", hashed, keys, kindOf(hashed, map[Value]bool{5000: true}))
	if d := hashed.store.index(0); d.dense() {
		t.Fatal("test premise: keys a thousand apart made a dense table")
	}

	// A window: the rows inserted since stamp, lone rows, a range and a
	// run among them, probed through the window — where nothing is
	// counted and nothing is returned by value — and beside rows it does
	// not hold.
	stamp := db.Epoch()
	for k := Value(15); k < 19; k++ {
		insert(dense, k)
	}
	insert(dense, 10)
	insert(dense, 11)
	win, ok := dense.DeltaSince(stamp)
	if !ok || win.Added == nil {
		t.Fatalf("test premise: no insert window (ok %v)", ok)
	}
	keys = []Value{0, 10, 11, 15, 18, 19, 1000}
	check("window", win.Added, keys, func(Value) string { return "window" })

	for _, k := range []string{"dense inline row", "dense inline range", "hashed inline row", "run", "tombstoned row", "absent", "beyond a dense table", "window"} {
		if seen[k] == 0 {
			t.Errorf("test premise: no key's slot word was a %s (%v)", k, seen)
		}
	}
	if byValue == 0 {
		t.Error("test premise: no read returned its value by value")
	}
}

// TestGatherKeyBesideWriter puts lock-free GatherKey readers — one column
// wanted, and two — beside a writer that posts rows key after key, so that
// a key's lone row becomes an inline range by one store of its slot word,
// or, when a row of an earlier key comes between, a run; that retracts
// some keys' rows again, setting their tombstone bits; and that turns the
// table hashed half-way with a far key. A read of a key must find, in
// insertion order, only rows that were live at some instant during it, and
// every row inserted before it began and not retracted before it ended.
// Run under -race. (A block list loaded before the slot word is caught by
// gatherBesideWriter, which reads the writer's newest key through
// GatherKey as its block opens.)
func TestGatherKeyBesideWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const keys = 800
	far := Value(1 << 20)
	// The writer's operations, in order: insert (key, i) for the i-th, or
	// retract the row inserted at op gone.
	type op struct {
		key  Value
		gone int
	}
	var ops []op
	insert := func(k Value) { ops = append(ops, op{key: k, gone: -1}) }
	for k := Value(0); k < keys; k++ {
		if k == keys/2 {
			insert(far)
		}
		for range 1 + rng.Intn(3) {
			insert(k)
		}
		if rng.Intn(6) == 0 {
			insert(Value(rng.Intn(int(k) + 1)))
		}
		if rng.Intn(5) == 0 {
			// Retract a row of a recent key.
			for back := len(ops) - 1; back >= 0 && back >= len(ops)-8; back-- {
				if o := ops[back]; o.gone < 0 && o.key != far && rng.Intn(2) == 0 {
					ops = append(ops, op{key: o.key, gone: back})
					break
				}
			}
		}
	}
	// Per row (by its insert op): the op that retracts it, or len(ops).
	retracted := make([]int, len(ops))
	for i := range retracted {
		retracted[i] = len(ops)
	}
	rowsOf := map[Value][]int{}
	for i, o := range ops {
		if o.gone >= 0 {
			retracted[o.gone] = i
		} else {
			rowsOf[o.key] = append(rowsOf[o.key], i)
		}
	}
	r := NewRelation(2, nil)
	r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
	// started counts the ops begun, done those returned.
	var started, done atomic.Int64
	// read checks what a read of key found, begun once floor ops had
	// returned and ended before ceil had begun.
	read := func(key Value, floor, ceil int64, got []Value) error {
		at := 0
		for _, row := range rowsOf[key] {
			present := at < len(got) && got[at] == Value(row)
			must := int64(row) < floor && int64(retracted[row]) >= ceil
			may := int64(row) < ceil && int64(retracted[row]) >= floor
			if present && !may || !present && must {
				return fmt.Errorf("key %d, read over ops [%d, %d): got %v; row %d (retracted at op %d) present %v", key, floor, ceil, got, row, retracted[row], present)
			}
			if present {
				at++
			}
		}
		if at != len(got) {
			return fmt.Errorf("key %d, read over ops [%d, %d): got %v, rows %v", key, floor, ceil, got, rowsOf[key])
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var byValue, appended atomic.Int64
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var dst []Value
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := Value(rng.Intn(keys+2) - 1)
				if rng.Intn(50) == 0 {
					key = far
				}
				outs := []int{1}
				if rng.Intn(2) == 0 {
					outs = []int{1, 0}
				}
				floor := done.Load()
				v, one, grown := r.GatherKey(0, outs, key, nil, dst[:0])
				ceil := started.Load()
				var got []Value
				if one {
					got = []Value{v}
					byValue.Add(1)
				} else {
					for i := 0; i < len(grown); i += len(outs) {
						if len(outs) == 2 && grown[i+1] != key {
							errs <- fmt.Errorf("key %d: gathered a row of key %d", key, grown[i+1])
							return
						}
						got = append(got, grown[i])
					}
					if len(got) > 0 {
						appended.Add(1)
					}
				}
				dst = grown
				if err := read(key, floor, ceil, got); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}(int64(g))
	}
	for i, o := range ops {
		started.Store(int64(i + 1))
		if o.gone >= 0 {
			r.Retract(Tuple{o.key, Value(o.gone)})
		} else {
			r.Insert(Tuple{o.key, Value(i)})
		}
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
	runs, lone := 0, 0
	for _, w := range d.slots {
		switch {
		case w == 0:
		case w&inlineRow == 0:
			runs++
		case d.rows(w).n == 1:
			lone++
		}
	}
	if d.dense() || runs == 0 || lone == 0 || byValue.Load() == 0 || appended.Load() == 0 || r.store.rows <= blockRows {
		t.Fatalf("test premise: dense %v, %d runs and %d lone rows over %d rows; %d reads by value, %d appended", d.dense(), runs, lone, r.store.rows, byValue.Load(), appended.Load())
	}
}
