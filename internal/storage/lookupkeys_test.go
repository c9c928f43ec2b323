package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// keyed is one yield of a many-key probe: the key's ordinal and the tuple,
// rendered.
type keyed struct {
	k   int
	tup string
}

// TestLookupKeysMatchesSerialLookups is the staged probe's contract as a
// seeded property: over random relations — arity 1 to 5, tombstones, a
// compaction on the way — and random key lists with misses and
// duplicates, on every column, LookupKeys yields the (ordinal, tuple) sequence of one single-binding
// Lookup per key. Run to the end it moves the Counters, or a Tally, by
// what those lookups move them; stopped at a random solution it has
// yielded the same prefix and counted no less than the serial loop and at
// most one stage more.
func TestLookupKeysMatchesSerialLookups(t *testing.T) {
	stagedCalls, stoppedCalls := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var stats Counters
		arity, domain := 1+rng.Intn(5), 4+rng.Intn(60)
		r := NewRelation(arity, &stats)
		// A quarter of every column is value 0: a run longer than a stage's
		// row buffer.
		random := func() Tuple {
			tup := make(Tuple, arity)
			for c := range tup {
				if rng.Intn(4) != 0 {
					tup[c] = Value(rng.Intn(domain))
				}
			}
			return tup
		}
		// Fill, retract most of it (built directories are dropped on the
		// way), fill again, build every column's directory and retract some
		// more: the runs then name rows of both generations, a fifth of them
		// tombstoned.
		for i := 0; i < 40*domain/arity; i++ {
			r.Insert(random())
		}
		r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true })
		for i, tup := range r.Tuples() {
			if i%3 != 0 {
				r.Retract(tup)
			}
		}
		for i := 0; i < 10*domain/arity; i++ {
			r.Insert(random())
		}
		for col := 0; col < arity; col++ {
			r.Lookup([]Binding{{Col: col, Val: 0}}, func(Tuple) bool { return true })
		}
		for i, tup := range r.Tuples() {
			if i%5 == 0 {
				r.Retract(tup)
			}
		}

		for trial := 0; trial < 8; trial++ {
			col := rng.Intn(arity)
			keys := make([]Value, rng.Intn(50))
			for i := range keys {
				if rng.Intn(8) != 0 {
					keys[i] = Value(rng.Intn(domain + domain/2)) // the top third misses
				}
			}
			// serial is the reference: one Lookup per key until the limit-th
			// solution, and what the Counters moved by.
			serial := func(limit int) (out []keyed, moved Counters) {
				before := stats.Snapshot()
				for k, key := range keys {
					stopped := false
					r.Lookup([]Binding{{Col: col, Val: key}}, func(tup Tuple) bool {
						out = append(out, keyed{k, fmt.Sprint(tup)})
						stopped = len(out) == limit
						return !stopped
					})
					if stopped {
						break
					}
				}
				return out, stats.Snapshot().Sub(before)
			}
			staged := func(limit int, tally *Tally) (out []keyed, more bool) {
				var st KeyStage
				more = r.LookupKeys(col, keys, &st, tally, func(k int, tup Tuple) bool {
					if tup[col] != keys[k] {
						t.Fatalf("seed %d: key %d (%d) yielded %v", seed, k, keys[k], tup)
					}
					out = append(out, keyed{k, fmt.Sprint(tup)})
					return len(out) != limit
				})
				return out, more
			}
			name := fmt.Sprintf("seed %d: arity %d, column %d, %d keys", seed, arity, col, len(keys))

			want, wantMoved := serial(-1)
			before := stats.Snapshot()
			got, more := staged(-1, nil)
			if moved := stats.Snapshot().Sub(before); !more || fmt.Sprint(got) != fmt.Sprint(want) || moved != wantMoved {
				t.Fatalf("%s:\nstaged %v (more=%v, counters %+v)\nserial %v (counters %+v)", name, got, more, moved, want, wantMoved)
			}
			tally := stats.Tally()
			before = stats.Snapshot()
			staged(-1, &tally)
			if moved := stats.Snapshot().Sub(before); moved != (Counters{}) || tally.n != wantMoved {
				t.Fatalf("%s: tallied probe moved the Counters by %+v and the tally by %+v, want %+v", name, moved, tally.n, wantMoved)
			}
			stagedCalls++

			if len(want) == 0 {
				continue
			}
			limit := 1 + rng.Intn(len(want))
			want, wantMoved = serial(limit)
			before = stats.Snapshot()
			got, more = staged(limit, nil)
			moved := stats.Snapshot().Sub(before)
			if more || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, stopped at %d:\nstaged %v (more=%v)\nserial %v", name, limit, got, more, want)
			}
			overProbes, overRows := moved.IndexLookups-wantMoved.IndexLookups, moved.TuplesExamined-wantMoved.TuplesExamined
			if overProbes < 0 || overProbes > stageProbes || overRows < 0 || overRows > stageRows || moved.FullScans != 0 {
				t.Fatalf("%s, stopped at %d: counted %+v, the serial loop %+v", name, limit, moved, wantMoved)
			}
			stoppedCalls++
		}
	}
	if stagedCalls < 400 || stoppedCalls < 200 {
		t.Fatalf("test premise: %d staged calls, %d stopped early", stagedCalls, stoppedCalls)
	}
}

// TestGatherKeysMatchesLookupKeys is the gather's contract as a seeded
// property: over random relations — arity 2 to 4, keys that hold one row
// and keys that hold runs, on dense directories (consecutive values) and
// hashed ones (values five apart) — and random key lists reaching below
// and above every column's values, GatherKeys appends to dst, key by key,
// the columns outs (one or two, the key's own among them at times) of
// exactly the rows LookupKeys yields, sets ends at each key's last, and
// moves the Counters, or a tally, by what LookupKeys run to its end moves
// them. It holds with tombstoned rows still named by the runs, after the
// compaction that drops the directories and the rebuild that follows (the
// gather's own), with tombstones in the rebuilt runs, and on a DeltaSince
// window, which counts nothing. Last, a gather beside a writer whose rows
// open block after block (gatherBesideWriter).
func TestGatherKeysMatchesLookupKeys(t *testing.T) {
	calls := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		arity := 2 + rng.Intn(3)
		r := db.Ensure("e", arity)
		st := r.store
		stride, base, domain := Value(1+4*(seed%2)), Value(50+rng.Intn(50)), 8+rng.Intn(40)
		// A column value is one of domain shared ones (runs) or, a third of
		// the time, one no other row has (a lone row).
		lone := domain
		value := func() Value {
			if rng.Intn(3) == 0 {
				lone++
				return base + stride*Value(lone)
			}
			return base + stride*Value(rng.Intn(domain))
		}
		random := func() Tuple {
			tup := make(Tuple, arity)
			for c := range tup {
				tup[c] = value()
			}
			return tup
		}
		fill := func(n int) {
			for i := 0; i < n; i++ {
				r.Insert(random())
			}
		}

		// check compares the gather with the staged probe on rel, on
		// random columns, projections and key lists.
		check := func(phase string, rel *Relation) {
			for trial := 0; trial < 6; trial++ {
				col := rng.Intn(arity)
				outs := []int{rng.Intn(arity)}
				if rng.Intn(2) == 0 {
					outs = append(outs, rng.Intn(arity))
				}
				keys := make([]Value, rng.Intn(40))
				if trial%3 == 0 {
					keys = keys[:min(len(keys), 1)] // a lone key skips the stage
				}
				for i := range keys {
					// From below the lowest value to above the highest.
					keys[i] = base - 3*stride + Value(rng.Intn(int(stride)*(lone+6)))
				}
				name := fmt.Sprintf("seed %d, %s: arity %d, column %d, outs %v, keys %v", seed, phase, arity, col, outs, keys)

				// The gather goes first, so that it is what rebuilds a dropped
				// directory.
				var ks KeyStage
				ends := make([]int, len(keys))
				before := db.Stats.Snapshot()
				got := rel.GatherKeys(col, outs, keys, &ks, nil, []Value{-7}, ends)
				moved := db.Stats.Snapshot().Sub(before)

				per := make([][]Value, len(keys))
				before = db.Stats.Snapshot()
				rel.LookupKeys(col, keys, &ks, nil, func(k int, tup Tuple) bool {
					for _, c := range outs {
						per[k] = append(per[k], tup[c])
					}
					return true
				})
				wantMoved := db.Stats.Snapshot().Sub(before)
				want, wantEnds := []Value{-7}, make([]int, len(keys))
				for k := range per {
					want = append(want, per[k]...)
					wantEnds[k] = len(want)
				}
				if fmt.Sprint(got, ends) != fmt.Sprint(want, wantEnds) || moved != wantMoved {
					t.Fatalf("%s:\ngathered %v, ends %v (counters %+v)\nstaged   %v, ends %v (counters %+v)", name, got, ends, moved, want, wantEnds, wantMoved)
				}
				tally := db.Stats.Tally()
				before = db.Stats.Snapshot()
				rel.GatherKeys(col, outs, keys, &ks, &tally, nil, ends)
				if moved := db.Stats.Snapshot().Sub(before); moved != (Counters{}) || tally.n != wantMoved {
					t.Fatalf("%s: tallied gather moved the Counters by %+v and the tally by %+v, want %+v", name, moved, tally.n, wantMoved)
				}
				calls[phase]++
				if len(keys) == 1 {
					calls["lone key"]++
				}
				if d := st.cols[col].Load(); rel.win == nil && d != nil {
					if d.dense() {
						calls["dense"]++
					} else {
						calls["hashed"]++
					}
				}
			}
		}

		fill(30 * domain / arity)
		for col := 0; col < arity; col++ {
			r.Lookup([]Binding{{Col: col, Val: base}}, func(Tuple) bool { return true })
		}
		check("live", r)

		// Retract a fifth: the directories stay, their runs naming the
		// dead rows.
		all := r.Tuples()
		for i, tup := range all {
			if i%5 == 0 {
				r.Retract(tup)
			}
		}
		if st.cols[0].Load() == nil || !st.anyDead.Load() {
			t.Fatalf("seed %d: test premise: directories kept beside tombstones", seed)
		}
		check("tombstoned", r)

		// Retract most of the rest: the compaction drops the directories,
		// and the gathers rebuild them from the live rows.
		for i, tup := range all {
			if i%5 != 0 && i%4 != 0 {
				r.Retract(tup)
			}
		}
		if st.cols[0].Load() != nil {
			t.Fatalf("seed %d: test premise: a compaction dropped the directories", seed)
		}
		check("rebuilt", r)

		// A window: the rows inserted since a stamp, some retracted again,
		// as are some of the rebuilt directories' rows.
		for col := 0; col < arity; col++ {
			r.Lookup([]Binding{{Col: col, Val: base}}, func(Tuple) bool { return true })
		}
		stamp := db.Epoch()
		fill(4 * domain / arity)
		for i, tup := range r.Tuples() {
			if i%7 == 0 {
				r.Retract(tup)
			}
		}
		if st.cols[0].Load() == nil {
			t.Fatalf("seed %d: test premise: rebuilt directories kept beside tombstones", seed)
		}
		check("rebuilt, tombstoned", r)
		d, ok := r.DeltaSince(stamp)
		if !ok || d.Added == nil {
			t.Fatalf("seed %d: test premise: an insert window (ok=%v)", seed, ok)
		}
		check("window", d.Added)
	}
	for _, phase := range []string{"live", "tombstoned", "rebuilt", "rebuilt, tombstoned", "window", "dense", "hashed", "lone key"} {
		if calls[phase] < 60 {
			t.Fatalf("test premise: %v gathers", calls)
		}
	}
	t.Logf("gathers %v", calls)
	gatherBesideWriter(t)
}

// gatherBesideWriter gathers the newest keys of relations while one
// writer fills them, one after the other from empty: every key has three
// consecutive rows, so a block's first row is a key's first, second or
// third — a new slot, a run made or a run grown — and the writer lets the
// reader in before each such row. The reader takes three stages of keys
// up to the writer's and the one after it, then the writer's key alone
// (GatherKey: of its one row, the row's second column by value). Whatever
// is gathered must be the key's rows, in order, none that the writer had
// not started on when the gather returned. A gather that loaded the block
// list before a directory load of its stage, or before the lone key's slot
// word, can be handed a row in a block it does not have — most often the
// first row of a relation, whose list it loaded empty.
func gatherBesideWriter(t *testing.T) {
	const relations, rows, per = 128, 1 << 12, 3
	type feed struct {
		r       *Relation
		started atomic.Int64 // rows the writer has started on
	}
	var cur atomic.Pointer[feed]
	var gathers atomic.Int64
	done := make(chan struct{})
	fresh := func() {
		f := &feed{r: NewRelation(2, nil)}
		f.r.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true }) // column 0's directory, posted to by every insert
		cur.Store(f)
	}
	fresh()
	go func() {
		defer close(done)
		var ks KeyStage
		var dst []Value
		staged, ends := make([]Value, 3*stageProbes), make([]int, 3*stageProbes)
		outs := []int{0, 1}
		var seqs []Value
		for i := 0; !t.Failed(); i++ {
			f := cur.Load()
			if f == nil {
				return
			}
			top := Value(f.started.Load()/per) + 1
			for j := range staged {
				staged[j] = max(0, top-Value(len(staged)-1-j))
			}
			keys := staged
			if i%2 == 1 {
				keys = staged[len(staged)-2 : len(staged)-1]
				v, one, grown := f.r.GatherKey(0, outs[1:], keys[0], nil, seqs[:0])
				if seqs = grown; one {
					seqs = append(seqs, v)
				}
				dst = dst[:0]
				for _, seq := range seqs {
					dst = append(dst, keys[0], seq)
				}
				ends[0] = len(dst)
			} else {
				dst = f.r.GatherKeys(0, outs, keys, &ks, nil, dst[:0], ends)
			}
			newest, from := Value(-1), 0
			for k, end := range ends[:len(keys)] {
				last := Value(-1)
				for ; from < end; from += 2 {
					key, seq := dst[from], dst[from+1]
					if key != keys[k] || seq/per != key || seq <= last {
						t.Errorf("gather of %v: key %d yielded (%d, %d) after row %d", keys, keys[k], key, seq, last)
						return
					}
					last, newest = seq, max(newest, seq)
				}
			}
			if int64(newest) >= f.started.Load() {
				t.Errorf("gather of %v yielded row %d before the writer started on it", keys, newest)
				return
			}
			gathers.Add(1)
		}
	}()
	for n := 0; n < relations && !t.Failed(); n++ {
		if n > 0 {
			fresh()
		}
		f := cur.Load()
		for i := int64(0); i < rows && !t.Failed(); i++ {
			if i%blockRows == 0 {
				// Let the reader in: it is mid-gather when the block opens.
				for upTo := gathers.Load() + 2; gathers.Load() < upTo && !t.Failed(); {
					runtime.Gosched()
				}
			}
			f.started.Store(i + 1)
			f.r.Insert(Tuple{Value(i / per), Value(i)})
		}
	}
	cur.Store(nil)
	<-done
}

// TestStageLoadsRunLengthsBeforeBlocks runs a writer inside a stage of
// LookupKeys and of GatherKeys, between its slot loads and its run-length
// loads (stageHook): key 1's run, of three rows in block 0 with room for
// four, grows by a row that opens block 1. The stage then reads four run
// ids, the last in block 1, and must read it from a block list loaded
// after the lengths; one loaded before them has no block 1.
func TestStageLoadsRunLengthsBeforeBlocks(t *testing.T) {
	defer func() { stageHook = nil }()
	for _, probe := range []string{"LookupKeys", "GatherKeys"} {
		r := NewRelation(2, nil)
		r.InsertBatch([]Tuple{{1, 100}, {2, 200}, {1, 101}, {1, 102}}) // key 1's rows apart: a run, not a range
		for i := r.Len(); i < blockRows; i++ {
			r.Insert(Tuple{3, Value(1000 + i)})
		}
		r.Lookup([]Binding{{Col: 0, Val: 1}}, func(Tuple) bool { return true }) // column 0's directory: key 1's run has room for four
		if d := r.store.cols[0].Load(); d.rows(d.slot(1)).ids == nil {
			t.Fatal("test premise: key 1's rows are not a run")
		}
		stageHook = func() {
			stageHook = nil
			r.Insert(Tuple{1, 999}) // row blockRows: the first of block 1
		}
		var got []string
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: a stage whose run grew into a new block panicked: %v", probe, p)
				}
			}()
			keys, ends := []Value{1, 2}, make([]int, 2)
			var ks KeyStage
			if probe == "LookupKeys" {
				r.LookupKeys(0, keys, &ks, nil, func(k int, tup Tuple) bool {
					got = append(got, fmt.Sprint(tup))
					return true
				})
				return
			}
			dst := r.GatherKeys(0, []int{0, 1}, keys, &ks, nil, nil, ends)
			for i := 0; i < len(dst); i += 2 {
				got = append(got, fmt.Sprint(Tuple(dst[i:i+2])))
			}
		}()
		if stageHook != nil {
			t.Fatalf("%s: test premise: the stage ran no writer", probe)
		}
		if want := "[[1 100] [1 101] [1 102] [1 999] [2 200]]"; fmt.Sprint(got) != want {
			t.Fatalf("%s: got %v, want %s", probe, got, want)
		}
	}
}
