package storage

import (
	"fmt"
	"math/rand"
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
