package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotIterationDuringInserts pins snapshot-iteration semantics
// under concurrency: a Scan or Lookup racing with writers must yield only
// fully written rows — every yielded tuple satisfies the writers'
// invariant — and at least the rows inserted before the iteration
// started. The shards=8 case builds its relation through the deprecated
// NewShardedRelation, whose shard count is ignored: it must behave as a
// plain relation. Run under -race.
func TestSnapshotIterationDuringInserts(t *testing.T) {
	for _, nshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			r := NewRelation(2, nil)
			if nshards > 1 {
				r = NewShardedRelation(2, nil, nshards)
			}
			const pre = 500
			for i := 0; i < pre; i++ {
				r.Insert(Tuple{Value(i), Value(i + 1000)})
			}
			var writer, wg sync.WaitGroup
			stop := make(chan struct{})
			// Writers keep the invariant t[1] == t[0]+1000. The writer is
			// bounded: no reader holds it back, and the scans walk what it
			// wrote.
			writer.Add(1)
			go func() {
				defer writer.Done()
				for i := pre; i < pre+100*blockRows; i++ {
					select {
					case <-stop:
						return
					default:
						r.Insert(Tuple{Value(i), Value(i + 1000)})
					}
				}
			}()
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for iter := 0; iter < 200; iter++ {
						floor := r.Len()
						n := 0
						r.Scan(func(tup Tuple) bool {
							if tup[1] != tup[0]+1000 {
								t.Errorf("torn row %v", tup)
								return false
							}
							n++
							return true
						})
						if n < floor {
							t.Errorf("scan saw %d rows, started with %d", n, floor)
							return
						}
						r.Lookup([]Binding{{Col: 1, Val: Value(g + 1000)}}, func(tup Tuple) bool {
							if tup[0] != Value(g) {
								t.Errorf("lookup yielded wrong row %v", tup)
							}
							return true
						})
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			writer.Wait()
		})
	}
}

// TestTombstoneCompactionCountsFromLastDrop pins the compaction rule: a
// relation drops its posting lists when more than half of the rows they
// can name are dead, counted from the previous drop. Counting every
// tombstone the relation ever set made a relation that had retracted
// most of what it ever held drop — and the next lookup rebuild — its
// indexes on every further retraction.
func TestTombstoneCompactionCountsFromLastDrop(t *testing.T) {
	const n = 400
	rel := NewRelation(2, nil)
	st := rel.store
	edge := func(i int) Tuple { return Tuple{Value(i), Value(i + 1)} }
	lookup := func(v int) int {
		hits := 0
		rel.Lookup([]Binding{{Col: 0, Val: Value(v)}}, func(Tuple) bool { hits++; return true })
		return hits
	}
	for i := 0; i < n; i++ {
		rel.Insert(edge(i))
	}
	lookup(0)
	if st.cols[0].Load() == nil {
		t.Fatal("lookup built no index")
	}
	// One past half: the line is crossed by the last retraction.
	for i := 0; i <= n/2; i++ {
		if st.cols[0].Load() == nil {
			t.Fatalf("posting lists dropped after %d of %d rows died", i, n)
		}
		rel.Retract(edge(i))
	}
	if st.cols[0].Load() != nil {
		t.Fatal("posting lists kept past half dead")
	}
	for i := 0; i < n; i++ {
		want := 1
		if i <= n/2 {
			want = 0
		}
		if got := lookup(i); got != want {
			t.Fatalf("lookup(%d) = %d rows after compaction, want %d", i, got, want)
		}
	}
	// From here an insert + lookup + retract churn on the live half must
	// leave the rebuilt lists alone.
	for round := 0; round < 50; round++ {
		rel.Insert(edge(n + round))
		if lookup(n+round) != 1 {
			t.Fatalf("round %d: inserted tuple not found", round)
		}
		rel.Retract(edge(n + round))
		if st.cols[0].Load() == nil {
			t.Fatalf("round %d: a single retraction dropped the posting lists again", round)
		}
		if lookup(n+round) != 0 {
			t.Fatalf("round %d: retracted tuple still found", round)
		}
	}
	// The rule still fires: retracting what is live crosses the line a
	// second time.
	for i := n/2 + 1; i < n; i++ {
		rel.Retract(edge(i))
	}
	if st.cols[0].Load() != nil {
		t.Fatal("posting lists kept after every live row was retracted")
	}
}
