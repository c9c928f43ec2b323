package onesided

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/storage"
)

// The BenchmarkOneSided* family measures the Fig. 9 machinery. An
// evaluation runs on the goroutine that asked for it, so the family says
// nothing more with more threads, BenchmarkOneSidedIngest excepted
// (concurrent writers on one relation). Reproduce with:
//
//	go test -run '^$' -bench 'OneSided' -benchtime 5x .

// BenchmarkOneSidedParallel evaluates a context-mode selection on large
// workloads. On the random graph the carry frontiers are wide, so a
// level's first-atom probes are staged sixteen contexts at a time; on the
// chain every level is one context, so the per-level fixed cost is the
// whole cost. The permissions variant carries binary state and joins a
// p-edge per context — more work per carry tuple than plain transitive
// closure.
func BenchmarkOneSidedParallel(b *testing.B) {
	b.Run("tc/random=30000x120000", func(b *testing.B) {
		w := datagen.RandomTC(30000, 120000, 300, 7)
		benchTC(b, context.Background(), w.DB, w.Start)
	})
	b.Run("tc/chain=20000", func(b *testing.B) {
		// A 20 000-edge chain with 64 exits in its last 2 000 nodes,
		// queried from its head: about 20 000 levels of one context each.
		db := storage.NewDatabase()
		first, _ := datagen.Chain(db, "a", "n", 20000)
		rng := rand.New(rand.NewSource(5))
		for e := 0; e < 64; e++ {
			db.AddFact("b", fmt.Sprintf("n%d", 20000-rng.Intn(2000)), fmt.Sprintf("e%d", e))
		}
		// A cancellable context: the level loop polls its Done channel.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		benchTC(b, ctx, db, first)
	})
	b.Run("permissions/random=8000x32000", func(b *testing.B) {
		// Binary-carry variant: a random a-graph with random (node, item)
		// permissions. The carry holds (context, item) pairs, so each
		// level's batch is wide and each tuple joins a p-edge — more work
		// per context than plain transitive closure.
		db := storage.NewDatabase()
		datagen.RandomGraph(db, "a", "n", 8000, 32000, 11)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 64000; i++ {
			db.AddFact("p", fmt.Sprintf("n%d", rng.Intn(8000)), fmt.Sprintf("item%d", rng.Intn(16)))
		}
		for i := 0; i < 200; i++ {
			db.AddFact("b", fmt.Sprintf("n%d", rng.Intn(8000)), fmt.Sprintf("item%d", rng.Intn(16)))
		}
		eng, err := Open(WithDatabase(db), WithResultCache(0))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Load(`
			t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
			t(X, Y) :- b(X, Y).
		`); err != nil {
			b.Fatal(err)
		}
		pq, err := eng.Prepare(nil, parserMustAtom(b, "t(n0, Y)"))
		if err != nil {
			b.Fatal(err)
		}
		var rows *Rows
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err = pq.Query(context.Background())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := rows.Stats()
		b.ReportMetric(float64(rows.Len()), "answers")
		b.ReportMetric(float64(st.SeenSize), "seen")
		b.ReportMetric(float64(st.Batches), "batches")
	})
}

// benchTC times transitive closure over db's a-edges and b-exits,
// selected at start, with the result cache off: the evaluation itself.
func benchTC(b *testing.B, ctx context.Context, db *storage.Database, start string) {
	eng, err := Open(WithDatabase(db), WithResultCache(0))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`); err != nil {
		b.Fatal(err)
	}
	pq, err := eng.Prepare(nil, parserMustAtom(b, "t("+start+", Y)"))
	if err != nil {
		b.Fatal(err)
	}
	var rows *Rows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = pq.Query(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := rows.Stats()
	b.ReportMetric(float64(rows.Len()), "answers")
	b.ReportMetric(float64(st.SeenSize), "seen")
	b.ReportMetric(float64(st.Batches), "batches")
	b.ReportMetric(float64(st.Iterations), "levels")
}

// BenchmarkOneSidedIngest measures raw concurrent insert throughput into
// a relation: all procs hammer one relation's write lock.
func BenchmarkOneSidedIngest(b *testing.B) {
	b.Run("parallel", func(b *testing.B) {
		rel := storage.NewRelation(2, nil)
		var ctr atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := ctr.Add(1)
				rel.Insert(storage.Tuple{storage.Value(i % 100003), storage.Value(i / 7)})
			}
		})
	})
}

// BenchmarkOneSidedStreamFirstAnswer measures time-to-first-answer of a
// streamed query against the full evaluation on a deep chain: the
// depth-0 answer arrives without waiting for the fixpoint.
func BenchmarkOneSidedStreamFirstAnswer(b *testing.B) {
	w := datagen.ChainTC(20000)
	w.DB.AddFact("b", w.Start, "zfirst")
	// Result cache off: the "full" sub measures repeated evaluation.
	eng, err := Open(WithDatabase(w.DB), WithResultCache(0))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`); err != nil {
		b.Fatal(err)
	}
	pq, err := eng.Prepare(nil, parserMustAtom(b, "t("+w.Start+", Y)"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("first-answer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := pq.Stream(ctx)
			for range rows.All() {
				break
			}
			b.StopTimer()
			rows.Wait()
			b.StartTimer()
		}
	})
	b.Run("full", func(b *testing.B) {
		var rows *Rows
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			if rows, err = pq.Query(ctx); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// One context per level: what a level allocates is the whole
		// per-level fixed cost. The loop's budget is zero.
		levels := float64(b.N) * float64(rows.Stats().Iterations)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/levels, "allocs/level")
	})
}
