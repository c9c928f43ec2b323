package onesided

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// The BenchmarkIngest* family measures the write path: per-fact
// admission vs the batched InsertFacts pipeline, and per-record fsync
// vs WAL group commit under concurrent writers. Reproduce with:
//
//	go test -run '^$' -bench 'Ingest' -benchtime 2s .

// mkIngestFacts builds n distinct facts over a 32-symbol vocabulary —
// the bulk-load shape of a graph over a fixed node set: no tuple is a
// duplicate, and after the first few rows every symbol is a hot intern
// lookup, so the comparison measures admission, locking, and stamping
// rather than symbol creation.
func mkIngestFacts(n int) []Fact {
	facts := make([]Fact, n)
	for i := range facts {
		facts[i] = Fact{Pred: "ingest", Args: []string{
			"n" + strconv.Itoa(i/32), "n" + strconv.Itoa(i%32),
		}}
	}
	return facts
}

// BenchmarkIngestBatched compares a per-fact AddFact loop against one
// InsertFacts call over the same facts. One op = bulk-loading 1024
// facts into a fresh engine (built off the clock, so op cost doesn't
// drift with table growth); the batched arm amortizes admission, shard
// locking, and delta stamping across the whole run.
func BenchmarkIngestBatched(b *testing.B) {
	const batch = 1024
	run := func(b *testing.B, load func(*Engine, []Fact)) {
		facts := mkIngestFacts(batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := Open()
			if err != nil {
				b.Fatal(err)
			}
			// Collect the previous op's discarded engine off the clock,
			// so the timed region measures ingest, not GC of harness
			// garbage.
			runtime.GC()
			b.StartTimer()
			load(eng, facts)
			b.StopTimer()
			if got := eng.DB().TupleCount(); got != batch {
				b.Fatalf("loaded %d tuples, want %d", got, batch)
			}
			eng.Close()
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "facts/s")
	}
	b.Run("perfact", func(b *testing.B) {
		run(b, func(eng *Engine, facts []Fact) {
			for _, f := range facts {
				eng.AddFact(f.Pred, f.Args...)
			}
		})
	})
	b.Run("batch=1024", func(b *testing.B) {
		run(b, func(eng *Engine, facts []Fact) {
			if n, err := eng.InsertFacts(facts); err != nil || n != batch {
				b.Fatalf("inserted %d of %d: %v", n, batch, err)
			}
		})
	})
}

// BenchmarkIngestSyncAlways measures durable ingest under the strictest
// sync policy. writers=1 is the per-record-fsync baseline; writers=16
// lets group commit absorb concurrent appends into shared fsyncs — the
// fsyncs/op metric is the amortization actually achieved. The request=
// cases are one churn-shaped write per op (24 inserts and 8 retractions
// over three predicates, the bench harness's churn_durable cycle) from
// one writer: as one Apply, one fsync; split into InsertFacts then
// RetractFacts, two.
func BenchmarkIngestSyncAlways(b *testing.B) {
	for _, split := range []bool{false, true} {
		name := "request=apply"
		if split {
			name = "request=split"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := Open(WithPersistence(b.TempDir()), WithSyncPolicy(SyncAlways))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// Write i inserts 16 b, 6 p and 2 a facts and retracts 6 of the b
			// and 2 of the p facts write i-1 inserted. Built, and its
			// constants interned, off the clock; write -1 seeds the first
			// retractions.
			fact := func(pred string, i, j int) Fact {
				return Fact{Pred: pred, Args: []string{"n" + strconv.Itoa(j), pred + strconv.Itoa(i) + "_" + strconv.Itoa(j)}}
			}
			writes := make([]Write, b.N+1)
			for i := range writes {
				w := &writes[i]
				for j := 0; j < 16; j++ {
					w.Insert = append(w.Insert, fact("b", i, j))
					if j < 6 {
						w.Insert = append(w.Insert, fact("p", i, j))
					}
					if j < 2 {
						w.Insert = append(w.Insert, fact("a", i, j))
					}
				}
				for _, f := range w.Insert {
					for _, c := range f.Args {
						eng.DB().Syms.Intern(c)
					}
				}
				if i > 0 {
					for j := 0; j < 6; j++ {
						w.Retract = append(w.Retract, fact("b", i-1, j))
						if j < 2 {
							w.Retract = append(w.Retract, fact("p", i-1, j))
						}
					}
				}
			}
			if _, err := eng.Apply(writes[0]); err != nil {
				b.Fatal(err)
			}
			start := eng.Log().CommitStats()
			b.ReportAllocs()
			b.ResetTimer()
			for _, w := range writes[1:] {
				var a Applied
				var err error
				if split {
					if a.Added, err = eng.InsertFacts(w.Insert); err == nil {
						a.Removed, err = eng.RetractFacts(w.Retract)
					}
				} else {
					a, err = eng.Apply(w)
				}
				if err != nil || a != (Applied{Added: 24, Removed: 8}) {
					b.Fatalf("applied %+v: %v", a, err)
				}
			}
			b.StopTimer()
			cs := eng.Log().CommitStats()
			b.ReportMetric(float64(cs.Fsyncs-start.Fsyncs)/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(cs.Records-start.Records)/float64(cs.Fsyncs-start.Fsyncs), "records/fsync")
		})
	}
	for _, writers := range []int{1, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			eng, err := Open(WithPersistence(b.TempDir()), WithSyncPolicy(SyncAlways))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// Distinct tuples over a mostly-hot vocabulary, pre-interned
			// off the clock: a fresh symbol would journal under the log
			// mutex the fsyncing leader holds, serializing the very
			// appends this benchmark wants to overlap.
			type kv struct{ a, b string }
			facts := make([]kv, b.N)
			for i := range facts {
				facts[i] = kv{"a" + strconv.Itoa(i>>10), "b" + strconv.Itoa(i&1023)}
				eng.DB().Syms.Intern(facts[i].a)
				eng.DB().Syms.Intern(facts[i].b)
			}
			start := eng.Log().CommitStats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				lo, hi := w*b.N/writers, (w+1)*b.N/writers
				wg.Add(1)
				go func(part []kv) {
					defer wg.Done()
					for _, f := range part {
						eng.AddFact("ingest", f.a, f.b)
					}
				}(facts[lo:hi])
			}
			wg.Wait()
			b.StopTimer()
			if err := eng.Log().Err(); err != nil {
				b.Fatal(err)
			}
			cs := eng.Log().CommitStats()
			b.ReportMetric(float64(cs.Fsyncs-start.Fsyncs)/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(cs.MaxGroup), "maxgroup")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "facts/s")
		})
	}
}
