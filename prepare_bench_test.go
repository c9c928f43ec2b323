package onesided

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// BenchmarkPrepareVsBind measures plan latency for the Fig. 9 chain
// query shape t^bf: a cold Prepare runs the full optimize-then-detect
// pipeline (redundancy removal, A/V-graph classification, selection
// compilation) while Bind on the cached skeleton is a map hit plus a
// shallow constant substitution. The acceptance bar is Bind >= 10x
// faster than prepare-cold.
func BenchmarkPrepareVsBind(b *testing.B) {
	eng, _ := benchEngine(b, 1000)
	atom := parserMustAtom(b, "t(n0, Y)")

	b.Run("prepare-cold", func(b *testing.B) {
		cold, q := benchEngine(b, 1000, WithPlanCache(0))
		coldAtom := parserMustAtom(b, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cold.Prepare(nil, coldAtom); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare-cached", func(b *testing.B) {
		if _, err := eng.Prepare(nil, atom); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Prepare(nil, atom); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bind", func(b *testing.B) {
		pq, err := eng.Prepare(nil, atom)
		if err != nil {
			b.Fatal(err)
		}
		consts := make([]string, 64)
		for i := range consts {
			consts[i] = fmt.Sprintf("n%d", i*3)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.Bind(consts[i%len(consts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryBatch times k same-shape selections answered one Query
// at a time against one QueryBatch call over the same k. A batch is a
// loop of single queries under one gas budget, so k=*/batch should read
// within noise of k=*/individual: the benchmark guards that the loop adds
// no overhead. The chain and wide cases plan context-mode one-sided
// walks; the wide digraph's carries overlap across starts, the shape
// where sharing one traversal among a batch would pay. The
// same-generation case (sg over a genealogy forest) plans Magic Sets.
func BenchmarkQueryBatch(b *testing.B) {
	ctx := context.Background()
	shapes := []struct {
		name  string
		setup func(b *testing.B, k int) (*Engine, []string)
	}{
		{"chain", func(b *testing.B, k int) (*Engine, []string) {
			eng, _ := benchEngine(b, 2000)
			queries := make([]string, k)
			for i := range queries {
				queries[i] = fmt.Sprintf("t(n%d, Y)", (i*2000)/(2*k))
			}
			return eng, queries
		}},
		{"wide", func(b *testing.B, k int) (*Engine, []string) {
			w := datagen.RandomTC(30000, 120000, 300, 7)
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
			queries := make([]string, k)
			for i := range queries {
				queries[i] = fmt.Sprintf("t(n%d, Y)", (i*30000)/k)
			}
			return eng, queries
		}},
		{"sg", func(b *testing.B, k int) (*Engine, []string) {
			db, _, _ := datagen.Genealogy(4, 7)
			eng, err := Open(WithDatabase(db), WithResultCache(0))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(`
				sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
				sg(X, Y) :- sg0(X, Y).
			`); err != nil {
				b.Fatal(err)
			}
			// Leaves of the first tree are f0_127 .. f0_254.
			queries := make([]string, k)
			for i := range queries {
				queries[i] = fmt.Sprintf("sg(f0_%d, Y)", 127+i*128/k)
			}
			return eng, queries
		}},
	}
	for _, shape := range shapes {
		for _, k := range []int{4, 16} {
			eng, queries := shape.setup(b, k)
			b.Run(fmt.Sprintf("%s/k=%d/individual", shape.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						if _, err := eng.Query(ctx, q); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/k=%d/batch", shape.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.QueryBatch(ctx, queries); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
