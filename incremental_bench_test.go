package onesided

import (
	"context"
	"fmt"
	"testing"
)

// incrementalBenchEngine loads the Fig. 9 chain workload (a-chain of n
// edges closed by one b-edge) into a fresh engine.
func incrementalBenchEngine(b *testing.B, n int, opts ...Option) *Engine {
	b.Helper()
	eng, err := Open(opts...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	eng.AddFact("b", fmt.Sprintf("n%d", n), "goal")
	return eng
}

// BenchmarkIncrementalInsert measures the insert→re-query cycle on the
// Fig. 9 chain workload: each iteration inserts one new b-fact and
// re-runs the same bound query. The "maintained" variant extends the
// retained fixpoint with just the delta (result-cache=updated); the
// "recompute" variant disables the result cache and re-runs the Fig. 9
// evaluation from the seed — the from-scratch baseline maintenance is
// held to (>= 10x).
func BenchmarkIncrementalInsert(b *testing.B) {
	ctx := context.Background()
	const n = 5000
	run := func(b *testing.B, eng *Engine, wantCache string) {
		b.Helper()
		pq, err := eng.Prepare(nil, parserMustAtom(b, "t(n0, Y)"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pq.Query(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.AddFact("b", "n2500", fmt.Sprintf("extra%d", i))
			rows, err := pq.Query(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if got := rows.Explain().ResultCache; got != wantCache {
				b.Fatalf("iteration %d result-cache = %q, want %q", i, got, wantCache)
			}
		}
		b.StopTimer()
		cs := eng.CacheStats().Results
		b.ReportMetric(float64(cs.Updated), "updated")
		b.ReportMetric(float64(cs.Rebuilt), "rebuilt")
	}
	b.Run(fmt.Sprintf("chain=%d/maintained", n), func(b *testing.B) {
		run(b, incrementalBenchEngine(b, n), "updated")
	})
	b.Run(fmt.Sprintf("chain=%d/recompute", n), func(b *testing.B) {
		run(b, incrementalBenchEngine(b, n, WithResultCache(0)), "")
	})
	// Stale: the entry is re-queried only after staleWrites writes of
	// staleFacts b facts each (|Δ| = 576, the shape of a churn_durable
	// re-query), which are not timed. The reduced t(X, goal) derives no
	// answer from them; the context t(n0, Y) derives one apiece.
	const staleWrites, staleFacts = 24, 24
	for _, q := range []string{"t(X, goal)", "t(n0, Y)"} {
		b.Run(fmt.Sprintf("chain=%d/stale/%s", n, q), func(b *testing.B) {
			eng := incrementalBenchEngine(b, n)
			pq, err := eng.Prepare(nil, parserMustAtom(b, q))
			if err != nil {
				b.Fatal(err)
			}
			// The build, then a first maintained pass: a context plan's state
			// is adopted by the incremental machine on its first delta.
			for _, warm := range []string{"", "warm"} {
				if warm != "" {
					eng.AddFact("b", "n1", warm)
				}
				if _, err := pq.Query(ctx); err != nil {
					b.Fatal(err)
				}
			}
			write := make([]Fact, staleFacts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for w := 0; w < staleWrites; w++ {
					for f := range write {
						write[f] = Fact{"b", []string{fmt.Sprintf("n%d", (w*staleFacts+f)*7%n), fmt.Sprintf("s%d_%d_%d", i, w, f)}}
					}
					if _, err := eng.InsertFacts(write); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				rows, err := pq.Query(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if got := rows.Explain().ResultCache; got != "updated" {
					b.Fatalf("iteration %d result-cache = %q, want updated", i, got)
				}
			}
		})
	}
}

// BenchmarkRetractMaintain measures the retract→re-query cycle: each
// iteration retracts one base fact, re-queries, restores the fact, and
// re-queries again. Every maintained case runs on the one incremental
// machine — a DRed pass over the retained semi-naive state (over-delete
// what the fact supported, re-derive the survivors), then the insert
// variants — with work proportional to the retraction's blast radius:
//
//   - reduced mode, t(X, goal): an edge near the head severs the first
//     `cut` nodes from the goal (the original case; its sub-benchmark
//     names are unchanged);
//   - context mode, t(n0, Y), exit: one b exit mid-chain — an O(|delta|)
//     join against the adopted context relation;
//   - context mode, t(n0, Y), edge: a mid-chain a edge — the worst case:
//     a cascade of one semi-naive round per context below the cut, which
//     costs ten times what a Fig. 9 level does, so the pass stops at its
//     round budget (5 000/16 rounds here) and re-runs the loop instead;
//     cut and splice together cost ≈3–4× what recomputing both does;
//   - context mode, t(n0, Y), edge/head: the same, ten levels below the
//     head, where the refix is cheap and the restore is not;
//   - the mid-chain cut with 60 000 unrelated a edges loaded beside the
//     chain: the pass reads a's old state where it is, so this costs what
//     the case without them costs;
//   - Magic Sets, sg(leaf, Y) under a depth-10 binary tree: one p leaf,
//     whose delta variants are cross products with the rest of the body
//     and must enter it through the magic relation, not through p.
//
// The "recompute" variants disable the result cache and re-run the
// fixpoint from the seed both times — the from-scratch baseline.
func BenchmarkRetractMaintain(b *testing.B) {
	ctx := context.Background()
	const n = 5000
	const cut = 100
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	chain := func(b *testing.B, opts ...Option) *Engine {
		eng := incrementalBenchEngine(b, n, opts...)
		eng.AddFact("b", node(n/2), "mid")
		return eng
	}
	withBallast := func(b *testing.B, opts ...Option) *Engine {
		eng := chain(b, opts...)
		ballast := make([]Fact, 60000)
		for i := range ballast {
			ballast[i] = Fact{"a", []string{fmt.Sprintf("u%d", i), fmt.Sprintf("w%d", i)}}
		}
		if _, err := eng.InsertFacts(ballast); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	// Heap numbering: g1 is the root, g1024..g2047 the depth-10 leaves,
	// and the leaf the benchmark moves hangs beside them under g1023.
	tree := func(b *testing.B, opts ...Option) *Engine {
		eng, err := Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Load("sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).\nsg(X, Y) :- sg0(X, Y).\n"); err != nil {
			b.Fatal(err)
		}
		for i := 2; i < 2048; i++ {
			eng.AddFact("p", fmt.Sprintf("g%d", i), fmt.Sprintf("g%d", i/2))
		}
		eng.AddFact("p", "leaf", "g1023")
		eng.AddFact("sg0", "g1", "g1")
		return eng
	}
	cases := []struct {
		name, query string
		open        func(b *testing.B, opts ...Option) *Engine
		fact        Fact
		lost        int // answers the retraction removes
	}{
		{fmt.Sprintf("chain=%d", n), "t(X, goal)", chain, Fact{"a", []string{node(cut), node(cut + 1)}}, cut + 1},
		{fmt.Sprintf("context/exit/chain=%d", n), "t(n0, Y)", chain, Fact{"b", []string{node(n / 2), "mid"}}, 1},
		{fmt.Sprintf("context/edge/chain=%d", n), "t(n0, Y)", chain, Fact{"a", []string{node(n / 2), node(n/2 + 1)}}, 1},
		{fmt.Sprintf("context/edge/head/chain=%d", n), "t(n0, Y)", chain, Fact{"a", []string{node(10), node(11)}}, 2},
		{fmt.Sprintf("context/edge/ballast=60000/chain=%d", n), "t(n0, Y)", withBallast, Fact{"a", []string{node(n / 2), node(n/2 + 1)}}, 1},
		{"magic/sg/depth=10", "sg(g1024, Y)", tree, Fact{"p", []string{"leaf", "g1023"}}, 1},
	}
	for _, tc := range cases {
		run := func(b *testing.B, eng *Engine, wantCache string) {
			b.Helper()
			pq, err := eng.Prepare(nil, parserMustAtom(b, tc.query))
			if err != nil {
				b.Fatal(err)
			}
			rows, err := pq.Query(ctx)
			if err != nil {
				b.Fatal(err)
			}
			full := rows.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if removed, err := eng.Retract(tc.fact.Pred, tc.fact.Args...); err != nil || !removed {
					b.Fatalf("iteration %d retract: removed=%v err=%v", i, removed, err)
				}
				rows, err := pq.Query(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if got := rows.Explain().ResultCache; got != wantCache {
					b.Fatalf("iteration %d post-retract result-cache = %q, want %q", i, got, wantCache)
				}
				if got := rows.Len(); got != full-tc.lost {
					b.Fatalf("iteration %d post-retract answers = %d, want %d", i, got, full-tc.lost)
				}
				eng.AddFact(tc.fact.Pred, tc.fact.Args...)
				rows, err = pq.Query(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if got := rows.Len(); got != full {
					b.Fatalf("iteration %d post-restore answers = %d, want %d", i, got, full)
				}
			}
			b.StopTimer()
			cs := eng.CacheStats().Results
			b.ReportMetric(float64(cs.Updated), "updated")
			b.ReportMetric(float64(cs.Rebuilt), "rebuilt")
			b.ReportMetric(float64(cs.Refixed), "refixes")
		}
		b.Run(tc.name+"/maintained", func(b *testing.B) {
			run(b, tc.open(b), "updated")
		})
		b.Run(tc.name+"/recompute", func(b *testing.B) {
			run(b, tc.open(b, WithResultCache(0)), "")
		})
	}
}
