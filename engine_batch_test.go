package onesided

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestQueryBatchMatchesIndividual: a mixed batch — shared shapes,
// duplicates, a different adornment, and a base-relation query — must
// answer each query exactly as an individual Query would, in input
// order.
func TestQueryBatchMatchesIndividual(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(chainSrc(40)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"t(n0, Y)",
		"t(n10, Y)",
		"t(n0, Y)", // duplicate of the first
		"t(X, goal)",
		"a(n3, Y)",
		"t(n35, Y)",
	}
	ctx := context.Background()
	rows, err := eng.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(queries) {
		t.Fatalf("got %d Rows for %d queries", len(rows), len(queries))
	}
	for i, q := range queries {
		want, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows[i].Strings()); got != fmt.Sprint(want.Strings()) {
			t.Fatalf("query %s: batch %v != individual %v", q, got, want.Strings())
		}
	}
}

// TestQueryBatchMagic: a batch of same-generation queries plans Magic
// Sets and answers each query as an individual Query would.
func TestQueryBatchMagic(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
		p(a, r). p(b, r). p(c, s). p(r, u). p(s, u).
		sg0(u, u). sg0(r, r).
	`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{"sg(a, Y)", "sg(b, Y)", "sg(c, Y)"}
	rows, err := eng.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Explain().Strategy; got != "magic" {
		t.Fatalf("strategy = %q, want magic", got)
	}
	for i, q := range queries {
		want, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows[i].Strings()); got != fmt.Sprint(want.Strings()) {
			t.Fatalf("query %s: batch %v != individual %v", q, got, want.Strings())
		}
	}
}

// TestConcurrentBindAndBatch is the -race stress test for the new
// surface: goroutines hammer one engine with Bind-derived prepared
// queries, QueryBatch calls, plain cached queries, and concurrent fact
// writes, all sharing the t^bf skeleton.
func TestConcurrentBindAndBatch(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(chainSrc(60)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pq, err := eng.Prepare(nil, mustAtom(t, "t(n0, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	const rounds = 15
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch g % 4 {
				case 0: // rebind the shared skeleton and evaluate
					bound, err := pq.Bind(fmt.Sprintf("n%d", (g*7+i)%60))
					if err != nil {
						errs <- err
						return
					}
					if _, err := bound.Query(ctx); err != nil {
						errs <- err
						return
					}
				case 1: // batched same-shape queries
					qs := []string{
						fmt.Sprintf("t(n%d, Y)", (i*3)%60),
						fmt.Sprintf("t(n%d, Y)", (i*5+1)%60),
						fmt.Sprintf("t(n%d, Y)", (i*11+2)%60),
					}
					rows, err := eng.QueryBatch(ctx, qs)
					if err != nil {
						errs <- err
						return
					}
					for _, r := range rows {
						r.Len()
					}
				case 2: // plain cached queries
					if _, err := eng.Query(ctx, fmt.Sprintf("t(n%d, Y)", (g+i)%60)); err != nil {
						errs <- err
						return
					}
				case 3: // concurrent fact writes (new chain side-branches)
					eng.AddFact("a", fmt.Sprintf("n%d", (g+i)%60), fmt.Sprintf("x%d_%d", g, i))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
