package onesided

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// streamEngine opens an engine over a chain with b-edges at both ends,
// so answers exist at depth 0 and at the deepest level.
func streamEngine(t *testing.T, n int) (*Engine, string) {
	t.Helper()
	w := datagen.ChainTC(n)
	w.DB.AddFact("b", w.Start, "zfirst")
	w.DB.SetShards(4)
	eng, err := Open(WithDatabase(w.DB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`); err != nil {
		t.Fatal(err)
	}
	return eng, fmt.Sprintf("t(%s, Y)", w.Start)
}

// TestEngineQueryStream checks that a streamed query yields exactly the
// materialized answer set, reports a nil terminal error, and surfaces
// the shard and batch counts in Explain; a second All over the finished
// Rows reads the materialized set.
func TestEngineQueryStream(t *testing.T) {
	eng, q := streamEngine(t, 50)
	ctx := context.Background()
	want, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.QueryStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	for row := range rows.All() {
		streamed = append(streamed, row.String())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(streamed) != want.Len() {
		t.Fatalf("streamed %d answers, query materialized %d", len(streamed), want.Len())
	}
	gotSet := map[string]bool{}
	for _, s := range streamed {
		gotSet[s] = true
	}
	for _, s := range want.Strings() {
		if !gotSet[s] {
			t.Fatalf("streamed set is missing %q", s)
		}
	}
	second := 0
	for range rows.All() {
		second++
	}
	if second != want.Len() {
		t.Fatalf("second All over finished stream saw %d answers, want %d", second, want.Len())
	}
	ex := rows.Explain()
	if ex.Shards != 4 {
		t.Fatalf("Explain shards = %d, want 4", ex.Shards)
	}
	if st := rows.Stats(); st.Batches != st.Iterations+1 || st.Batches < 2 {
		t.Fatalf("stats batches/iterations inconsistent: %+v", st)
	}
}

// TestEngineQueryStreamBreak breaks out of a live stream after the first
// answer: the evaluation must stop cleanly (nil Err) and the accessors
// must not block.
func TestEngineQueryStreamBreak(t *testing.T) {
	eng, q := streamEngine(t, 5000)
	rows, err := eng.QueryStream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range rows.All() {
		got++
		break
	}
	if got != 1 {
		t.Fatalf("consumed %d answers before break", got)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("broken stream reports error: %v", err)
	}
}

// TestEngineQueryStreamCancelReportsError pins the distinction between a
// consumer break (clean, nil Err) and the caller's context firing
// mid-stream: the latter must surface as a cancellation error, not
// masquerade as a successfully completed — but silently partial —
// answer set.
func TestEngineQueryStreamCancelReportsError(t *testing.T) {
	eng, q := streamEngine(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := eng.QueryStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range rows.All() {
		got++
		if got == 1 {
			cancel() // cancel the caller's ctx, keep consuming
		}
	}
	if err := rows.Err(); err == nil {
		t.Fatalf("ctx cancelled mid-stream after %d answers, but Err() = nil", got)
	}
}

// TestEngineQueryStreamFallback streams a query whose strategy (magic,
// on the two-sided same-generation recursion) has no incremental
// evaluation: the answers must still arrive, after materialization.
func TestEngineQueryStreamFallback(t *testing.T) {
	db, leafA, _ := datagen.Genealogy(3, 4)
	eng, err := Open(WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`); err != nil {
		t.Fatal(err)
	}
	q := fmt.Sprintf("sg(%s, Y)", leafA)
	want, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.QueryStream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rows.All() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if rows.Explain().Strategy != "magic" {
		t.Fatalf("strategy = %s, want magic", rows.Explain().Strategy)
	}
	if n != want.Len() {
		t.Fatalf("streamed %d answers, want %d", n, want.Len())
	}
}

// TestEngineConcurrentShardedInsertsAndQueries is the engine-level -race
// stress test: parallel writers load chain edges through AddFact while
// parallel readers run prepared and streamed queries over the same
// Engine. Afterwards the chain must be fully visible: the query reaches
// the terminal b-edge and the relation holds every inserted edge.
func TestEngineConcurrentShardedInsertsAndQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 2000
	db := NewDatabase()
	db.SetShards(8)
	eng, err := Open(WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`); err != nil {
		t.Fatal(err)
	}
	eng.AddFact("b", fmt.Sprintf("n%d", n), "end")
	pq, err := eng.Prepare(nil, mustAtom(t, "t(n0, Y)"))
	if err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	const nWriters = 4
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < n; i += nWriters {
				eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { writers.Wait(); close(writersDone) }()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				if r%2 == 0 {
					if _, err := pq.Query(context.Background()); err != nil {
						t.Error(err)
						return
					}
				} else {
					rows := pq.Stream(context.Background())
					for range rows.All() {
					}
					if err := rows.Err(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()

	if got := eng.DB().Relation("a").Len(); got != n {
		t.Fatalf("a has %d edges after concurrent load, want %d", got, n)
	}
	rows, err := pq.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Strings()[0] != "n0,end" {
		t.Fatalf("final query = %v, want [n0,end]", rows.Strings())
	}
}
