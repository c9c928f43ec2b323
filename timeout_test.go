package onesided

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// ctxStrategyCases drives one engine per served strategy over a
// program that strategy accepts, so the deadline/cancel regressions
// below cover every fixpoint loop (and the edb lookup) uniformly. The
// "multi" row is a two-rule recursion, which the one-sided planner
// serves with its reduced mode.
var ctxStrategyCases = []struct {
	name  string
	opts  []Option
	src   string
	query string
	want  string // Explain().Strategy on a live context
}{
	{"onesided", nil, tcChainSrc(40), "t(x0, Y)", "onesided"},
	{"multi", nil, `
		t(X, Y) :- a(Y, Z), t(X, Z).
		t(X, Y) :- c(Y, Z), t(X, Z).
		t(X, Y) :- b(X, Y).
		a(n2, n1). c(n3, n2). b(u, n1).
	`, "t(u, Y)", "onesided"},
	{"magic", nil, `
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
		p(a, r). p(b, r). sg0(r, r).
	`, "sg(a, Y)", "magic"},
	{"seminaive", []Option{WithStrategies("seminaive", "edb")}, tcChainSrc(40), "t(x0, Y)", "seminaive"},
	{"edb", nil, tcChainSrc(40), "a(x0, Y)", "edb"},
}

// tcChainSrc renders the canonical TC program over an n-edge a-chain
// with a b-edge off every node.
func tcChainSrc(n int) string {
	var b strings.Builder
	b.WriteString("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "a(x%d, x%d). b(x%d, y%d).\n", i, i+1, i, i)
	}
	return b.String()
}

func openCtxCase(t *testing.T, opts []Option, src string) *Engine {
	t.Helper()
	eng, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Load(src); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestQueryDeadlinePerStrategy: an expired deadline surfaces from Query
// as an error errors.Is-matching context.DeadlineExceeded, for every
// strategy — and a live context still answers with the strategy the
// case expects (so the regression is really exercising that loop).
func TestQueryDeadlinePerStrategy(t *testing.T) {
	for _, tc := range ctxStrategyCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := openCtxCase(t, tc.opts, tc.src)
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
			defer cancel()
			if _, err := eng.Query(ctx, tc.query); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
			}
			rows, err := eng.Query(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if got := rows.Explain().Strategy; got != tc.want {
				t.Fatalf("live query strategy = %q, want %q", got, tc.want)
			}
			if rows.Len() == 0 {
				t.Fatal("live query returned no answers")
			}
		})
	}
}

// TestQueryCancelPerStrategy: a canceled context surfaces from Query as
// context.Canceled, for every strategy.
func TestQueryCancelPerStrategy(t *testing.T) {
	for _, tc := range ctxStrategyCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := openCtxCase(t, tc.opts, tc.src)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.Query(ctx, tc.query); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled ctx: err = %v, want Canceled", err)
			}
		})
	}
}

// TestStreamErrDeadlinePerStrategy: the streaming path must surface a
// dead context through Rows.Err() (errors.Is-matchable), whether the
// query dies at planning or mid-fixpoint.
func TestStreamErrDeadlinePerStrategy(t *testing.T) {
	for _, tc := range ctxStrategyCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := openCtxCase(t, tc.opts, tc.src)
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
			defer cancel()
			rows, err := eng.QueryStream(ctx, tc.query)
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("QueryStream err = %v, want DeadlineExceeded", err)
				}
				return
			}
			for range rows.All() {
			}
			if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Rows.Err() = %v, want DeadlineExceeded", err)
			}
		})
	}
}

// TestStreamErrCancelPerStrategy is the cancel twin of the deadline
// stream regression.
func TestStreamErrCancelPerStrategy(t *testing.T) {
	for _, tc := range ctxStrategyCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := openCtxCase(t, tc.opts, tc.src)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rows, err := eng.QueryStream(ctx, tc.query)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("QueryStream err = %v, want Canceled", err)
				}
				return
			}
			for range rows.All() {
			}
			if err := rows.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Rows.Err() = %v, want Canceled", err)
			}
		})
	}
}

// TestStreamCancelMidFixpoint cancels a live one-sided stream after the
// first answer: the terminal Rows.Err() must be the context error, not
// a silent truncation.
func TestStreamCancelMidFixpoint(t *testing.T) {
	eng := openCtxCase(t, nil, tcChainSrc(400))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := eng.QueryStream(ctx, "t(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range rows.All() {
		seen++
		if seen == 1 {
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rows.Err() = %v, want Canceled after mid-stream cancel", err)
	}
}

// ---------------------------------------------------------------------------
// Gas quota

// TestQuotaGasExhausted: a runaway TC under a small derived-fact budget
// aborts with ErrGasExhausted — and the engine remains fully
// serviceable for ungoverned callers afterwards.
func TestQuotaGasExhausted(t *testing.T) {
	eng := openCtxCase(t, []Option{WithQuota(Quota{MaxDerived: 20})}, tcChainSrc(300))
	_, err := eng.Query(context.Background(), "t(x0, Y)")
	if !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("err = %v, want ErrGasExhausted", err)
	}
	// A caller-supplied unlimited-enough meter overrides the engine
	// default, so the same query completes.
	rows, err := eng.Query(WithGas(context.Background(), 1_000_000), "t(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("governed engine gave no answers to a funded caller")
	}
}

// TestWithGasPerStrategy: the gas meter is honored inside every
// fixpoint strategy, not just the Fig. 9 loop. (The edb lookup derives
// nothing and is exempt by design.)
func TestWithGasPerStrategy(t *testing.T) {
	for _, tc := range ctxStrategyCases {
		if tc.name == "edb" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			eng := openCtxCase(t, tc.opts, tc.src)
			if _, err := eng.Query(WithGas(context.Background(), 1), tc.query); !errors.Is(err, ErrGasExhausted) {
				t.Fatalf("gas=1: err = %v, want ErrGasExhausted", err)
			}
			rows, err := eng.Query(WithGas(context.Background(), 1_000_000), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Len() == 0 {
				t.Fatal("funded query returned no answers")
			}
		})
	}
}

// TestGasBatchShared: one budget governs a whole QueryBatch.
func TestGasBatchShared(t *testing.T) {
	eng := openCtxCase(t, nil, tcChainSrc(200))
	ctx := WithGas(context.Background(), 30)
	_, err := eng.QueryBatch(ctx, []string{"t(x0, Y)", "t(x1, Y)"})
	if !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("batch err = %v, want ErrGasExhausted", err)
	}
	if rem := GasRemaining(ctx); rem != 0 {
		t.Fatalf("GasRemaining = %d after exhaustion, want 0", rem)
	}
}

// TestInsertFactQuota: MaxFacts is admission control on ingest, and a
// rejected insert leaves querying untouched.
func TestInsertFactQuota(t *testing.T) {
	eng := openCtxCase(t, []Option{WithQuota(Quota{MaxFacts: 3})}, "t(X, Y) :- a(X, Y).\n")
	for i := 0; i < 3; i++ {
		added, err := eng.InsertFact("a", fmt.Sprintf("k%d", i), "v")
		if err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", i, added, err)
		}
	}
	if _, err := eng.InsertFact("a", "k3", "v"); !errors.Is(err, ErrFactLimitExceeded) {
		t.Fatalf("over-limit insert err = %v, want ErrFactLimitExceeded", err)
	}
	rows, err := eng.Query(context.Background(), "t(k0, Y)")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("query after rejection: rows=%v err=%v", rows, err)
	}
}

// TestLoadAdmitsFactsLikeInsertFacts: ground facts in a loaded source are
// an InsertFacts batch — the fact quota and the read-only gate cannot be
// bypassed by spelling facts as program text — while the rules of the
// same source still load.
func TestLoadAdmitsFactsLikeInsertFacts(t *testing.T) {
	eng := openCtxCase(t, []Option{WithQuota(Quota{MaxFacts: 2})}, "")
	_, err := eng.Load("a(k0, v). a(k1, v). a(k2, v).\nt(X, Y) :- a(X, Y).\n")
	if !errors.Is(err, ErrFactLimitExceeded) {
		t.Fatalf("Load past MaxFacts: err = %v, want ErrFactLimitExceeded", err)
	}
	if n := eng.DB().TupleCount(); n != 2 {
		t.Fatalf("Load stored %d tuples under MaxFacts 2", n)
	}
	rows, err := eng.Query(context.Background(), "t(k0, Y)")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("rule from the refused source: rows=%v err=%v", rows, err)
	}

	ro := openCtxCase(t, nil, "a(k0, v).\n")
	ro.SetReadOnly(true)
	if _, err := ro.Load("a(k1, v).\nt(X, Y) :- a(X, Y).\n"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Load on a read-only engine: err = %v, want ErrReadOnly", err)
	}
	if n := ro.DB().TupleCount(); n != 1 {
		t.Fatalf("read-only Load stored a fact: %d tuples", n)
	}
	if len(ro.Program().Rules) != 1 {
		t.Fatalf("read-only Load dropped the rule: %v", ro.Program().Rules)
	}
}

// TestArityMismatchIsTypedError: no insert entry point panics on a fact
// whose arity differs from its relation's (stored, or fixed by an earlier
// fact of the same batch); each returns ErrArityMismatch with the facts
// before it applied, and a retraction of the wrong arity is a miss.
func TestArityMismatchIsTypedError(t *testing.T) {
	cases := []struct {
		name   string
		insert func(*Engine) (int, error)
	}{
		{"InsertFact", func(e *Engine) (int, error) {
			_, err := e.InsertFact("a", "x")
			return 0, err
		}},
		{"InsertFacts/stored", func(e *Engine) (int, error) {
			return e.InsertFacts([]Fact{{"a", []string{"k1", "v"}}, {"a", []string{"x"}}, {"a", []string{"k2", "v"}}})
		}},
		{"InsertFacts/new", func(e *Engine) (int, error) {
			return e.InsertFacts([]Fact{{"n", []string{"x"}}, {"a", []string{"k1", "v"}}, {"n", []string{"x", "y"}}})
		}},
		{"Load", func(e *Engine) (int, error) {
			before := e.DB().TupleCount()
			_, err := e.Load("c(k1).\na(x).\nc(k2).\n")
			return e.DB().TupleCount() - before, err
		}},
	}
	wantAdded := []int{0, 1, 2, 1}
	for i, tc := range cases {
		eng := openCtxCase(t, nil, "a(k0, v).\n")
		added, err := tc.insert(eng)
		if !errors.Is(err, ErrArityMismatch) {
			t.Fatalf("%s: err = %v, want ErrArityMismatch", tc.name, err)
		}
		if added != wantAdded[i] || eng.DB().TupleCount() != 1+wantAdded[i] {
			t.Fatalf("%s: added %d (%d tuples), want the valid prefix of %d", tc.name, added, eng.DB().TupleCount(), wantAdded[i])
		}
		if eng.AddFact("a", "x") {
			t.Fatalf("%s: AddFact accepted a wrong-arity fact", tc.name)
		}
		if n, err := eng.RetractFacts([]Fact{{"a", []string{"k0"}}, {"a", []string{"k0", "v"}}}); n != 1 || err != nil {
			t.Fatalf("%s: RetractFacts = %d, %v; want the wrong-arity fact skipped and 1 removed", tc.name, n, err)
		}
	}
}
