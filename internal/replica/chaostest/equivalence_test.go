package chaostest

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	onesided "repro"
	"repro/internal/datagen"
	"repro/internal/replica"
	"repro/internal/storage"
)

// eqFact is one ingestible fact of an equivalence workload.
type eqFact struct {
	pred string
	args []string
}

// program is one of the five example programs, predicates prefixed so
// all five coexist in a single replicated engine.
type program struct {
	name    string
	rules   string
	facts   []eqFact
	queries []string
}

// dumpDB enumerates a datagen-built database as prefixed facts.
func dumpDB(db *storage.Database, prefix string, out []eqFact) []eqFact {
	for _, pred := range db.Preds() {
		rel := db.Relation(pred)
		for _, tu := range rel.Tuples() {
			args := make([]string, len(tu))
			for i, v := range tu {
				args[i] = db.Syms.Name(v)
			}
			out = append(out, eqFact{pred: prefix + pred, args: args})
		}
	}
	return out
}

// buildPrograms assembles scaled-down versions of the five example
// programs: quickstart (chain TC), flights (graph reachability),
// genealogy (same-generation), marketbasket (buys/likes/cheap), and
// appendix A's bounded recursion.
func buildPrograms() []program {
	qs := program{
		name:    "quickstart",
		rules:   "qs_t(X, Y) :- qs_a(X, Z), qs_t(Z, Y).\nqs_t(X, Y) :- qs_b(X, Y).",
		queries: []string{"qs_t(qn0, Y)", "qs_t(qn30, Y)"},
	}
	{
		db := storage.NewDatabase()
		_, last := datagen.Chain(db, "a", "qn", 60)
		qs.facts = dumpDB(db, "qs_", nil)
		qs.facts = append(qs.facts, eqFact{pred: "qs_b", args: []string{last, "qend"}})
	}

	fl := program{
		name:    "flights",
		rules:   "fl_reach(X, Y) :- fl_flight(X, Z), fl_reach(Z, Y).\nfl_reach(X, Y) :- fl_ferry(X, Y).",
		queries: []string{"fl_reach(apt0, Y)", "fl_reach(apt7, Y)"},
	}
	{
		db := storage.NewDatabase()
		datagen.RandomGraph(db, "flight", "apt", 80, 240, 7)
		fl.facts = dumpDB(db, "fl_", nil)
		for i := 0; i < 8; i++ {
			fl.facts = append(fl.facts, eqFact{pred: "fl_ferry",
				args: []string{fmt.Sprintf("apt%d", i*10), fmt.Sprintf("island%d", i%3)}})
		}
	}

	gdb, leafA, leafB := datagen.Genealogy(3, 5)
	ge := program{
		name:  "genealogy",
		rules: "ge_sg(X, Y) :- ge_p(X, W), ge_p(Y, Z), ge_sg(W, Z).\nge_sg(X, Y) :- ge_sg0(X, Y).",
		facts: dumpDB(gdb, "ge_", nil),
		queries: []string{
			fmt.Sprintf("ge_sg(%s, Y)", leafA),
			fmt.Sprintf("ge_sg(%s, %s)", leafA, leafB),
		},
	}

	mb := program{
		name:    "marketbasket",
		rules:   "mb_buys(X, Y) :- mb_knows(X, W), mb_buys(W, Y), mb_cheap(Y).\nmb_buys(X, Y) :- mb_likes(X, Y), mb_cheap(Y).",
		facts:   dumpDB(datagen.Market(15, 4, 10, 3), "mb_", nil),
		queries: []string{"mb_buys(p3_0, Y)", "mb_buys(p7_0, Y)"},
	}

	ax := program{
		name:    "appendixa",
		rules:   "ax_p(X1, X2) :- ax_c(X1), ax_p(X1, X2).\nax_p(X1, X2) :- ax_c(X1), ax_p0(X1, X2).",
		queries: []string{"ax_p(u0, Y)", "ax_p(u11, Y)"},
	}
	for i := 0; i < 20; i++ {
		ax.facts = append(ax.facts,
			eqFact{pred: "ax_c", args: []string{fmt.Sprintf("u%d", i)}},
			eqFact{pred: "ax_p0", args: []string{fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i)}})
	}

	return []program{qs, fl, ge, mb, ax}
}

// answers evaluates a query and returns its sorted rows.
func answers(t *testing.T, eng *onesided.Engine, q string) []string {
	t.Helper()
	rows, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	return rows.Strings()
}

// compareAnswers requires both engines to answer q identically.
func compareAnswers(t *testing.T, primary, follower *onesided.Engine, q string) {
	t.Helper()
	ps, fs := answers(t, primary, q), answers(t, follower, q)
	if len(ps) != len(fs) {
		t.Fatalf("%s: primary %d answers, follower %d", q, len(ps), len(fs))
	}
	for i := range ps {
		if ps[i] != fs[i] {
			t.Fatalf("%s answer %d: primary %q, follower %q", q, i, ps[i], fs[i])
		}
	}
}

// TestRandomizedEquivalence is the end-to-end oracle for the epoch
// invariant: all five example programs stream through replication while
// the follower is restarted at random points (recovering from its
// mirror each time), the primary checkpoints at random points (forcing
// resyncs from its new snapshot), and at random quiesce points both
// engines must give identical answers at the matching epoch. The final
// state must be byte-identical.
func TestRandomizedEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEquivalence(t, seed)
		})
	}
}

func runEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	peng, err := onesided.Open(onesided.WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peng.Close() })
	mux := http.NewServeMux()
	mux.Handle("/v1/repl/", replica.NewSource(peng.Log(), peng.DB()))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	mirror := t.TempDir()
	feng, f := startFollower(t, ts.URL, mirror)

	progs := buildPrograms()
	for _, pr := range progs {
		if _, err := peng.Load(pr.rules); err != nil {
			t.Fatalf("%s rules: %v", pr.name, err)
		}
	}

	// catchUp waits until the (quiesced) follower reaches the primary's
	// epoch exactly.
	catchUp := func() {
		t.Helper()
		want := peng.DB().Epoch()
		deadline := time.Now().Add(15 * time.Second)
		for feng.DB().Epoch() < want {
			if err := f.Err(); err != nil {
				t.Fatalf("follower failed: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at epoch %d, want %d (stats %+v)",
					feng.DB().Epoch(), want, f.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
		if got := feng.DB().Epoch(); got != want {
			t.Fatalf("follower overshot: epoch %d, want %d", got, want)
		}
	}

	restarts, barriers := 0, 0
	remaining := make([][]eqFact, len(progs))
	total := 0
	for i, pr := range progs {
		remaining[i] = pr.facts
		total += len(pr.facts)
	}
	for total > 0 {
		// Pick a program that still has facts and push a random chunk.
		i := rng.Intn(len(progs))
		for len(remaining[i]) == 0 {
			i = (i + 1) % len(progs)
		}
		n := min(rng.Intn(15)+1, len(remaining[i]))
		for _, fa := range remaining[i][:n] {
			if _, err := peng.InsertFact(fa.pred, fa.args...); err != nil {
				t.Fatal(err)
			}
		}
		remaining[i] = remaining[i][n:]
		total -= n

		switch {
		case rng.Float64() < 0.10:
			if err := peng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case rng.Float64() < 0.15:
			// Kill the follower mid-apply and restart it over the mirror.
			f.Close()
			feng.Close()
			feng, f = startFollower(t, ts.URL, mirror)
			restarts++
		case rng.Float64() < 0.20:
			// Matching-epoch barrier: writes are quiesced (this loop is
			// the only writer), so both engines must answer identically.
			catchUp()
			pr := progs[rng.Intn(len(progs))]
			compareAnswers(t, peng, feng, pr.queries[rng.Intn(len(pr.queries))])
			barriers++
		}
	}

	catchUp()
	if want, got := peng.DB().Dump(), feng.DB().Dump(); want != got {
		t.Fatalf("final dumps differ after %d restarts\nprimary:\n%s\nfollower:\n%s",
			restarts, want, got)
	}
	for _, pr := range progs {
		for _, q := range pr.queries {
			compareAnswers(t, peng, feng, q)
		}
	}
	t.Logf("seed %d: %d facts, %d restarts, %d mid-run barriers, final epoch %d",
		seed, peng.DB().Epoch(), restarts, barriers, peng.DB().Epoch())
}
