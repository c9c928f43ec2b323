package onesided

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/wal"
)

const persistSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
	a(paris, lyon). a(lyon, marseille). a(marseille, toulon).
	b(toulon, nice). b(lyon, grenoble).
`

// TestRecoveryKillAndReopen is the acceptance scenario: load a program,
// run a Fig. 9 query, checkpoint, insert more facts, then abandon the
// engine without Close (the kill) — the reopened engine must hold a
// byte-identical database, answer the same query identically, and show
// the plan skeletons rewarmed from the snapshot.
func TestRecoveryKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	eng, err := Open(WithPersistence(dir), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(persistSrc); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := rows.Strings()
	if len(wantAnswers) == 0 {
		t.Fatal("no answers before kill")
	}
	if got := rows.Explain().Strategy; got != "onesided" {
		t.Fatalf("strategy = %s, want the Fig. 9 plan", got)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: facts that only live in the segment log.
	eng.AddFact("a", "toulon", "hyeres")
	eng.AddFact("b", "hyeres", "giens")
	wantDump := eng.DB().Dump()
	wantEntries := eng.CacheStats().Entries
	if wantEntries == 0 {
		t.Fatal("no cached skeletons before kill")
	}
	// Kill: no Close, no final checkpoint. SyncAlways made every record
	// durable, so the process could have died here.

	re, err := Open(WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DB().Dump(); got != wantDump {
		t.Fatalf("reopened dump differs:\n--- got\n%s--- want\n%s", got, wantDump)
	}
	cs := re.CacheStats()
	if cs.Rewarmed == 0 || cs.Entries != wantEntries {
		t.Fatalf("cache not rewarmed: %+v (want %d entries)", cs, wantEntries)
	}
	rows2, err := re.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	got := rows2.Strings()
	// The tail facts extend the reachable set; recompute on the original
	// engine for the ground truth.
	rows3, err := eng.Query(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	want := rows3.Strings()
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("answers differ after reopen:\n got %v\nwant %v", got, want)
	}
	// The rewarmed skeleton serves the query without a cold compile.
	if ex := rows2.Explain(); ex.PlanCache != "hit" {
		t.Fatalf("plan-cache = %q after rewarm, want hit", ex.PlanCache)
	}
	if cs := re.CacheStats(); cs.Misses != 0 {
		t.Fatalf("reopened engine compiled cold: %+v", cs)
	}
}

// TestRecoveryCheckpointedRestartIsCompact re-runs the CLI pattern:
// open+load+query+checkpoint+close, twice, and checks the second run
// recovers rules and shapes from the snapshot alone.
func TestRecoveryCheckpointedRestartIsCompact(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	for run := 0; run < 2; run++ {
		eng, err := Open(WithPersistence(dir))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if _, err := eng.Load(persistSrc); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if p := eng.Program(); len(p.Rules) != 2 {
			t.Fatalf("run %d: %d rules, want 2 (reload must dedup)", run, len(p.Rules))
		}
		rows, err := eng.Query(ctx, "t(lyon, Y)")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rows.Len() == 0 {
			t.Fatalf("run %d: no answers", run)
		}
		if run == 1 {
			if cs := eng.CacheStats(); cs.Rewarmed == 0 || cs.Hits == 0 {
				t.Fatalf("second run should hit the rewarmed skeleton: %+v", cs)
			}
		}
		if err := eng.Checkpoint(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// TestPersistenceBootstrapsExistingDatabase opens a persistent engine
// over a database that predates the journal: Open must capture it in a
// bootstrap checkpoint so a reopen sees it.
func TestPersistenceBootstrapsExistingDatabase(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase()
	db.AddFact("edge", "a", "b")
	eng, err := Open(WithDatabase(db), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := db.Dump()
	// Kill without Close: the bootstrap checkpoint alone must carry the
	// pre-existing facts.
	re, err := Open(WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DB().Dump(); got != want {
		t.Fatalf("bootstrap state lost:\n got %q\nwant %q", got, want)
	}
	_ = eng.Close()
}

// TestEngineWithoutPersistenceNoops checks Checkpoint and Close are safe
// no-ops on a purely in-memory engine.
func TestEngineWithoutPersistenceNoops(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistenceFailedLogIsErrDurability: no success after a failed
// commit. Once the write-ahead log has failed — here it is closed
// underneath a live engine — every write entry point that changed
// something reports ErrDurability wrapping the log's error instead of
// acknowledging a write that was not made durable.
func TestPersistenceFailedLogIsErrDurability(t *testing.T) {
	eng := openQuickstart(t, WithPersistence(t.TempDir()), WithSyncPolicy(SyncAlways))
	defer eng.Close()
	one := func(x string) []Fact { return []Fact{{Pred: "b", Args: []string{"paris", x}}} }
	if a, err := eng.Apply(Write{Insert: one("x0")}); err != nil || a.Added != 1 {
		t.Fatalf("healthy log: %+v, %v", a, err)
	}
	if err := eng.Log().Close(); err != nil {
		t.Fatal(err)
	}
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrDurability) || !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("%s over a closed log: err = %v, want ErrDurability wrapping the log's error", name, err)
		}
	}
	a, err := eng.Apply(Write{Insert: one("x1"), Retract: one("x0")})
	check("Apply", err)
	if a != (Applied{Added: 1, Removed: 1}) {
		t.Fatalf("Apply over a closed log reports %+v, want what it applied in memory", a)
	}
	_, err = eng.InsertFacts(one("x2"))
	check("InsertFacts", err)
	_, err = eng.RetractFacts(one("x2"))
	check("RetractFacts", err)
	_, err = eng.Load("r(X, Y) :- b(X, Y).")
	check("Load", err)
}
