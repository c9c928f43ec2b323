package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// dbReplay wires a Replay into a fresh database, collecting rules and
// shapes on the side.
func dbReplay(db *storage.Database) (Replay, *[]string, *[]string) {
	rules := &[]string{}
	shapes := &[]string{}
	replay := ReplayInto(db)
	replay.Rule = func(src string) { *rules = append(*rules, src) }
	replay.Shape = func(q string) { *shapes = append(*shapes, q) }
	return replay, rules, shapes
}

// openJournaled opens a log over dir and attaches it to a fresh
// database after replaying the persisted state into it.
func openJournaled(t testing.TB, dir string, policy SyncPolicy) (*storage.Database, *Log, []string, []string) {
	t.Helper()
	db := storage.NewDatabase()
	replay, rules, shapes := dbReplay(db)
	l, err := Open(dir, policy, replay)
	if err != nil {
		t.Fatal(err)
	}
	db.SetJournal(l)
	return db, l, *rules, *shapes
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	db.AddFact("edge", "a", "b")
	db.AddFact("edge", "b", "c")
	db.AddFact("node", "a")
	db.AddFact("edge", "a", "b") // duplicate: must not be journaled twice
	l.AppendRules("t(X, Y) :- edge(X, Y).")
	want := db.Dump()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db2, l2, rules, _ := openJournaled(t, dir, SyncBatch)
	defer l2.Close()
	if got := db2.Dump(); got != want {
		t.Fatalf("recovered dump:\n%s\nwant:\n%s", got, want)
	}
	if len(rules) != 1 || rules[0] != "t(X, Y) :- edge(X, Y)." {
		t.Fatalf("recovered rules = %v", rules)
	}
	// Value identity: replay interns in the original order.
	v1, _ := db.Syms.Lookup("c")
	v2, ok := db2.Syms.Lookup("c")
	if !ok || v1 != v2 {
		t.Fatalf("symbol c: %d vs %d", v1, v2)
	}
}

func TestLogCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	for i := 0; i < 10; i++ {
		db.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, []string{"t(X, Y) :- a(X, Z), t(Z, Y)."}, []string{"t(s0, V0)"}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail.
	db.AddFact("a", "tail", "fact")
	want := db.Dump()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The pre-checkpoint segment must be gone, one snapshot present.
	entries, _ := os.ReadDir(dir)
	segs, snaps := 0, 0
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "seg-", ".wal"); ok {
			segs++
		}
		if _, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", snaps)
	}
	if segs != 1 {
		t.Fatalf("segments on disk = %d, want 1 (covered segments pruned)", segs)
	}

	db2, l2, rules, shapes := openJournaled(t, dir, SyncBatch)
	defer l2.Close()
	if got := db2.Dump(); got != want {
		t.Fatalf("recovered dump:\n%s\nwant:\n%s", got, want)
	}
	if len(rules) != 1 || len(shapes) != 1 || shapes[0] != "t(s0, V0)" {
		t.Fatalf("rules = %v, shapes = %v", rules, shapes)
	}
}

func TestLogSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncBatch, SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, l, _, _ := openJournaled(t, dir, pol)
			db.AddFact("p", "x")
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			db2, l2, _, _ := openJournaled(t, dir, pol)
			defer l2.Close()
			if db2.Dump() != db.Dump() {
				t.Fatal("state lost")
			}
		})
	}
}

func TestLogAppendAfterCloseSticksError(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db.AddFact("p", "x") // journaled into a closed log
	if err := l.Err(); err != ErrClosed {
		t.Fatalf("Err = %v, want ErrClosed", err)
	}
}

func TestRecoveryCorruptSealedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncAlways)
	db.AddFact("p", "x")
	seg1 := activeSegmentPath(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Seal seg1 by creating a later segment, then corrupt seg1's body.
	db2, l2, _, _ := openJournaled(t, dir, SyncAlways)
	db2.AddFact("p", "y")
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := storage.NewDatabase()
	replay, _, _ := dbReplay(fresh)
	if _, err := Open(dir, SyncBatch, replay); err == nil {
		t.Fatal("recovery over a corrupt sealed segment must fail")
	}
}

// activeSegmentPath returns the highest-numbered segment file.
func activeSegmentPath(t testing.TB, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestSeq uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "seg-", ".wal"); ok && (best == "" || seq > bestSeq) {
			best, bestSeq = filepath.Join(dir, e.Name()), seq
		}
	}
	if best == "" {
		t.Fatal("no segment files")
	}
	return best
}
