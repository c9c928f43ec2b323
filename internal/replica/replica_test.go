package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/wal"
)

// newPrimary opens a persistent engine and serves its log over a test
// HTTP server.
func newPrimary(t testing.TB) (*onesided.Engine, *httptest.Server) {
	t.Helper()
	return newPrimaryIn(t, t.TempDir())
}

// newPrimaryIn is newPrimary over an existing data directory.
func newPrimaryIn(t testing.TB, dir string) (*onesided.Engine, *httptest.Server) {
	t.Helper()
	eng, err := onesided.Open(onesided.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mux := http.NewServeMux()
	mux.Handle("/v1/repl/", NewSource(eng.Log(), eng.DB()))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return eng, ts
}

// startFollower starts a follower over the given mirror dir with fast
// test timings.
func startFollower(t testing.TB, primary, dir string) (*onesided.Engine, *Follower) {
	t.Helper()
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Start(FollowerConfig{
		Engine:       eng,
		Primary:      primary,
		Dir:          dir,
		PollInterval: 50 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, f
}

// waitConverged polls until the follower's Dump matches the primary's.
func waitConverged(t testing.TB, primary, follower *onesided.Engine, f *Follower) {
	t.Helper()
	want := primary.DB().Dump()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if follower.DB().Dump() == want {
			return
		}
		if err := f.Err(); err != nil {
			t.Fatalf("follower failed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never converged (stats %+v)\nfollower:\n%s\nprimary:\n%s",
		f.Stats(), follower.DB().Dump(), primary.DB().Dump())
}

func TestFollowerConvergesLive(t *testing.T) {
	primary, ts := newPrimary(t)
	// Pre-follower history: some in the checkpoint snapshot, some in
	// the live tail.
	for i := 0; i < 20; i++ {
		primary.AddFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	primary.Load("path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).")
	primary.AddFact("edge", "tail", "fact")

	feng, f := startFollower(t, ts.URL, t.TempDir())
	waitConverged(t, primary, feng, f)

	// Epoch invariant: same log position, same epoch.
	if pe, fe := primary.DB().Epoch(), feng.DB().Epoch(); pe != fe {
		t.Fatalf("epochs diverge: primary %d, follower %d", pe, fe)
	}

	// Live tail: new facts flow through without restarting anything.
	primary.AddFact("edge", "live1", "live2")
	primary.AddFact("edge", "live2", "live3")
	waitConverged(t, primary, feng, f)

	// The replicated program answers queries identically.
	prows, err := primary.Query(context.Background(), "path(n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	frows, err := feng.Query(context.Background(), "path(n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ps, fs := prows.Strings(), frows.Strings()
	if len(ps) == 0 || len(ps) != len(fs) {
		t.Fatalf("answer counts: primary %d, follower %d", len(ps), len(fs))
	}
	for i := range ps {
		if ps[i] != fs[i] {
			t.Fatalf("answer %d: %q vs %q", i, ps[i], fs[i])
		}
	}

	// Follower rejects direct writes.
	if _, err := feng.InsertFact("edge", "x", "y"); err != onesided.ErrReadOnly {
		t.Fatalf("InsertFact on follower = %v, want ErrReadOnly", err)
	}

	st := f.Stats()
	if st.State != "tailing" || st.RecordsApplied == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFollowerRestartResumesFromMirror(t *testing.T) {
	primary, ts := newPrimary(t)
	for i := 0; i < 10; i++ {
		primary.AddFact("p", fmt.Sprintf("a%d", i))
	}
	mirror := t.TempDir()
	feng, f := startFollower(t, ts.URL, mirror)
	waitConverged(t, primary, feng, f)
	before := f.Stats().RecordsApplied
	f.Close()
	feng.Close()

	// More primary history while the follower is down.
	for i := 0; i < 10; i++ {
		primary.AddFact("p", fmt.Sprintf("b%d", i))
	}

	feng2, f2 := startFollower(t, ts.URL, mirror)
	waitConverged(t, primary, feng2, f2)
	if pe, fe := primary.DB().Epoch(), feng2.DB().Epoch(); pe != fe {
		t.Fatalf("epochs diverge after restart: %d vs %d", pe, fe)
	}
	// The restart recovered the prefix locally: it must not have
	// re-applied the records the mirror already held.
	if again := f2.Stats().RecordsApplied; before > 0 && again >= before+20 {
		t.Fatalf("restart re-applied the stream: %d records after, %d before", again, before)
	}
}

func TestFollowerSurvivesPrimaryCheckpointPrune(t *testing.T) {
	primary, ts := newPrimary(t)
	feng, f := startFollower(t, ts.URL, t.TempDir())
	primary.AddFact("p", "one")
	waitConverged(t, primary, feng, f)

	// Checkpoint twice so the follower's cursor segment is pruned.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	primary.AddFact("p", "two")
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	primary.AddFact("p", "three")
	waitConverged(t, primary, feng, f)
	if pe, fe := primary.DB().Epoch(), feng.DB().Epoch(); pe != fe {
		t.Fatalf("epochs diverge after prune resync: %d vs %d", pe, fe)
	}
}

// After two primary checkpoints the follower's mirror holds one
// snapshot, the primary's newest, and a follower restarted over the
// mirror recovers from it and reaches the primary's state.
func TestFollowerMirrorHoldsOneSnapshot(t *testing.T) {
	primary, ts := newPrimary(t)
	mirror := t.TempDir()
	feng, f := startFollower(t, ts.URL, mirror)
	for i := 0; i < 2; i++ {
		primary.AddFact("p", fmt.Sprintf("c%d", i))
		if err := primary.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	primary.AddFact("p", "tail")
	waitConverged(t, primary, feng, f)

	head := primary.Log().SnapshotHead()
	want := []string{wal.SnapshotFileName(head)}
	var snaps []string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		snaps, _ = filepath.Glob(filepath.Join(mirror, "snap-*.snap"))
		for i := range snaps {
			snaps[i] = filepath.Base(snaps[i])
		}
		if slices.Equal(snaps, want) {
			break
		}
	}
	if !slices.Equal(snaps, want) {
		t.Fatalf("mirror snapshots = %v, want %v", snaps, want)
	}
	f.Close()
	feng.Close()

	primary.AddFact("p", "after")
	feng2, f2 := startFollower(t, ts.URL, mirror)
	waitConverged(t, primary, feng2, f2)
	if st := f2.Stats(); st.SnapshotsApplied != 0 {
		t.Fatalf("restarted follower fetched %d snapshots, want to recover from its mirror", st.SnapshotsApplied)
	}
}

// A primary keeps a 0-byte segment that a crash before its header left
// between two live ones. The follower must mirror it (empty), or its
// mirror has a gap that recovery refuses: a restart and a promotion over
// the mirror would fail with "segment 2 is missing".
func TestFollowerMirrorsEmptySealedSegment(t *testing.T) {
	pdir := t.TempDir()
	seed, err := onesided.Open(onesided.WithPersistence(pdir))
	if err != nil {
		t.Fatal(err)
	}
	seed.AddFact("p", "before")
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(pdir, wal.SegmentFileName(2))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	primary, ts := newPrimaryIn(t, pdir)
	if seq := primary.Log().ActiveSeq(); seq != 3 {
		t.Fatalf("primary appends to segment %d, want 3 (after the empty segment 2)", seq)
	}
	primary.AddFact("p", "after")

	mirror := t.TempDir()
	feng, f := startFollower(t, ts.URL, mirror)
	waitConverged(t, primary, feng, f)
	if fi, err := os.Stat(filepath.Join(mirror, wal.SegmentFileName(2))); err != nil || fi.Size() != 0 {
		t.Fatalf("mirrored empty segment: %v, %v", fi, err)
	}
	f.Close()
	feng.Close()

	primary.AddFact("p", "restart")
	feng2, f2 := startFollower(t, ts.URL, mirror)
	waitConverged(t, primary, feng2, f2)
	want := primary.DB().Dump()
	if err := f2.Promote(wal.SyncBatch); err != nil {
		t.Fatal(err)
	}
	if err := feng2.Close(); err != nil {
		t.Fatal(err)
	}
	reng, err := onesided.Open(onesided.WithPersistence(mirror))
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	if got := reng.DB().Dump(); got != want {
		t.Fatalf("restart after promote:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromoteTurnsMirrorIntoLog(t *testing.T) {
	primary, ts := newPrimary(t)
	for i := 0; i < 5; i++ {
		primary.AddFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	primary.Load("t(X, Y) :- edge(X, Y).")
	mirror := t.TempDir()
	feng, f := startFollower(t, ts.URL, mirror)
	waitConverged(t, primary, feng, f)
	want := primary.DB().Dump()

	if err := f.Promote(wal.SyncBatch); err != nil {
		t.Fatal(err)
	}
	if feng.ReadOnly() {
		t.Fatal("promoted engine still read-only")
	}
	if feng.Log() == nil {
		t.Fatal("promoted engine has no log")
	}
	// Writes work and are journaled.
	if _, err := feng.InsertFact("edge", "new", "fact"); err != nil {
		t.Fatal(err)
	}
	after := feng.DB().Dump()
	if err := feng.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart over the mirror recovers the full promoted history:
	// the pre-promotion replicated state plus the post-promotion write.
	reng, err := onesided.Open(onesided.WithPersistence(mirror))
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	if got := reng.DB().Dump(); got != after {
		t.Fatalf("restart after promote:\n%s\nwant:\n%s", got, after)
	}
	if want == after {
		t.Fatal("post-promotion write did not change the dump")
	}
}
