package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// copyDir clones a log directory so each torn-tail injection starts from
// the same crashed state.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryTornTail injects a crash at every byte offset of the last
// record of the active segment: recovery must always come back with the
// checkpointed state plus the intact record prefix, never panic, and
// never lose a record before the torn one.
func TestRecoveryTornTail(t *testing.T) {
	master := t.TempDir()
	db, l, _, _ := openJournaled(t, master, SyncAlways)
	// A checkpointed base...
	db.AddFact("base", "b0")
	db.AddFact("base", "b1")
	if err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, nil, nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...plus a tail of records with measured extents.
	seg := activeSegmentPath(t, master)
	sizeBefore := func() int64 {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	var offsets []int64 // file size after each tail fact
	const tail = 6
	for i := 0; i < tail; i++ {
		db.AddFact("t", fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
		offsets = append(offsets, sizeBefore())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	full := offsets[len(offsets)-1]
	lastStart := offsets[len(offsets)-2]
	for cut := lastStart; cut <= full; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := copyDir(t, master)
			if err := os.Truncate(activeSegmentPath(t, dir), cut); err != nil {
				t.Fatal(err)
			}
			rec := storage.NewDatabase()
			replay, _, _ := dbReplay(rec)
			l, err := Open(dir, SyncBatch, replay)
			if err != nil {
				t.Fatalf("recovery failed at cut %d: %v", cut, err)
			}
			defer l.Close()

			dump := rec.Dump()
			if !strings.Contains(dump, "base(b0).") || !strings.Contains(dump, "base(b1).") {
				t.Fatalf("checkpointed base lost at cut %d:\n%s", cut, dump)
			}
			wantTail := tail - 1 // the last record is torn unless cut == full
			if cut == full {
				wantTail = tail
			}
			trel := rec.Relation("t")
			if trel == nil {
				t.Fatalf("tail relation lost at cut %d", cut)
			}
			if got := trel.Len(); got != wantTail {
				t.Fatalf("cut %d: recovered %d tail facts, want %d\n%s", cut, got, wantTail, dump)
			}
			// The log must accept appends after repair.
			rec.SetJournal(l)
			rec.AddFact("post", "recovery")
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveryTornTailEveryPrefix hammers the whole tail segment: a cut
// at every byte from the segment header to EOF recovers the base plus
// however many whole records survived.
func TestRecoveryTornTailEveryPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-segment sweep")
	}
	master := t.TempDir()
	db, l, _, _ := openJournaled(t, master, SyncAlways)
	db.AddFact("base", "b0")
	if err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, nil, nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		db.AddFact("t", fmt.Sprintf("x%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(activeSegmentPath(t, master))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= st.Size(); cut++ {
		dir := copyDir(t, master)
		if err := os.Truncate(activeSegmentPath(t, dir), cut); err != nil {
			t.Fatal(err)
		}
		rec := storage.NewDatabase()
		replay, _, _ := dbReplay(rec)
		l, err := Open(dir, SyncBatch, replay)
		if err != nil {
			t.Fatalf("recovery failed at cut %d: %v", cut, err)
		}
		l.Close()
		if !strings.Contains(rec.Dump(), "base(b0).") {
			t.Fatalf("checkpointed base lost at cut %d", cut)
		}
	}
}

// TestRecoveryRepairedTailStaysRecoverable reopens twice: the first
// recovery truncates the torn record, the second must replay the (now
// sealed) repaired segment without complaint.
func TestRecoveryRepairedTailStaysRecoverable(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncAlways)
	db.AddFact("p", "a")
	db.AddFact("p", "b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegmentPath(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil { // tear the last record
		t.Fatal(err)
	}

	rec1 := storage.NewDatabase()
	replay1, _, _ := dbReplay(rec1)
	l1, err := Open(dir, SyncBatch, replay1)
	if err != nil {
		t.Fatal(err)
	}
	rec1.SetJournal(l1)
	rec1.AddFact("q", "c") // lands in the fresh segment, sealing the repaired one
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	rec2 := storage.NewDatabase()
	replay2, _, _ := dbReplay(rec2)
	l2, err := Open(dir, SyncBatch, replay2)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer l2.Close()
	dump := rec2.Dump()
	if !strings.Contains(dump, "p(a).") || !strings.Contains(dump, "q(c).") {
		t.Fatalf("second recovery lost state:\n%s", dump)
	}
	if strings.Contains(dump, "p(b).") {
		t.Fatalf("torn record resurrected:\n%s", dump)
	}
}

// TestRecoveryAcrossRestartCheckpoints: each process checkpoints what it
// recovered plus its own writes. After each checkpoint the directory
// holds exactly one snapshot, and the next process recovers the whole
// history from it and the tail.
func TestRecoveryAcrossRestartCheckpoints(t *testing.T) {
	dir := t.TempDir()
	var want string
	for run := 0; run < 3; run++ {
		db, l, _, _ := openJournaled(t, dir, SyncBatch)
		if got := db.Dump(); got != want {
			t.Fatalf("run %d recovered:\n%s\nwant:\n%s", run, got, want)
		}
		for i := 0; i < 100; i++ {
			db.AddFact("bulk", fmt.Sprintf("r%dx%d", run, i), "y")
		}
		db.RemoveFact("bulk", fmt.Sprintf("r%dx0", run), "y")
		checkpoint(t, db, l)
		if snaps := snapshotFiles(t, dir); len(snaps) != 1 {
			t.Fatalf("run %d: snapshots after checkpoint = %v, want one", run, snaps)
		}
		db.AddFact("small", fmt.Sprintf("tail%d", run))
		want = db.Dump()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	defer l.Close()
	if got := db.Dump(); got != want {
		t.Fatalf("final recovery:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecoveryCorruptNewestSnapshotFallsBack: a crash between a
// checkpoint's snapshot write and its prune leaves the older snapshot
// and every segment it needs on disk. When the newer snapshot then does
// not read, recovery starts from the older one and loses nothing.
func TestRecoveryCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	for i := 0; i < 50; i++ {
		db.AddFact("bulk", fmt.Sprintf("x%d", i), "y")
	}
	checkpoint(t, db, l)
	db.AddFact("small", "a", "b")
	newer := l.ActiveSeq()
	want := db.Dump()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The newer snapshot as the crashed checkpoint left it: written, its
	// covered segments not yet pruned — and then damaged.
	if err := writeSnapshot(dir, newer, CollectDatabase(db, nil, nil)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(newer))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, l2, _, _ := openJournaled(t, dir, SyncBatch)
	defer l2.Close()
	if got := db2.Dump(); got != want {
		t.Fatalf("fallback recovery:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecoveryRefusesGapAfterCorruptSnapshot: a checkpoint pruned the
// segments its snapshot covers, so when that snapshot does not read,
// replaying the segments left would come back without its facts.
// Recovery fails instead, with the reason the snapshot was skipped.
func TestRecoveryRefusesGapAfterCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	for i := 0; i < 50; i++ {
		db.AddFact("bulk", fmt.Sprintf("x%d", i), "y")
	}
	checkpoint(t, db, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for s := range snapshotFiles(t, dir) {
		seq = s
	}
	path := filepath.Join(dir, snapshotName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, Replay{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Recover: err = %v, want ErrCorruptSnapshot", err)
	}
	rec := storage.NewDatabase()
	replay, _, _ := dbReplay(rec)
	if lg, err := Open(dir, SyncBatch, replay); !errors.Is(err, ErrCorruptSnapshot) {
		if lg != nil {
			lg.Close()
		}
		t.Fatalf("Open: err = %v with %d of 50 tuples, want ErrCorruptSnapshot", err, rec.TupleCount())
	}
}

// TestRecoveryRefusesMissingSegment: the segments recovery replays must
// follow one another. With one gone from the middle, replaying the rest
// would silently drop its records: segment 3 names only constants that
// segment 1 interned, so nothing but the sequence gap shows the loss.
func TestRecoveryRefusesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	for _, facts := range [][][]string{{{"p", "a"}, {"q", "b"}}, {{"p", "b"}}, {{"q", "a"}}} {
		db, l, _, _ := openJournaled(t, dir, SyncBatch) // appends to a fresh segment
		for _, f := range facts {
			db.AddFact(f[0], f[1])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, Replay{}); err == nil || !strings.Contains(err.Error(), "segment 2 is missing") {
		t.Fatalf("Recover: err = %v, want segment 2 missing", err)
	}
	if lg, err := Open(dir, SyncBatch, Replay{}); err == nil {
		lg.Close()
		t.Fatal("Open replayed around a missing segment")
	}
}

// BenchmarkCheckpointRecover measures the checkpoint-then-recover cycle
// the CI bench artifact tracks: snapshotting a populated database and
// replaying it into a fresh one.
func BenchmarkCheckpointRecover(b *testing.B) {
	dir := b.TempDir()
	db, l, _, _ := openJournaled(b, dir, SyncBatch)
	for i := 0; i < 5000; i++ {
		db.AddFact("edge", fmt.Sprintf("n%d", i%700), fmt.Sprintf("n%d", (i*13+1)%700))
	}
	if err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, nil, nil), nil
	}); err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := storage.NewDatabase()
		replay, _, _ := dbReplay(rec)
		l, err := Open(dir, SyncBatch, replay)
		if err != nil {
			b.Fatal(err)
		}
		if rec.TupleCount() != db.TupleCount() {
			b.Fatalf("recovered %d tuples, want %d", rec.TupleCount(), db.TupleCount())
		}
		l.Close()
	}
}

// BenchmarkCheckpointRecoverManySymbols replays a snapshot with as many
// names as tuple values (200 000), with no log tail and with one logged
// name after the snapshot. A fresh replay translation adopts the decoded
// name list and indexes it only when a logged name arrives, so the first
// case builds one name set (the decoder's duplicate check) and the
// second two.
func BenchmarkCheckpointRecoverManySymbols(b *testing.B) {
	for _, tail := range []bool{false, true} {
		b.Run(fmt.Sprintf("tail=%v", tail), func(b *testing.B) {
			dir := b.TempDir()
			db, l, _, _ := openJournaled(b, dir, SyncBatch)
			for i := 0; i < 100000; i++ {
				db.AddFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i))
			}
			if err := l.Checkpoint(func() (*Snapshot, error) {
				return CollectDatabase(db, nil, nil), nil
			}); err != nil {
				b.Fatal(err)
			}
			if tail {
				db.AddFact("edge", "tail", "tail")
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if _, err := Recover(dir, Replay{Fact: func(string, []string) { n++ }}); err != nil {
					b.Fatal(err)
				}
				if n != db.TupleCount() {
					b.Fatalf("recovered %d tuples, want %d", n, db.TupleCount())
				}
			}
		})
	}
}
