package wal

import (
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
