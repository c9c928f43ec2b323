package wal

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-* from this checkout's output")

// goldenWorkload drives a fixed, seeded history through a journaled
// database: single facts and batches over three predicates, names the
// parser would have to quote, multi-byte and empty ones, duplicates,
// retractions and a rule. Everything the log and a snapshot encode of a
// symbol table — which names, in which Value order — is decided here.
func goldenWorkload(db *storage.Database, l *Log) {
	rng := rand.New(rand.NewSource(22))
	name := func() string {
		switch n := rng.Intn(400); {
		case n == 0:
			return ""
		case n == 1:
			return "New York"
		case n == 2:
			return "Zürich–Ōsaka 大阪"
		case n < 40:
			return fmt.Sprintf("n%d", rng.Intn(50)) // mostly seen before
		default:
			return fmt.Sprintf("c%x", rng.Int63())
		}
	}
	for i := 0; i < 250; i++ {
		switch rng.Intn(6) {
		case 0:
			rel := db.Ensure("tri", 3)
			batch := make([]storage.Tuple, 1+rng.Intn(8))
			for k := range batch {
				batch[k] = make(storage.Tuple, 3)
				db.Syms.InternBatch([]string{name(), name(), name()}, batch[k])
			}
			rel.InsertBatch(batch)
		case 1:
			db.RemoveFact("edge", fmt.Sprintf("n%d", rng.Intn(50)), fmt.Sprintf("n%d", rng.Intn(50)))
		case 2:
			db.AddFact("edge", fmt.Sprintf("n%d", rng.Intn(50)), fmt.Sprintf("n%d", rng.Intn(50)))
		default:
			db.AddFact("edge", name(), name())
		}
	}
	l.AppendRules("t(X, Y) :- edge(X, Z), t(Z, Y).", "t(X, Y) :- edge(X, Y).")
}

// TestGoldenBytes pins the log and snapshot formats to committed bytes
// (testdata/golden-*, written with -update-golden): the segment as the
// commit before the symbol table owned its text wrote it, the snapshot as
// the commit that gave each relation one store did — it differs from the
// earlier one in a single RelSnap.Epoch, which since then is the stamp of
// the relation's last run and no longer depends on GOMAXPROCS. A segment
// and a snapshot of the same history must come out byte for byte the same
// — Values are assigned in the same order, and the intern hook sees the
// same names in that order — and recovering the committed files must give
// the same symbol table and the same facts, so that either side reads
// what the other wrote.
func TestGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	goldenWorkload(db, l)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	read := func(golden, name string) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[golden] = b
	}
	read("golden-seg.wal", segmentName(1))
	err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, []string{"t(X, Y) :- edge(X, Y)."}, []string{"t(n1, V0)"}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read("golden-snap.snap", snapshotName(1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for golden, got := range files {
		path := filepath.Join("testdata", golden)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes that differ from the %d committed", golden, len(got), len(want))
		}
	}

	// Each committed file alone restores the database that wrote it.
	for golden, name := range map[string]string{"golden-seg.wal": segmentName(1), "golden-snap.snap": snapshotName(1)} {
		b, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		from := t.TempDir()
		if err := os.WriteFile(filepath.Join(from, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		back, l2, _, _ := openJournaled(t, from, SyncBatch)
		if got, want := back.Syms.Names(), db.Syms.Names(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered %d names, wrote %d, or not the same ones", golden, len(got), len(want))
		}
		if back.Dump() != db.Dump() {
			t.Errorf("%s: recovered dump differs from the writer's", golden)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
