package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// snapshotFiles returns the snapshot sequences present in dir with the
// byte size of each.
func snapshotFiles(t testing.TB, dir string) map[uint64]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]int64)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[seq] = info.Size()
		}
	}
	return out
}

// checkpoint checkpoints db's relations through l.
func checkpoint(t testing.TB, db *storage.Database, l *Log) {
	t.Helper()
	if err := l.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
}

// retiredBodies are OSRSNAP3 bodies in the retired differential form,
// which no writer emits any more: a symbol table written as a tail over
// snapshot 1, and a relation block referring to snapshot 1's tuples.
// Each is otherwise well-formed and holds nothing.
var retiredBodies = map[string][]byte{
	// symbol base 1; no names, relations, rules or shapes
	"symbol-base": {1, 0, 0, 0, 0},
	// symbol base 0, no names, one relation "a": arity 1, epoch 0,
	// retracts 0, block kind 1 naming base snapshot 1 and 0 tuples; no
	// rules or shapes
	"reference-block": {0, 0, 1, 1, 'a', 1, 0, 0, 1, 1, 0, 0, 0},
}

// TestRetiredSnapshotFormatIsHardError: a well-formed snapshot in a
// retired format — an older magic, or an OSRSNAP3 body in the
// differential form — is not "unreadable, fall back to a predecessor":
// the segments it covers were pruned, so falling back would silently
// drop data. Decoding, Recover and Open all fail with
// ErrSnapshotVersion, without panicking.
func TestRetiredSnapshotFormatIsHardError(t *testing.T) {
	master := t.TempDir()
	db, l, _, _ := openJournaled(t, master, SyncBatch)
	db.AddFact("bulk", "x", "y")
	checkpoint(t, db, l)
	db.AddFact("small", "a", "b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for s := range snapshotFiles(t, master) {
		seq = s
	}
	data, err := os.ReadFile(filepath.Join(master, snapshotName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{"OSRSNAP2": bytes.Clone(data)}
	copy(images["OSRSNAP2"], "OSRSNAP2") // the CRC covers the body only: the file stays well-formed
	for name, body := range retiredBodies {
		images[name] = frameSnapshot(seq, body)
	}
	for name, img := range images {
		t.Run(name, func(t *testing.T) {
			dir := copyDir(t, master)
			if err := os.WriteFile(filepath.Join(dir, snapshotName(seq)), img, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeSnapshotBytes(img); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("DecodeSnapshotBytes: err = %v, want ErrSnapshotVersion", err)
			}
			if _, err := Recover(dir, Replay{}); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("Recover: err = %v, want ErrSnapshotVersion", err)
			}
			if lg, err := Open(dir, SyncBatch, Replay{}); !errors.Is(err, ErrSnapshotVersion) {
				if lg != nil {
					lg.Close()
				}
				t.Fatalf("Open: err = %v, want ErrSnapshotVersion", err)
			}
		})
	}
}

// A CRC-valid snapshot whose tuple holds a value past the end of its
// symbol table is corrupt: applying it would drop that fact.
func TestDecodeRefusesValueOutsideSymbols(t *testing.T) {
	img := snapshotImage(1, &Snapshot{
		Syms: []string{"a"},
		Rels: []RelSnap{{Pred: "p", Arity: 1, Count: 2, Cols: [][]storage.Value{{0, 5}}}},
	})
	if _, _, err := DecodeSnapshotBytes(img); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("value 5 of a 1-name symbol table: err = %v, want ErrCorruptSnapshot", err)
	}
}

// A CRC-valid snapshot that lists a name twice is corrupt: the repeat
// would shift every later Value onto the wrong name.
func TestDecodeRefusesRepeatedSymbol(t *testing.T) {
	img := snapshotImage(1, &Snapshot{
		Syms: []string{"a", "a", "b"},
		Rels: []RelSnap{{Pred: "p", Arity: 1, Count: 1, Cols: [][]storage.Value{{2}}}},
	})
	if _, _, err := DecodeSnapshotBytes(img); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("symbols [a a b]: err = %v, want ErrCorruptSnapshot", err)
	}
}
