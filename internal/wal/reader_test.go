package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func TestSplitRecordShortVsCorrupt(t *testing.T) {
	rec := textRecord(recSym, "hello")

	// Every strict prefix is short, never corrupt.
	for n := 0; n < len(rec); n++ {
		if _, _, err := SplitRecord(rec[:n]); !errors.Is(err, ErrShortRecord) {
			t.Fatalf("prefix %d: err = %v, want ErrShortRecord", n, err)
		}
	}
	// The full frame splits cleanly, with and without a successor.
	payload, n, err := SplitRecord(rec)
	if err != nil || n != len(rec) || string(payload[1:]) != "hello" {
		t.Fatalf("SplitRecord = %q, %d, %v", payload, n, err)
	}
	double := append(append([]byte{}, rec...), rec...)
	if _, n, err := SplitRecord(double); err != nil || n != len(rec) {
		t.Fatalf("SplitRecord(double) n = %d, err = %v", n, err)
	}

	// Any single flipped bit in a complete frame is corruption — except
	// in the length field, where a larger value can read as short (the
	// frame claims more bytes than present) but must never validate.
	for i := 0; i < len(rec); i++ {
		bad := append([]byte{}, rec...)
		bad[i] ^= 0x01
		_, _, err := SplitRecord(bad)
		if i < 4 {
			if err == nil {
				t.Fatalf("flipped length byte %d: no error", i)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("flipped byte %d: err = %v, want ErrCorruptRecord", i, err)
		}
	}

	// A frame length above maxRecordSize is corrupt even though the
	// bytes are not all present — waiting would never satisfy it.
	huge := append([]byte{}, rec...)
	binary.LittleEndian.PutUint32(huge[0:], maxRecordSize+1)
	if _, _, err := SplitRecord(huge); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("oversized frame: err = %v, want ErrCorruptRecord", err)
	}
}

func TestCheckSegmentHeader(t *testing.T) {
	hdr := make([]byte, 0, SegmentHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, 7)

	if err := CheckSegmentHeader(hdr, 7); err != nil {
		t.Fatal(err)
	}
	if err := CheckSegmentHeader(hdr[:SegmentHeaderSize-1], 7); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("short header: err = %v", err)
	}
	if err := CheckSegmentHeader(hdr, 8); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("wrong sequence: err = %v", err)
	}
	bad := append([]byte{}, hdr...)
	bad[0] ^= 0xFF
	if err := CheckSegmentHeader(bad, 7); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("bad magic: err = %v", err)
	}
}

func TestReadSegmentAtSeesUnsyncedAppends(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch) // nothing fsynced below 64 KiB
	defer l.Close()
	db.AddFact("edge", "a", "b")
	db.AddFact("edge", "b", "c")

	seq := l.ActiveSeq()
	data, size, sealed, err := l.ReadSegmentAt(seq, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sealed {
		t.Fatal("active segment reported sealed")
	}
	if int64(len(data)) != size || size <= int64(SegmentHeaderSize) {
		t.Fatalf("read %d bytes of size %d", len(data), size)
	}
	if err := CheckSegmentHeader(data, seq); err != nil {
		t.Fatal(err)
	}
	// Every appended record must already be visible and CRC-valid.
	rest := data[SegmentHeaderSize:]
	records := 0
	for len(rest) > 0 {
		_, n, err := SplitRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		rest = rest[n:]
		records++
	}
	// 3 syms (edge not interned — preds live outside the symbol table;
	// a, b, c are) + 2 facts. Exact count depends on the journal: assert
	// a lower bound instead of encoding it.
	if records < 2 {
		t.Fatalf("only %d records visible", records)
	}

	// Reading past the end returns no data but reports the size.
	data, size2, _, err := l.ReadSegmentAt(seq, size, 1<<20)
	if err != nil || data != nil || size2 != size {
		t.Fatalf("tail read = %d bytes, size %d, err %v", len(data), size2, err)
	}
}

func TestSegmentsAndHeadAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	defer l.Close()
	db.AddFact("p", "x")

	if head := l.SnapshotHead(); head != 0 {
		t.Fatalf("head before checkpoint = %d", head)
	}
	infos, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Sealed || infos[0].Seq != l.ActiveSeq() {
		t.Fatalf("segments before checkpoint = %+v", infos)
	}

	if err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, nil, nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	db.AddFact("p", "y")

	head := l.SnapshotHead()
	if head == 0 || head >= l.ActiveSeq() {
		t.Fatalf("head after checkpoint = %d, active segment %d", head, l.ActiveSeq())
	}
	raw, err := l.ReadSnapshotRaw(head)
	if err != nil {
		t.Fatal(err)
	}
	seq, snap, err := DecodeSnapshotBytes(raw)
	if err != nil || seq != head {
		t.Fatalf("DecodeSnapshotBytes seq = %d, err = %v", seq, err)
	}
	if len(snap.Rels) != 1 || snap.Rels[0].Pred != "p" {
		t.Fatalf("snapshot rels = %+v", snap.Rels)
	}
	// A flipped byte in the shipped image must not validate.
	bad := append([]byte{}, raw...)
	bad[len(bad)/2] ^= 0x01
	if _, _, err := DecodeSnapshotBytes(bad); err == nil {
		t.Fatal("corrupted snapshot image validated")
	}

	infos, err = l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Sealed {
		t.Fatalf("segments after checkpoint = %+v (covered segment should be pruned)", infos)
	}

	// A second checkpoint moves the head, and its snapshot is the only one.
	checkpoint(t, db, l)
	if next := l.SnapshotHead(); next <= head {
		t.Fatalf("head after second checkpoint = %d, was %d", next, head)
	}
	if snaps := snapshotFiles(t, dir); len(snaps) != 1 || snaps[l.SnapshotHead()] == 0 {
		t.Fatalf("snapshots after second checkpoint = %v, want only %d", snaps, l.SnapshotHead())
	}
}

func TestRecoverReportsCursorAndReplaysState(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	db.AddFact("edge", "a", "b")
	if err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, nil, nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	db.AddFact("edge", "b", "c")
	want := db.Dump()
	activeSeq := l.ActiveSeq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := storage.NewDatabase()
	replay, _, _ := dbReplay(db2)
	res, err := Recover(dir, replay)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Dump() != want {
		t.Fatalf("recovered dump:\n%s\nwant:\n%s", db2.Dump(), want)
	}
	if res.LastSeq != activeSeq {
		t.Fatalf("LastSeq = %d, want %d", res.LastSeq, activeSeq)
	}
	if res.SnapshotSeq == 0 || res.SnapshotSeq >= res.LastSeq {
		t.Fatalf("SnapshotSeq = %d vs LastSeq %d", res.SnapshotSeq, res.LastSeq)
	}
	// The reported size must cover the whole valid file, and — the
	// whole point of Recover over Open — no successor segment may have
	// been created.
	data, err := os.ReadFile(filepath.Join(dir, segmentName(res.LastSeq)))
	if err != nil {
		t.Fatal(err)
	}
	if res.LastSize != int64(len(data)) {
		t.Fatalf("LastSize = %d, file size %d", res.LastSize, len(data))
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(res.LastSeq+1))); err == nil {
		t.Fatal("Recover created a successor segment")
	}
}

func TestApplierMatchesRecoveryTranslation(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	defer l.Close()
	db.AddFact("edge", "a", "b")
	if err := l.Checkpoint(func() (*Snapshot, error) {
		return CollectDatabase(db, nil, nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	db.AddFact("edge", "b", "c")
	db.AddFact("node", "c")

	// Follower side: apply the advertised snapshot, then the live
	// segment's records, through an Applier into a fresh database.
	fdb := storage.NewDatabase()
	replay, _, _ := dbReplay(fdb)
	ap := NewApplier(replay)

	raw, err := l.ReadSnapshotRaw(l.SnapshotHead())
	if err != nil {
		t.Fatal(err)
	}
	_, headSnap, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	ap.ApplySnapshot(headSnap)
	seq := l.ActiveSeq()
	data, _, _, err := l.ReadSegmentAt(seq, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSegmentHeader(data, seq); err != nil {
		t.Fatal(err)
	}
	rest := data[SegmentHeaderSize:]
	for len(rest) > 0 {
		payload, n, err := SplitRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		if err := ap.ApplyRecord(payload); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}

	if fdb.Dump() != db.Dump() {
		t.Fatalf("applier dump:\n%s\nwant:\n%s", fdb.Dump(), db.Dump())
	}
	// Value identity, not just name equality: downstream cached plans
	// depend on identical Value assignment.
	for _, name := range []string{"a", "b", "c"} {
		v1, _ := db.Syms.Lookup(name)
		v2, ok := fdb.Syms.Lookup(name)
		if !ok || v1 != v2 {
			t.Fatalf("symbol %s: %d vs %d", name, v1, v2)
		}
	}
	// ApplySym is idempotent: re-seeding an applied name must not shift
	// translation.
	ap.ApplySym("a")
	if v, _ := fdb.Syms.Lookup("a"); v != mustLookup(t, db, "a") {
		t.Fatalf("re-seeded symbol shifted to %d", v)
	}
}

func mustLookup(t *testing.T, db *storage.Database, name string) storage.Value {
	t.Helper()
	v, ok := db.Syms.Lookup(name)
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	return v
}
