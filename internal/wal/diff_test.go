package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// snapshotFiles returns the snapshot sequences present in dir, sorted
// ascending, plus their total byte size by sequence.
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

// TestDifferentialCheckpointSkipsUnchanged is the acceptance criterion:
// after a small delta, the next checkpoint writes a snapshot that skips
// the unchanged bulk relation (reference block) and is measurably
// smaller than the full snapshot was.
func TestDifferentialCheckpointSkipsUnchanged(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	// One bulky relation and one small one.
	for i := 0; i < 5000; i++ {
		db.AddFact("bulk", fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
	}
	db.AddFact("small", "a", "b")
	ckpt := func() {
		t.Helper()
		if err := l.Checkpoint(func() (*Snapshot, error) {
			return CollectDatabase(db, nil, nil), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ckpt()
	sizes := snapshotFiles(t, dir)
	if len(sizes) != 1 {
		t.Fatalf("snapshots after first checkpoint = %v, want 1", sizes)
	}
	var baseSeq uint64
	var fullSize int64
	for seq, sz := range sizes {
		baseSeq, fullSize = seq, sz
	}

	// Small delta, second checkpoint: bulk is unchanged and must become
	// a reference; the new snapshot should be a fraction of the full one.
	db.AddFact("small", "c", "d")
	ckpt()
	sizes = snapshotFiles(t, dir)
	if len(sizes) != 2 {
		t.Fatalf("snapshots after differential checkpoint = %v, want base+diff", sizes)
	}
	if _, ok := sizes[baseSeq]; !ok {
		t.Fatalf("base snapshot %d was pruned while referenced", baseSeq)
	}
	var diffSize int64
	for seq, sz := range sizes {
		if seq != baseSeq {
			diffSize = sz
		}
	}
	if diffSize*10 > fullSize {
		t.Fatalf("differential snapshot is %d bytes, full was %d — want at least 10x smaller", diffSize, fullSize)
	}

	// The snapshot on disk really does carry a reference block.
	var headSeq uint64
	for seq := range sizes {
		if seq != baseSeq {
			headSeq = seq
		}
	}
	_, head, err := readSnapshot(filepath.Join(dir, snapshotName(headSeq)))
	if err != nil {
		t.Fatal(err)
	}
	blk := findRelBlock(head, "bulk")
	if blk == nil || !blk.Ref || blk.BaseSeq != baseSeq || blk.Count != 5000 {
		t.Fatalf("bulk block = %+v, want ref to %d with count 5000", blk, baseSeq)
	}
	if small := findRelBlock(head, "small"); small == nil || small.Ref {
		t.Fatalf("small block = %+v, want full", small)
	}

	// Recovery stitches base + differential + tail into identical state.
	db.AddFact("bulk", "tailx", "taily")
	want := db.Dump()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db2, l2, _, _ := openJournaled(t, dir, SyncBatch)
	defer l2.Close()
	if got := db2.Dump(); got != want {
		t.Fatalf("recovered dump differs from original:\ngot %d bytes, want %d bytes", len(got), len(want))
	}
}

// TestDifferentialChainPointsAtOldestFullBlock: references are one hop —
// a third checkpoint with the bulk relation still unchanged references
// the ORIGINAL full block, and the middle snapshot (no longer holding
// any referenced block) is pruned.
func TestDifferentialChainPointsAtOldestFullBlock(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	for i := 0; i < 200; i++ {
		db.AddFact("bulk", fmt.Sprintf("x%d", i), "y")
	}
	db.AddFact("small", "a", "b")
	ckpt := func() {
		t.Helper()
		if err := l.Checkpoint(func() (*Snapshot, error) {
			return CollectDatabase(db, nil, nil), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ckpt() // snap 1: all full
	base := snapshotFiles(t, dir)
	if len(base) != 1 {
		t.Fatalf("want one snapshot, have %v", base)
	}
	var baseSeq uint64
	for seq := range base {
		baseSeq = seq
	}
	db.AddFact("small", "c", "d")
	ckpt() // snap 2: bulk ref->1, sym tail over 1
	db.AddFact("small", "e", "f")
	ckpt() // snap 3: bulk ref->1, sym tail over 2
	sizes := snapshotFiles(t, dir)
	// Snap 2 stays on disk: it carries the symbol tail snap 3's chain
	// stitches through. The file count is bounded by the sym-chain depth
	// plus one retained full block per relation, never by history.
	if len(sizes) != 3 {
		t.Fatalf("snapshots after third checkpoint = %v, want base + sym link + head", sizes)
	}
	if _, ok := sizes[baseSeq]; !ok {
		t.Fatal("original full snapshot pruned while still referenced")
	}
	var headSeq uint64
	for seq := range sizes {
		if seq > headSeq {
			headSeq = seq
		}
	}
	_, head, err := readSnapshot(filepath.Join(dir, snapshotName(headSeq)))
	if err != nil {
		t.Fatal(err)
	}
	if blk := findRelBlock(head, "bulk"); blk == nil || !blk.Ref || blk.BaseSeq != baseSeq {
		t.Fatalf("bulk block = %+v, want one-hop ref to %d", blk, baseSeq)
	}
	if head.SymBase == 0 {
		t.Fatal("head snapshot carries full symbols, want a tail")
	}

	// Depth bound: after maxSymChainDepth tails in a row the next
	// checkpoint rewrites the symbols in full, releasing the stale tail
	// links for pruning. However many checkpoints run, the file count
	// stays bounded by the retained full blocks plus the sym-chain depth
	// — never by history.
	for i := 0; i < 3*maxSymChainDepth; i++ {
		db.AddFact("small", fmt.Sprintf("g%d", i), "h")
		ckpt()
	}
	sizes = snapshotFiles(t, dir)
	if len(sizes) > 2+maxSymChainDepth {
		t.Fatalf("snapshots after many checkpoints = %v, want at most %d files", sizes, 2+maxSymChainDepth)
	}
	if _, ok := sizes[baseSeq]; !ok {
		t.Fatal("bulk base pruned while still referenced")
	}
	// At least one sym-chain reset happened: a retained snapshot other
	// than the original base is self-contained.
	foundReset := false
	for seq := range sizes {
		if seq == baseSeq {
			continue
		}
		if _, s, err := readSnapshot(filepath.Join(dir, snapshotName(seq))); err == nil && s.SymBase == 0 {
			foundReset = true
		}
	}
	if !foundReset {
		t.Fatal("no self-contained snapshot after exceeding the sym-chain depth bound")
	}

	want := db.Dump()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db2, l2, _, _ := openJournaled(t, dir, SyncBatch)
	defer l2.Close()
	if db2.Dump() != want {
		t.Fatal("recovered dump differs after chained differential checkpoints")
	}
}

// TestDifferentialRecoveryAcrossRestart: the manifest survives a
// restart via the snapshot files themselves — a checkpoint in the NEW
// process still skips the unchanged bulk relation (count-based
// decision, no in-memory state needed).
func TestDifferentialRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	for i := 0; i < 300; i++ {
		db.AddFact("bulk", fmt.Sprintf("x%d", i), "y")
	}
	if err := l.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
	var baseSeq uint64
	for seq := range snapshotFiles(t, dir) {
		baseSeq = seq
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db2, l2, _, _ := openJournaled(t, dir, SyncBatch)
	db2.AddFact("small", "a", "b")
	if err := l2.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db2, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
	sizes := snapshotFiles(t, dir)
	if _, ok := sizes[baseSeq]; !ok || len(sizes) != 2 {
		t.Fatalf("post-restart checkpoint did not chain to the base: %v", sizes)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	want := db2.Dump()
	db3, l3, _, _ := openJournaled(t, dir, SyncBatch)
	defer l3.Close()
	if db3.Dump() != want {
		t.Fatal("recovered dump differs after cross-restart differential checkpoint")
	}
}

// TestDifferentialBrokenChainFallsBack: recovery survives a torn HEAD
// snapshot by falling back to the still-on-disk base — the crash window
// between writeSnapshot and prune.
func TestDifferentialBrokenChainFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	for i := 0; i < 50; i++ {
		db.AddFact("bulk", fmt.Sprintf("x%d", i), "y")
	}
	if err := l.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
	baseDump := db.Dump()
	var baseSeq uint64
	for seq := range snapshotFiles(t, dir) {
		baseSeq = seq
	}
	db.AddFact("small", "a", "b")
	if err := l.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the head snapshot (flip a body byte: CRC fails).
	var headSeq uint64
	for seq := range snapshotFiles(t, dir) {
		if seq != baseSeq {
			headSeq = seq
		}
	}
	path := filepath.Join(dir, snapshotName(headSeq))
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
	// The base state must be intact (the small post-base delta lived in
	// segments the head's prune removed — the single-copy trade-off).
	if got := db2.Dump(); got != baseDump {
		t.Fatalf("fallback recovery lost base state:\n%s", got)
	}
}

// TestRetiredSnapshotFormatIsHardError: a well-formed head snapshot
// carrying a retired magic is not "unreadable, fall back to the base" —
// the segments between base and head were pruned, so falling back would
// silently drop data. Decoding, Recover and Open all fail with
// ErrSnapshotVersion, without panicking.
func TestRetiredSnapshotFormatIsHardError(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	db.AddFact("bulk", "x", "y")
	if err := l.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
	db.AddFact("small", "a", "b")
	if err := l.Checkpoint(func() (*Snapshot, error) { return CollectDatabase(db, nil, nil), nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var headSeq uint64
	for seq := range snapshotFiles(t, dir) {
		headSeq = max(headSeq, seq)
	}
	path := filepath.Join(dir, snapshotName(headSeq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "OSRSNAP2") // the CRC covers the body only: the file stays well-formed
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotBytes(data); !errors.Is(err, ErrSnapshotVersion) {
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
}
