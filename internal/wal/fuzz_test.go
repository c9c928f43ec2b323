package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzSplitRecord splits a buffer into framed records the way a follower
// consumes a fetched segment range. SplitRecord must never panic: each
// call returns ErrShortRecord or ErrCorruptRecord, or a frame inside the
// buffer whose payload re-frames to exactly the bytes it consumed. The
// committed seeds (testdata/fuzz/FuzzSplitRecord) are the frames of
// testdata/golden-seg.wal — all of them in one stream, one of each record
// kind alone, a torn stream and a bit-flipped one.
func FuzzSplitRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) > 0 {
			payload, n, err := SplitRecord(data)
			if err != nil {
				if !errors.Is(err, ErrShortRecord) && !errors.Is(err, ErrCorruptRecord) {
					t.Fatalf("untyped error %v", err)
				}
				return
			}
			if n < recordHeaderSize || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			rec := append(make([]byte, recordHeaderSize), payload...)
			if !bytes.Equal(frame(rec, 0), data[:n]) {
				t.Fatalf("payload %q re-frames to other bytes than the %d consumed", payload, n)
			}
			data = data[n:]
		}
	})
}

// FuzzDecodeSnapshotBytes decodes a snapshot file image, as a follower
// does with snapshot bytes fetched from its primary. DecodeSnapshotBytes
// must never panic: it returns ErrCorruptSnapshot or ErrSnapshotVersion,
// or a snapshot that re-encodes to the very body it was read from and
// that an Applier applies whole — one Fact callback per tuple of every
// block. Each input is decoded twice: as it is, and with its checksum
// recomputed, so that a mutated body reaches the body decoder. The
// committed seeds (testdata/fuzz/FuzzDecodeSnapshotBytes) are
// testdata/golden-snap.snap whole, truncated, and with a wrong checksum,
// an empty relation block claiming arity 2^63, and the two retired
// differential forms (retiredBodies).
func FuzzDecodeSnapshotBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			_, s, err := DecodeSnapshotBytes(data)
			if err != nil {
				if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
					t.Fatalf("untyped error %v", err)
				}
				return
			}
			if body := data[len(snapMagic)+8 : len(data)-4]; !bytes.Equal(s.encode(), body) {
				t.Fatalf("accepted snapshot re-encodes to other bytes than its %d-byte body", len(body))
			}
			want, facts := 0, 0
			for _, r := range s.Rels {
				want += r.Count
			}
			NewApplier(Replay{Fact: func(string, []string) { facts++ }}).ApplySnapshot(s)
			if facts != want {
				t.Fatalf("applied %d facts of the %d the snapshot holds", facts, want)
			}
		}
		check(data)
		if len(data) >= len(snapMagic)+12 {
			sealed := bytes.Clone(data)
			crc := crc32.Checksum(sealed[len(snapMagic)+8:len(sealed)-4], castagnoli)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc)
			check(sealed)
		}
	})
}

// FuzzApplyRecord applies one record payload, as a follower does with a
// record it split off a fetched segment range. ApplyRecord must never
// panic, and a fact or retraction it accepts re-encodes through
// appendTupleRecord to the very payload it was given. The Applier first
// learns the names of testdata/golden-seg.wal, so that the segment's own
// facts resolve. Seeds: every record payload of that segment, and a fact
// claiming arity 2^40.
func FuzzApplyRecord(f *testing.F) {
	seg, err := os.ReadFile(filepath.Join("testdata", "golden-seg.wal"))
	if err != nil {
		f.Fatal(err)
	}
	var names []string
	for rest := seg[segHeaderSize:]; len(rest) > 0; {
		payload, n, err := SplitRecord(rest)
		if err != nil {
			f.Fatal(err)
		}
		if payload[0] == recSym {
			names = append(names, string(payload[1:]))
		}
		f.Add(payload)
		rest = rest[n:]
	}
	f.Add(hugeArityFact())
	f.Fuzz(func(t *testing.T, payload []byte) {
		a := NewApplier(Replay{})
		for _, name := range names {
			a.ApplySym(name)
		}
		if a.ApplyRecord(payload) != nil {
			return
		}
		if kind := payload[0]; kind == recFact || kind == recRetract {
			pred, vals, err := decodeFact(payload[1:])
			if err != nil {
				t.Fatalf("accepted payload does not decode: %v", err)
			}
			if rec := appendTupleRecord(nil, kind, pred, vals); !bytes.Equal(rec[recordHeaderSize:], payload) {
				t.Fatalf("accepted payload %q re-encodes to %q", payload, rec[recordHeaderSize:])
			}
		}
	})
}

// hugeArityFact is a recFact payload claiming 2^40 values and holding
// none of them.
func hugeArityFact() []byte {
	return binary.AppendUvarint(appendString([]byte{recFact}, "a"), 1<<40)
}

// A fact's arity sizes an allocation only once the body could hold that
// many values: a CRC-valid record claiming arity 2^40 is refused, both
// from a follower's stream and from a segment on disk.
func TestFactArityBeyondBodyRefused(t *testing.T) {
	payload := hugeArityFact()
	if err := NewApplier(Replay{}).ApplyRecord(payload); err == nil {
		t.Fatal("ApplyRecord accepted a fact claiming arity 2^40")
	}
	dir := t.TempDir()
	seg := binary.LittleEndian.AppendUint64([]byte(segMagic), 1)
	seg = frame(append(append(seg, make([]byte, recordHeaderSize)...), payload...), segHeaderSize)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, Replay{}); err == nil {
		t.Fatal("recovery accepted a segment holding a fact claiming arity 2^40")
	}
}

// snapshotImage frames s as the snapshot file covering seq.
func snapshotImage(seq uint64, s *Snapshot) []byte { return frameSnapshot(seq, s.encode()) }

// frameSnapshot frames a snapshot body as the file covering seq.
func frameSnapshot(seq uint64, body []byte) []byte {
	img := append(binary.LittleEndian.AppendUint64([]byte(snapMagic), seq), body...)
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(body, castagnoli))
}

// A relation block of no tuples still declares an arity: one wider than
// a record could hold is refused, and an admissible wide one is applied
// without a tuple of its width being allocated.
func TestEmptyBlockArity(t *testing.T) {
	img := snapshotImage(1, &Snapshot{Rels: []RelSnap{{Pred: "a", Arity: math.MinInt64}}})
	if _, _, err := DecodeSnapshotBytes(img); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("empty block of arity 2^63: err = %v, want ErrCorruptSnapshot", err)
	}
	img = snapshotImage(1, &Snapshot{Rels: []RelSnap{{Pred: "a", Arity: maxRecordSize}}})
	_, s, err := DecodeSnapshotBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewApplier(Replay{}).ApplySnapshot(s)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("applying an empty block of arity %d allocated %d bytes", maxRecordSize, n)
	}
}
