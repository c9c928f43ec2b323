package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// or a snapshot that re-encodes to the very body it was read from. Each
// input is decoded twice: as it is, and with its checksum recomputed, so
// that a mutated body reaches the body decoder. The committed seeds
// (testdata/fuzz/FuzzDecodeSnapshotBytes) are testdata/golden-snap.snap
// whole, truncated, and with a wrong checksum.
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
