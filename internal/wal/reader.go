package wal

// Replication read-side API: everything a log-shipping source needs to
// serve its directory as a stream — segment listing, ranged reads with
// seal detection, raw snapshot access — and everything a follower needs
// to consume one: record framing that distinguishes "incomplete" from
// "damaged", and an Applier that streams verified records into the same
// callbacks recovery uses.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// SegmentHeaderSize is the byte length of a segment header (magic plus
// the uint64 LE sequence number). Record frames start at this offset.
const SegmentHeaderSize = segHeaderSize

var (
	// ErrShortRecord reports that the buffer ends mid-frame: the record
	// is incomplete, not damaged. A streaming reader waits for more
	// bytes.
	ErrShortRecord = errors.New("wal: short record")
	// ErrCorruptRecord reports a complete frame whose checksum (or
	// header) does not validate — the bytes are damaged and must be
	// refetched, never applied.
	ErrCorruptRecord = errors.New("wal: corrupt record")
)

// SplitRecord splits the first framed record off data, returning the
// verified payload and the total frame length consumed. Recovery's
// nextRecord conflates a torn tail with corruption because truncation
// handles both; a replication follower must tell them apart — a short
// record means poll again, a corrupt one means the transfer (or the
// source) is damaged.
func SplitRecord(data []byte) (payload []byte, n int, err error) {
	if len(data) < recordHeaderSize {
		return nil, 0, ErrShortRecord
	}
	ln := int(binary.LittleEndian.Uint32(data[0:]))
	crc := binary.LittleEndian.Uint32(data[4:])
	if ln > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorruptRecord, ln)
	}
	if ln > len(data)-recordHeaderSize {
		return nil, 0, ErrShortRecord
	}
	payload = data[recordHeaderSize : recordHeaderSize+ln]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	return payload, recordHeaderSize + ln, nil
}

// CheckSegmentHeader validates the first SegmentHeaderSize bytes of a
// segment against the expected sequence number. ErrShortRecord means
// not enough bytes arrived yet; ErrCorruptRecord wraps magic and
// sequence mismatches.
func CheckSegmentHeader(data []byte, wantSeq uint64) error {
	if len(data) < SegmentHeaderSize {
		return ErrShortRecord
	}
	if string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("%w: bad segment magic", ErrCorruptRecord)
	}
	if got := binary.LittleEndian.Uint64(data[len(segMagic):]); got != wantSeq {
		return fmt.Errorf("%w: segment header sequence %d, want %d", ErrCorruptRecord, got, wantSeq)
	}
	return nil
}

// SegmentFileName renders the on-disk file name for a segment sequence,
// so a follower's mirror uses the names recovery expects.
func SegmentFileName(seq uint64) string { return segmentName(seq) }

// SnapshotFileName renders the on-disk file name for a snapshot
// sequence.
func SnapshotFileName(seq uint64) string { return snapshotName(seq) }

// SegmentInfo describes one on-disk segment of a live log.
type SegmentInfo struct {
	Seq    uint64 `json:"seq"`
	Size   int64  `json:"size"`
	Sealed bool   `json:"sealed"`
}

// ActiveSeq returns the sequence of the segment currently accepting
// appends.
func (l *Log) ActiveSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments lists the log's on-disk segments in ascending sequence
// order, with buffered bytes of the active segment flushed so sizes are
// current. A segment below the active sequence is sealed: its bytes are
// final and a reader at its end must advance to the successor.
func (l *Log) Segments() ([]SegmentInfo, error) {
	if err := l.flushActive(); err != nil && !errors.Is(err, ErrClosed) {
		return nil, err
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	for _, e := range entries {
		seq, ok := parseSeq(e.Name(), "seg-", ".wal")
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		infos = append(infos, SegmentInfo{Seq: seq, Size: fi.Size()})
	}
	// Read the active sequence after listing: a checkpoint rotation
	// racing this call then sealed every listed segment below the new
	// active, so the flags stay conservative-correct.
	active := l.ActiveSeq()
	for i := range infos {
		infos[i].Sealed = infos[i].Seq < active
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	return infos, nil
}

// SnapshotHead returns the newest snapshot's sequence, 0 when the log
// has never checkpointed. A follower bootstraps from that one file.
func (l *Log) SnapshotHead() uint64 {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	return l.headSeq
}

// ReadSnapshotRaw returns the raw bytes of the snapshot file at seq —
// header, body, and trailing CRC — for shipping to a follower, which
// validates them with DecodeSnapshotBytes.
func (l *Log) ReadSnapshotRaw(seq uint64) ([]byte, error) {
	return os.ReadFile(filepath.Join(l.dir, snapshotName(seq)))
}

// ReadSegmentAt reads up to max bytes of segment seq starting at byte
// offset (offsets include the segment header). It returns the bytes
// read (nil when offset is at or past the end), the segment's current
// size, and whether the segment is sealed. The active segment's buffer
// is flushed first so appended records are visible; sealed is computed
// AFTER the read, so a true value guarantees the returned size is the
// segment's final size.
func (l *Log) ReadSegmentAt(seq uint64, offset int64, max int) (data []byte, size int64, sealed bool, err error) {
	if seq >= l.ActiveSeq() {
		if err := l.flushActive(); err != nil && !errors.Is(err, ErrClosed) {
			return nil, 0, false, err
		}
	}
	f, err := os.Open(filepath.Join(l.dir, segmentName(seq)))
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false, err
	}
	size = fi.Size()
	if offset < 0 {
		return nil, 0, false, fmt.Errorf("wal: negative segment offset %d", offset)
	}
	if offset < size && max > 0 {
		n := size - offset
		if n > int64(max) {
			n = int64(max)
		}
		data = make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(f, offset, n), data); err != nil {
			return nil, 0, false, err
		}
	}
	sealed = seq < l.ActiveSeq()
	return data, size, sealed, nil
}

// Applier streams replication input — decoded snapshots and
// CRC-verified record payloads — into Replay callbacks, maintaining the
// same Value-to-name translation recovery builds. One Applier serves a
// follower for its whole life: bootstrap snapshots first, then live
// records in log order.
type Applier struct {
	st replayState
}

// NewApplier returns an Applier feeding the given callbacks.
func NewApplier(replay Replay) *Applier {
	return &Applier{st: replayState{replay: replay}}
}

// ApplySym records one interned name in translation order. It is
// idempotent per name, and it also invokes the Sym callback on first
// occurrence. A follower restarting from its local mirror seeds the
// Applier by routing Recover's Sym callback here.
func (a *Applier) ApplySym(name string) { a.st.sym(name) }

// ApplySnapshot streams a snapshot decoded by DecodeSnapshotBytes into
// the callbacks.
func (a *Applier) ApplySnapshot(s *Snapshot) { a.st.applySnapshot(s) }

// ApplyRecord applies one verified record payload (as returned by
// SplitRecord) through the callbacks.
func (a *Applier) ApplyRecord(payload []byte) error {
	return a.st.applyPayload(payload)
}
