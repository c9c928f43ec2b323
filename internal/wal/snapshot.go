package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// snapMagic opens every snapshot file: format 3, whose relation blocks
// carry per-relation epoch/count metadata and each relation's cumulative
// retraction counter. Snapshot bodies hold only live rows — tombstoned
// rows are omitted at collection, so recovery from a snapshot starts
// compact. The magic is followed by the covered segment sequence (uint64
// LE), the body, and a trailing CRC32C of the body.
//
// Every snapshot is self-contained: its body opens with a symbol base of
// 0 and every relation block is of kind 0 (tuples inline). The other
// values of those two fields encoded the retired differential form — a
// symbol-table tail over an earlier snapshot and a block referring to an
// earlier snapshot's tuples — and decode as ErrSnapshotVersion.
const snapMagic = "OSRSNAP3"

// ErrSnapshotVersion reports a snapshot file written in a retired format:
// OSRSNAP1, OSRSNAP2, or an OSRSNAP3 snapshot in the differential form
// (a non-zero symbol base or a reference block). Recovery fails with it
// instead of treating the file as unreadable and falling back to a
// predecessor: the segments such a snapshot covers were pruned, so
// skipping it would silently drop data.
var ErrSnapshotVersion = errors.New("wal: snapshot written in a retired format")

// ErrCorruptSnapshot reports snapshot bytes that are not a well-formed
// snapshot: a wrong magic, a checksum mismatch, or a body that does not
// decode — among them a tuple value outside the symbol table and a name
// listed twice in it.
var ErrCorruptSnapshot = errors.New("wal: corrupt snapshot")

// RelSnap is one relation's block in a snapshot: the predicate, its
// arity, the epoch stamp of its newest insert, its tuple count and
// cumulative retraction counter at collection time, and the tuple set in
// sorted order (deterministic bytes for equal states).
//
// The tuples are held as columns: Cols[c][j] is column c of row j, with
// rows in sorted tuple order. The columnar relation layout hands these
// arrays over in Arity+1 allocations (storage.SortedColumns) and the
// encoder serializes them without ever materializing per-tuple slices;
// the on-disk bytes remain row-major and identical to the historical
// format. Arity-0 relations have nil Cols and carry their 0-or-1 tuple
// count in Count. Epoch and Retracts are written for the format's sake;
// recovery does not read them.
type RelSnap struct {
	Pred     string
	Arity    int
	Epoch    uint64
	Count    int
	Retracts int64
	Cols     [][]storage.Value
}

// Snapshot is the full persisted engine state at a checkpoint: the
// symbol table in Value order (fact blocks reference Values, and replay
// re-interns the names in this exact order), every relation, the
// program's rules in concrete syntax, and the plan cache's query shapes
// (representative atoms, LRU-oldest first) for rewarming.
type Snapshot struct {
	Syms   []string
	Rels   []RelSnap
	Rules  []string
	Shapes []string
}

// CollectDatabase builds a snapshot of db plus the caller's rule and
// shape sections. Relations are collected before the symbol table:
// every Value in a tuple was interned before the tuple was inserted, so
// reading the symbols last guarantees each collected Value resolves —
// even while concurrent writers keep inserting during the collection
// (their overlap is also journaled in the post-rotation segment, and
// replay is idempotent).
func CollectDatabase(db *storage.Database, rules, shapes []string) *Snapshot {
	s := &Snapshot{Rules: rules, Shapes: shapes}
	for _, pred := range db.Preds() {
		r := db.Relation(pred)
		cols, count := r.SortedColumns()
		s.Rels = append(s.Rels, RelSnap{
			Pred:     pred,
			Arity:    r.Arity(),
			Epoch:    r.LastModified(),
			Count:    count,
			Retracts: r.Retracts(),
			Cols:     cols,
		})
	}
	s.Syms = db.Syms.Names()
	return s
}

// encode renders the snapshot body (everything between the header and
// the trailing CRC) in the v3 format.
func (s *Snapshot) encode() []byte {
	b := []byte{0} // symbol base: self-contained
	b = binary.AppendUvarint(b, uint64(len(s.Syms)))
	for _, name := range s.Syms {
		b = appendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Rels)))
	for _, r := range s.Rels {
		b = appendString(b, r.Pred)
		b = binary.AppendUvarint(b, uint64(r.Arity))
		b = binary.AppendUvarint(b, r.Epoch)
		b = binary.AppendUvarint(b, uint64(r.Retracts))
		b = append(b, 0) // block kind: tuples inline
		b = binary.AppendUvarint(b, uint64(r.Count))
		// Row-major on disk (the historical byte layout), read straight
		// out of the column arrays.
		for j := 0; j < r.Count; j++ {
			for _, col := range r.Cols {
				b = binary.AppendUvarint(b, uint64(uint32(col[j])))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Rules)))
	for _, r := range s.Rules {
		b = appendString(b, r)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Shapes)))
	for _, q := range s.Shapes {
		b = appendString(b, q)
	}
	return b
}

// readUvarint consumes a uvarint.
func readUvarint(b []byte) (uint64, []byte, error) {
	n, sz := uvarint(b)
	if sz <= 0 {
		return 0, nil, errors.New("malformed varint")
	}
	return n, b[sz:], nil
}

// readCount consumes the length of a list whose entries take at least a
// byte each, refusing one the rest of the body cannot hold — so a
// damaged length fails here rather than in an allocation.
func readCount(b []byte) (uint64, []byte, error) {
	n, b, err := readUvarint(b)
	if err == nil && n > uint64(len(b)) {
		err = fmt.Errorf("%d entries in %d bytes", n, len(b))
	}
	return n, b, err
}

// decodeSnapshot parses a snapshot body. A body in the retired
// differential form is ErrSnapshotVersion; any other error means the
// body is malformed.
func decodeSnapshot(b []byte) (*Snapshot, error) {
	s := &Snapshot{}
	var n uint64
	var err error
	if n, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if n != 0 {
		return nil, fmt.Errorf("%w: symbol table is a tail over snapshot %d", ErrSnapshotVersion, n)
	}
	if n, b, err = readCount(b); err != nil {
		return nil, err
	}
	s.Syms = make([]string, n)
	seen := make(map[string]bool, n)
	for i := range s.Syms {
		if s.Syms[i], b, err = readString(b); err != nil {
			return nil, err
		}
		// A repeated name would shift every later Value's translation.
		if seen[s.Syms[i]] {
			return nil, fmt.Errorf("symbol %q listed twice", s.Syms[i])
		}
		seen[s.Syms[i]] = true
	}
	if n, b, err = readCount(b); err != nil {
		return nil, err
	}
	s.Rels = make([]RelSnap, n)
	for i := range s.Rels {
		r := &s.Rels[i]
		if r.Pred, b, err = readString(b); err != nil {
			return nil, err
		}
		var arity, ret uint64
		if arity, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		// A fact of arity n takes at least n bytes of one record, so no
		// log holds a relation wider than a record.
		if arity > maxRecordSize {
			return nil, fmt.Errorf("%s: arity %d wider than a record", r.Pred, arity)
		}
		r.Arity = int(arity)
		if r.Epoch, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if ret, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		r.Retracts = int64(ret)
		if len(b) == 0 {
			return nil, errors.New("truncated relation block kind")
		}
		switch kind := b[0]; kind {
		case 0:
		case 1:
			return nil, fmt.Errorf("%w: %s is a reference block", ErrSnapshotVersion, r.Pred)
		default:
			return nil, fmt.Errorf("unknown relation block kind %d", kind)
		}
		b = b[1:]
		var count uint64
		if count, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		// Every value takes at least a byte; an arity-0 relation holds the
		// empty tuple or nothing.
		if arity == 0 && count > 1 || arity > 0 && count > uint64(len(b))/arity {
			return nil, fmt.Errorf("%s: %d tuples of arity %d in %d bytes", r.Pred, count, arity, len(b))
		}
		r.Count = int(count)
		if arity > 0 && count > 0 {
			r.Cols = make([][]storage.Value, arity)
			for c := range r.Cols {
				r.Cols[c] = make([]storage.Value, count)
			}
		}
		for j := uint64(0); j < count; j++ {
			for k := uint64(0); k < arity; k++ {
				var v uint64
				if v, b, err = readUvarint(b); err != nil {
					return nil, err
				}
				if v >= uint64(len(s.Syms)) {
					return nil, fmt.Errorf("%s: value %d outside a symbol table of %d", r.Pred, v, len(s.Syms))
				}
				r.Cols[k][j] = storage.Value(uint32(v))
			}
		}
	}
	if n, b, err = readCount(b); err != nil {
		return nil, err
	}
	s.Rules = make([]string, n)
	for i := range s.Rules {
		if s.Rules[i], b, err = readString(b); err != nil {
			return nil, err
		}
	}
	if n, b, err = readCount(b); err != nil {
		return nil, err
	}
	s.Shapes = make([]string, n)
	for i := range s.Shapes {
		if s.Shapes[i], b, err = readString(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return s, nil
}

// writeSnapshot atomically writes the snapshot covering segments <= seq:
// temp file, fsync, rename, directory fsync. A crash at any point leaves
// either the old snapshot or the new one intact, never a half-written
// file under the final name.
func writeSnapshot(dir string, seq uint64, s *Snapshot) error {
	body := s.encode()
	buf := make([]byte, 0, len(snapMagic)+12+len(body))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapshotName(seq))); err != nil {
		return err
	}
	return syncDir(dir)
}

// DecodeSnapshotBytes parses and CRC-validates a complete snapshot file
// image and returns the covered sequence and the decoded snapshot; a
// file in a retired format is ErrSnapshotVersion, any other that does
// not decode ErrCorruptSnapshot. An accepted snapshot re-encodes to the
// very body it was read from. A replication follower uses this on
// snapshot bytes fetched over HTTP before writing them to its local
// mirror.
func DecodeSnapshotBytes(data []byte) (uint64, *Snapshot, error) {
	if len(data) < len(snapMagic)+12 {
		return 0, nil, fmt.Errorf("%w: not a snapshot file", ErrCorruptSnapshot)
	}
	switch string(data[:len(snapMagic)]) {
	case snapMagic:
	case "OSRSNAP1", "OSRSNAP2":
		return 0, nil, ErrSnapshotVersion
	default:
		return 0, nil, fmt.Errorf("%w: not a snapshot file", ErrCorruptSnapshot)
	}
	seq := binary.LittleEndian.Uint64(data[len(snapMagic):])
	body := data[len(snapMagic)+8 : len(data)-4]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSnapshot)
	}
	s, err := decodeSnapshot(body)
	if errors.Is(err, ErrSnapshotVersion) {
		return 0, nil, err
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	return seq, s, nil
}

// readSnapshot loads and validates the snapshot file covering seq. Any
// failure but a retired format is ErrCorruptSnapshot.
func readSnapshot(dir string, seq uint64) (*Snapshot, error) {
	path := filepath.Join(dir, snapshotName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	fileSeq, s, err := DecodeSnapshotBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if fileSeq != seq {
		return nil, fmt.Errorf("%w: %s claims sequence %d", ErrCorruptSnapshot, path, fileSeq)
	}
	return s, nil
}

// syncDir fsyncs a directory so renames and unlinks are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
