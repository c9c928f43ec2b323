package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// Record kinds (the first payload byte).
const (
	recSym     = 1 // body: constant name
	recFact    = 2 // body: pred string, uvarint arity, arity uvarint values
	recRule    = 3 // body: rule source text
	recRetract = 4 // body: same layout as recFact; the tuple leaves the set
)

// recordHeaderSize is the length + CRC prefix of every record.
const recordHeaderSize = 8

// maxRecordSize bounds a single record; a length field above it is
// treated as a torn/corrupt tail rather than an allocation request.
const maxRecordSize = 64 << 20

// castagnoli is the CRC polynomial table shared by records and
// snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readString consumes a uvarint-length-prefixed string.
func readString(b []byte) (string, []byte, error) {
	n, sz := uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, errors.New("truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// uvarint is binary.Uvarint refusing, like a malformed one, an encoding
// longer than it needs to be (sz <= 0): every value it accepts re-encodes
// to the bytes it was read from.
func uvarint(b []byte) (n uint64, sz int) {
	n, sz = binary.Uvarint(b)
	if sz > 1 && b[sz-1] == 0 {
		return 0, -sz
	}
	return n, sz
}

// frame completes the record whose header was reserved at dst[start:]
// and whose payload was appended behind it: length, then CRC of the
// payload. Encoding in place spares every record a payload copy.
func frame(dst []byte, start int) []byte {
	payload := dst[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// textRecord frames a record whose body is one string: a recSym's
// constant name, a recRule's source text.
func textRecord(kind byte, body string) []byte {
	rec := make([]byte, recordHeaderSize, recordHeaderSize+1+len(body))
	return frame(append(append(rec, kind), body...), 0)
}

// appendTupleRecord appends one framed tuple record to dst — kind byte,
// pred, uvarint arity, the values (recFact's layout; recRetract shares
// it under its own kind byte) — so a run is encoded into one buffer.
func appendTupleRecord(dst []byte, kind byte, pred string, t storage.Tuple) []byte {
	start := len(dst)
	var hdr [recordHeaderSize]byte
	dst = append(append(dst, hdr[:]...), kind)
	dst = appendString(dst, pred)
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return frame(dst, start)
}

// decodeFact parses a recFact body (the payload after the kind byte).
func decodeFact(body []byte) (pred string, vals []storage.Value, err error) {
	pred, body, err = readString(body)
	if err != nil {
		return "", nil, fmt.Errorf("wal: fact: %w", err)
	}
	// Every value takes at least a byte: an arity the rest of the body
	// cannot hold is refused before it sizes an allocation.
	arity, sz := uvarint(body)
	if sz <= 0 || arity > uint64(len(body)-sz) {
		return "", nil, fmt.Errorf("wal: truncated fact arity")
	}
	body = body[sz:]
	vals = make([]storage.Value, arity)
	for i := range vals {
		v, sz := uvarint(body)
		if sz <= 0 || v > 0xFFFFFFFF {
			return "", nil, fmt.Errorf("wal: truncated fact value")
		}
		vals[i] = storage.Value(uint32(v))
		body = body[sz:]
	}
	if len(body) != 0 {
		return "", nil, fmt.Errorf("wal: %d trailing bytes after fact", len(body))
	}
	return pred, vals, nil
}

// nextRecord splits the first framed record off data. ok is false when
// data holds no complete valid record — the torn-tail condition; the
// caller decides whether that is tolerable (final segment) or corruption
// (sealed segment).
func nextRecord(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < recordHeaderSize {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:]))
	crc := binary.LittleEndian.Uint32(data[4:])
	if n > maxRecordSize || n > len(data)-recordHeaderSize {
		return nil, nil, false
	}
	payload = data[recordHeaderSize : recordHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, nil, false
	}
	return payload, data[recordHeaderSize+n:], true
}
