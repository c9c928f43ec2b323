package replica

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// Stream response headers. Every /v1/repl/segments response carries the
// authoritative read outcome in headers so a follower can interpret the
// body bytes without a second round trip.
const (
	// HdrSeq echoes the segment sequence served.
	HdrSeq = "X-Repl-Seq"
	// HdrOffset is the byte offset the body starts at. A follower
	// compares it against the offset it asked for and trims overlap —
	// the duplicated-delivery defense.
	HdrOffset = "X-Repl-Offset"
	// HdrSize is the segment's size at read time. When HdrSealed is 1
	// this is the segment's final size.
	HdrSize = "X-Repl-Size"
	// HdrSealed is "1" when the segment is sealed (computed after the
	// read: sealed + offset at size means advance to the successor).
	HdrSealed = "X-Repl-Sealed"
	// HdrEpoch is the primary's database epoch, for lag accounting.
	HdrEpoch = "X-Repl-Epoch"
	// HdrActive is the primary's active segment sequence.
	HdrActive = "X-Repl-Active"
)

// longPollTick is how often a waiting segment read re-checks for bytes.
const longPollTick = 25 * time.Millisecond

// maxWait bounds a single long-poll request.
const maxWait = 30 * time.Second

// defaultFetchMax bounds a segment response body when the client does
// not say.
const defaultFetchMax = 1 << 20

// Source serves a primary's write-ahead log as a replication stream:
//
//	GET /v1/repl/manifest                          → Manifest (JSON)
//	GET /v1/repl/snapshots?seq=N                   → raw snapshot file
//	GET /v1/repl/segments?seq=N&offset=M[&max=K][&wait_ms=T]
//	                                               → segment bytes from M
//
// A segment request with wait_ms long-polls: when no bytes are
// available at M and the segment is unsealed, the response is held
// until bytes appear, the segment seals, or the wait expires (200 with
// an empty body — the headers still report size/sealed/epoch).
type Source struct {
	log *wal.Log
	db  *storage.Database
	mux *http.ServeMux
}

// NewSource builds a Source over a primary's log and database.
func NewSource(log *wal.Log, db *storage.Database) *Source {
	s := &Source{log: log, db: db, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/repl/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/repl/snapshots", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/repl/segments", s.handleSegment)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Manifest builds the current replication advertisement.
func (s *Source) Manifest() (Manifest, error) {
	head := s.log.SnapshotHead()
	segs, err := s.log.Segments()
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{
		HeadSnapshot: head,
		Segments:     segs,
		ActiveSeq:    s.log.ActiveSeq(),
		Epoch:        s.db.Epoch(),
	}, nil
}

func (s *Source) handleManifest(w http.ResponseWriter, r *http.Request) {
	m, err := s.Manifest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m)
}

func (s *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	data, err := s.log.ReadSnapshotRaw(seq)
	if err != nil {
		if os.IsNotExist(err) {
			http.Error(w, "no such snapshot", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Source) handleSegment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	offset, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil || offset < 0 {
		http.Error(w, "bad offset", http.StatusBadRequest)
		return
	}
	max := defaultFetchMax
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		if n < max {
			max = n
		}
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			http.Error(w, "bad wait_ms", http.StatusBadRequest)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxWait {
			wait = maxWait
		}
	}

	deadline := time.Now().Add(wait)
	for {
		data, size, sealed, err := s.log.ReadSegmentAt(seq, offset, max)
		if err != nil {
			if os.IsNotExist(err) {
				http.Error(w, "no such segment", http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Hold an empty response only while the segment can still grow.
		if len(data) == 0 && !sealed && time.Now().Before(deadline) {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(longPollTick):
				continue
			}
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set(HdrSeq, strconv.FormatUint(seq, 10))
		h.Set(HdrOffset, strconv.FormatInt(offset, 10))
		h.Set(HdrSize, strconv.FormatInt(size, 10))
		if sealed {
			h.Set(HdrSealed, "1")
		} else {
			h.Set(HdrSealed, "0")
		}
		h.Set(HdrEpoch, strconv.FormatUint(s.db.Epoch(), 10))
		h.Set(HdrActive, strconv.FormatUint(s.log.ActiveSeq(), 10))
		w.Write(data)
		return
	}
}
