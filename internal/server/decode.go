package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	onesided "repro"
)

// Request bodies are read whole and scanned in one pass over their bytes.
// The scanner accepts the canonical wire form only: each field's exact
// lower-case key, at most once; strings of printable ASCII without a
// backslash; integers without a fraction or an exponent; JSON whitespace;
// and nothing after the object but whitespace. Anything else — an escape,
// a non-ASCII byte, a key in another case or one no field has, null, a
// repeated key, a float, trailing bytes, malformed input — makes it
// decline, and encoding/json decodes the same bytes into the zero request
// instead. So every body means what encoding/json made of it, and a body
// it refuses gets its error; the fuzz targets hold the scanner to that.

// A request is a decoded request body. scan fills it from the wire form
// in sc, or declines — reporting false and leaving the request as it
// was.
type request interface {
	scan(sc *scanner) bool
}

// The keys the scanner accepts, in the order scan's member functions
// number them; each list is its struct's json tags.
var (
	queryKeys = []string{"query", "timeout_ms"}
	batchKeys = []string{"queries", "timeout_ms"}
	factsKeys = []string{"facts", "retracts", "rules"}
	factKeys  = []string{"pred", "args"}
)

func (r *queryRequest) scan(sc *scanner) bool {
	var q queryRequest
	if !sc.document(queryKeys, func(k int) (ok bool) {
		if k == 0 {
			q.Query, ok = sc.str()
		} else {
			q.TimeoutMS, ok = sc.integer()
		}
		return ok
	}) {
		return false
	}
	*r = q
	return true
}

func (r *batchRequest) scan(sc *scanner) bool {
	var q batchRequest
	if !sc.document(batchKeys, func(k int) (ok bool) {
		if k == 0 {
			q.Queries, ok = sc.strs()
		} else {
			q.TimeoutMS, ok = sc.integer()
		}
		return ok
	}) {
		return false
	}
	*r = q
	return true
}

func (r *factsRequest) scan(sc *scanner) bool {
	sc.text = string(sc.b)
	var q factsRequest
	if !sc.document(factsKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			q.Facts, ok = sc.facts()
		case 1:
			q.Retracts, ok = sc.facts()
		default:
			q.Rules, ok = sc.strs()
		}
		return ok
	}) {
		return false
	}
	*r = q
	return true
}

const (
	// maxPresize bounds the buffer a request's Content-Length sizes up
	// front: the header is the client's word, and a short body must not
	// cost a long buffer. A longer body grows the buffer as it arrives.
	maxPresize = 64 << 10
	// maxPooledRequest bounds the request buffers that are recycled:
	// every query body fits, an ingest chunk's does not — pooled, those
	// would stay pinned between bursts of writes.
	maxPooledRequest = 4 << 10
	// maxPresizedFacts bounds the facts a list is sized for before its
	// bytes are known to be facts.
	maxPresizedFacts = 4096
)

// requestBodies recycles request buffers; nothing decoded from a body
// refers to its buffer.
var requestBodies = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody reads the request body whole — ServeHTTP bounds it by
// MaxBodyBytes — and decodes it into req. It reports false when there is
// no request to serve, having counted a bad request and written a 413
// for a body over the limit or a 400 for anything else.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, req request) bool {
	buf := requestBodies.Get().(*[]byte)
	body, err := readBody(r.Body, r.ContentLength, *buf)
	if err == nil && !req.scan(&scanner{b: body}) {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(req)
	}
	if cap(body) <= maxPooledRequest {
		*buf = body[:0]
	}
	requestBodies.Put(buf)
	if err == nil {
		return true
	}
	s.badRequests.Add(1)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: request body over the %d-byte limit", tooLarge.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
	return false
}

// readBody reads r to its end into the empty buffer b, or into a larger
// one when it does not fit. A declared length sizes the buffer up front,
// up to maxPresize.
func readBody(r io.Reader, declared int64, b []byte) ([]byte, error) {
	want := int64(512)
	if declared > 0 {
		want = min(declared, maxPresize) + 1 // +1: room for the read that sees EOF
	}
	if int64(cap(b)) < want {
		b = make([]byte, 0, want)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// scanner reads a request body in the wire form, in one pass.
type scanner struct {
	b []byte
	i int // the next byte to read

	// A facts body's args are cut from text, one string copy of b, and
	// packed into arena. Nothing cut from text outlives the request: the
	// symbol table copies what it interns. Predicates are allocated on
	// their own, once per body each, because they may be kept (a new
	// relation's name).
	text  string
	arena []string
	last  string            // the predicate scanned last
	preds map[string]string // every predicate allocated so far
}

// space skips JSON whitespace.
func (sc *scanner) space() {
	for ; sc.i < len(sc.b); sc.i++ {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// token skips whitespace and consumes c if it comes next.
func (sc *scanner) token(c byte) bool {
	sc.space()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// span scans a string and returns the bounds of its contents. It declines
// a string with a backslash or a byte outside printable ASCII.
func (sc *scanner) span() (i, j int, ok bool) {
	if !sc.token('"') {
		return 0, 0, false
	}
	for i = sc.i; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; {
		case c == '"':
			sc.i++
			return i, sc.i - 1, true
		case c < ' ' || c > '~' || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// str scans a string into one of its own.
func (sc *scanner) str() (string, bool) {
	i, j, ok := sc.span()
	return string(sc.b[i:j]), ok
}

// integer scans an integer: an optional minus, then digits without a
// leading zero. It declines more than 18 digits, which might not fit an
// int64; a fraction or an exponent is left for the caller to refuse.
func (sc *scanner) integer() (int64, bool) {
	sc.space()
	neg := sc.i < len(sc.b) && sc.b[sc.i] == '-'
	if neg {
		sc.i++
	}
	start := sc.i
	var n int64
	for ; sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9'; sc.i++ {
		n = n*10 + int64(sc.b[sc.i]-'0')
	}
	if d := sc.i - start; d == 0 || d > 18 || d > 1 && sc.b[start] == '0' {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// array scans an array, calling elem with the cursor before each element.
func (sc *scanner) array(elem func() bool) bool {
	if !sc.token('[') {
		return false
	}
	if sc.token(']') {
		return true
	}
	for elem() {
		if sc.token(']') {
			return true
		}
		if !sc.token(',') {
			return false
		}
	}
	return false
}

// object scans an object whose keys are among keys, none of them twice,
// calling member with each key's index and the cursor before its value.
func (sc *scanner) object(keys []string, member func(k int) bool) bool {
	if !sc.token('{') {
		return false
	}
	if sc.token('}') {
		return true
	}
	var seen uint64
	for {
		i, j, ok := sc.span()
		k := -1
		for n, key := range keys {
			if string(sc.b[i:j]) == key {
				k = n
			}
		}
		if !ok || k < 0 || seen&(1<<k) != 0 || !sc.token(':') || !member(k) {
			return false
		}
		seen |= 1 << k
		if sc.token('}') {
			return true
		}
		if !sc.token(',') {
			return false
		}
	}
}

// document scans a whole body: one object, then nothing but whitespace.
func (sc *scanner) document(keys []string, member func(k int) bool) bool {
	if !sc.object(keys, member) {
		return false
	}
	sc.space()
	return sc.i == len(sc.b)
}

// strs scans an array of strings, each allocated on its own: query and
// rule texts may be kept (the plan cache, the loaded program).
func (sc *scanner) strs() ([]string, bool) {
	list := []string{}
	ok := sc.array(func() bool {
		s, ok := sc.str()
		list = append(list, s)
		return ok
	})
	return list, ok
}

// facts scans an array of facts.
func (sc *scanner) facts() ([]onesided.Fact, bool) {
	// Every fact opens a brace, so the braces ahead bound the array's
	// length.
	facts := make([]onesided.Fact, 0, min(bytes.Count(sc.b[sc.i:], []byte{'{'}), maxPresizedFacts))
	if sc.arena == nil {
		sc.arena = make([]string, 0, 2*cap(facts))
	}
	ok := sc.array(func() bool {
		var f onesided.Fact
		ok := sc.object(factKeys, func(k int) (ok bool) {
			if k == 0 {
				f.Pred, ok = sc.pred()
			} else {
				f.Args, ok = sc.args()
			}
			return ok
		})
		facts = append(facts, f)
		return ok
	})
	return facts, ok
}

// pred scans a predicate name, allocating each distinct one once.
func (sc *scanner) pred() (string, bool) {
	i, j, ok := sc.span()
	if name := sc.b[i:j]; string(name) != sc.last {
		p, seen := sc.preds[string(name)]
		if !seen {
			p = string(name)
			if sc.preds == nil {
				sc.preds = make(map[string]string)
			}
			sc.preds[p] = p
		}
		sc.last = p
	}
	return sc.last, ok
}

// args scans a fact's arguments into the arena and returns them. A
// fact's args are contiguous: when the arena is full, the next chunk
// starts with the args of the fact being scanned, and the facts before
// keep the chunk they were cut from.
func (sc *scanner) args() ([]string, bool) {
	start := len(sc.arena)
	ok := sc.array(func() bool {
		i, j, ok := sc.span()
		if len(sc.arena) == cap(sc.arena) {
			next := make([]string, len(sc.arena)-start, max(2*cap(sc.arena), 16))
			copy(next, sc.arena[start:])
			sc.arena, start = next, 0
		}
		sc.arena = append(sc.arena, sc.text[i:j])
		return ok
	})
	end := len(sc.arena)
	return sc.arena[start:end:end], ok
}
