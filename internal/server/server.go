// Package server is the network envelope around the engine: an HTTP API
// (query, streaming query, batch, fact ingest, stats) with per-tenant
// resource governance. The paper's one-sided recursions make recursive
// queries cheap enough to answer on demand; this layer is what lets
// many mutually untrusted clients demand them. Governance is enforced
// with the engine's own primitives — per-request deadlines through the
// context plumbing, derived-fact gas metered inside the fixpoint loops
// (onesided.WithGas), fact-count admission on ingest — plus a
// bounded-concurrency admission gate in front of evaluation.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	onesided "repro"
	"repro/internal/replica"
	"repro/internal/storage"
)

// Config assembles a Server.
type Config struct {
	// Engine serves every tenant's queries. Required.
	Engine *onesided.Engine
	// DefaultQuota governs tenants without an entry in Tenants. The zero
	// value means ungoverned (no deadline cap, no gas, no fact limit).
	DefaultQuota onesided.Quota
	// Tenants maps a tenant name (the X-Tenant request header) to its
	// quota, overriding DefaultQuota entirely for that tenant.
	Tenants map[string]onesided.Quota
	// MaxConcurrent bounds the evaluations in flight at once; requests
	// beyond the bound wait briefly for a slot and are then rejected with
	// 503. <= 0 means 4 x GOMAXPROCS.
	MaxConcurrent int
	// AdmissionWait is how long a request may wait for an evaluation
	// slot before 503. <= 0 means 100ms.
	AdmissionWait time.Duration
	// MaxBodyBytes caps request bodies; a longer one is answered 413.
	// <= 0 means 8 MiB.
	MaxBodyBytes int64
	// Repl, when set, is mounted under /v1/repl/ — a primary serves its
	// write-ahead log to followers through it (replica.NewSource).
	Repl http.Handler
	// PrimaryURL, on a follower, is where writes belong: write requests
	// are rejected with 421 and a Location header pointing there.
	PrimaryURL string
	// Replication, when set, reports the follower's replication
	// position in /v1/stats (lag in epochs and bytes).
	Replication func() replica.Stats
	// EpochWait bounds how long a read carrying an X-At-Epoch barrier
	// may wait for the engine to apply up to that epoch before 425.
	// <= 0 means 2s.
	EpochWait time.Duration
}

// tenantState is the per-tenant accounting the server keeps: the facts
// it accepted for the tenant (admission against Quota.MaxFacts) and the
// tenant's request/rejection counters.
type tenantState struct {
	facts        atomic.Int64
	requests     atomic.Int64
	gasExhausted atomic.Int64
	timeouts     atomic.Int64
	subs         atomic.Int64 // open /v1/subscribe streams
}

// Server is the HTTP handler. It is safe for concurrent use; all state
// beyond the engine's is atomic counters and the tenant map.
type Server struct {
	eng *onesided.Engine
	cfg Config
	mux *http.ServeMux
	sem chan struct{}

	mu      sync.Mutex
	tenants map[string]*tenantState

	requests     atomic.Int64
	served       atomic.Int64
	streamed     atomic.Int64 // rows written on /v1/query/stream
	badRequests  atomic.Int64
	gasExhausted atomic.Int64
	timeouts     atomic.Int64
	saturated    atomic.Int64
	factRejects  atomic.Int64
	factsAdded   atomic.Int64
	subsOpen     atomic.Int64 // currently connected /v1/subscribe streams
	subEvents    atomic.Int64 // subscription event lines written
	subRejects   atomic.Int64 // subscriptions refused by quota
}

// New builds a Server over the config's engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.AdmissionWait <= 0 {
		cfg.AdmissionWait = 100 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.EpochWait <= 0 {
		cfg.EpochWait = 2 * time.Second
	}
	s := &Server{
		eng:     cfg.Engine,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		tenants: make(map[string]*tenantState),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/facts", s.handleFacts)
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	if cfg.Repl != nil {
		s.mux.Handle("GET /v1/repl/", cfg.Repl)
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// defaultTenant is the identity of requests without an X-Tenant header.
const defaultTenant = "default"

// tenant resolves the request's tenant name and accounting state.
func (s *Server) tenant(r *http.Request) (string, *tenantState) {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		name = defaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{}
		s.tenants[name] = ts
	}
	return name, ts
}

// quotaFor returns the quota governing a tenant.
func (s *Server) quotaFor(name string) onesided.Quota {
	if q, ok := s.cfg.Tenants[name]; ok {
		return q
	}
	return s.cfg.DefaultQuota
}

// govern derives the evaluation context for one request: the deadline is
// the smaller of the request's timeout_ms and the tenant quota's
// MaxDeadline, and the quota's MaxDerived attaches a fresh gas meter.
// The returned cancel must always be called.
func govern(ctx context.Context, q onesided.Quota, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMS) * time.Millisecond
	if q.MaxDeadline > 0 && (d <= 0 || d > q.MaxDeadline) {
		d = q.MaxDeadline
	}
	cancel := context.CancelFunc(func() {})
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	return onesided.WithGas(ctx, q.MaxDerived), cancel
}

// admit acquires an evaluation slot, waiting at most AdmissionWait.
// It reports false — and writes the 503 — when the server is saturated.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(s.cfg.AdmissionWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		s.saturated.Add(1)
		writeError(w, http.StatusServiceUnavailable, errors.New("server: saturated; retry later"))
		return false
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) release() { <-s.sem }

// statusFor maps an evaluation error to its HTTP status: gas and fact
// quota aborts are 429 (the tenant asked for too much), deadlines are
// 504 (the evaluation ran out of time), a client disconnect is the
// conventional 499, a failed write-ahead log is 503 (the write is in
// memory but was not made durable: never a 200), and everything else —
// parse errors, unplannable queries — is a 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, onesided.ErrDurability):
		return http.StatusServiceUnavailable
	case errors.Is(err, onesided.ErrGasExhausted),
		errors.Is(err, onesided.ErrFactLimitExceeded),
		errors.Is(err, onesided.ErrSubscriptionLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, onesided.ErrReadOnly):
		// 421: this node cannot take the write; the Location header (when
		// the follower knows its primary) says who can.
		return http.StatusMisdirectedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusBadRequest
	}
}

// account tallies a failed evaluation on the server and tenant counters.
func (s *Server) account(ts *tenantState, err error) {
	switch {
	case errors.Is(err, onesided.ErrGasExhausted):
		s.gasExhausted.Add(1)
		ts.gasExhausted.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		ts.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
	default:
		s.badRequests.Add(1)
	}
}

// atEpochHeader is the read-consistency barrier: a client that saw the
// primary at epoch E sends "X-At-Epoch: E" and the read blocks until
// this node has applied at least that far — read-your-writes across a
// primary/follower pair. The barrier is a lower bound, not a point-in-
// time view: relations are insert-only, so state at epoch >= E contains
// everything E contained.
const atEpochHeader = "X-At-Epoch"

// epochHeader reports the serving node's applied epoch on responses, so
// clients can thread it into a follower read's X-At-Epoch.
const epochHeader = "X-Epoch"

// barrierTick is how often an X-At-Epoch wait re-checks the epoch.
const barrierTick = 5 * time.Millisecond

// atEpoch enforces the X-At-Epoch barrier. It reports false — having
// written the response — when the barrier cannot be satisfied: a 400
// for an unparsable header, a 425 (Too Early) when the epoch does not
// arrive within EpochWait.
func (s *Server) atEpoch(w http.ResponseWriter, r *http.Request) bool {
	v := r.Header.Get(atEpochHeader)
	if v == "" {
		return true
	}
	want, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad %s: %w", atEpochHeader, err))
		return false
	}
	deadline := time.Now().Add(s.cfg.EpochWait)
	for {
		if at := s.eng.DB().Epoch(); at >= want {
			return true
		}
		if !time.Now().Before(deadline) {
			writeError(w, http.StatusTooEarly,
				fmt.Errorf("server: epoch %d not yet applied here (at %d); retry", want, s.eng.DB().Epoch()))
			return false
		}
		select {
		case <-r.Context().Done():
			return false
		case <-time.After(barrierTick):
		}
	}
}

type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Status: status})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ---------------------------------------------------------------------------
// POST /v1/query

type queryRequest struct {
	// Query is one ground query atom in Prolog syntax, e.g. "t(n0, Y)".
	Query string `json:"query"`
	// TimeoutMS bounds the evaluation; the tenant quota's MaxDeadline
	// caps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// queryResponse is the wire shape of a /v1/query answer (and of each
// /v1/batch member, which leaves Explain out). The handlers do not
// marshal it: appendQueryResponse writes the same bytes around answers a
// result-cache hit already carries rendered.
type queryResponse struct {
	Answers   [][]string `json:"answers"`
	Count     int        `json:"count"`
	Strategy  string     `json:"strategy,omitempty"`
	Explain   string     `json:"explain,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// appendQueryResponse appends rows as the JSON encoding/json gives a
// queryResponse, around the answers and the explanation as Rows.Rendered
// has them — for a result-cache hit, the bytes its cache entry rendered. A
// batch member carries no explanation and, as a nil slice did, spells an
// empty answer set null.
func appendQueryResponse(b []byte, rows *onesided.Rows, member bool, elapsedMS float64) []byte {
	r, _ := rows.Rendered()
	b = append(b, `{"answers":`...)
	if member && r.Count == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, r.Answers...)
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if strategy := rows.Explain().Strategy; strategy != "" {
		b = append(b, `,"strategy":`...)
		b = appendJSONString(b, strategy)
	}
	if !member && r.Explain != "" {
		b = append(b, `,"explain":`...)
		b = appendJSONString(b, r.Explain)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendMillis(b, elapsedMS)
	return append(b, '}')
}

// appendJSONString appends s quoted as encoding/json quotes it. Printable
// ASCII is copied (escaping the quote and the backslash); a string with
// anything else — control bytes, the HTML-sensitive three, non-ASCII —
// goes through json.Marshal whole.
func appendJSONString(b []byte, s string) []byte {
	start := len(b)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20 || c > 0x7e || c == '<' || c == '>' || c == '&':
			q, _ := json.Marshal(s) // strings cannot fail to marshal
			return append(b[:start], q...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// appendMillis appends an elapsed time in milliseconds as encoding/json
// writes a float64. Elapsed times are whole microseconds over 1000 — zero
// or at least 0.001 — so the exponent form json switches to below 1e-6 is
// never due.
func appendMillis(b []byte, ms float64) []byte {
	return strconv.AppendFloat(b, ms, 'f', -1, 64)
}

// bodies recycles response buffers between requests.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds what a recycled buffer may pin.
const maxPooledBody = 64 << 10

// writeAnswer serves a query's 200: the JSON body build appends,
// newline-terminated like json.Encoder's, under the epoch this node had
// applied once the body was built.
func (s *Server) writeAnswer(w http.ResponseWriter, build func(b []byte) []byte) {
	buf := bodies.Get().(*[]byte)
	b := append(build((*buf)[:0]), '\n')
	s.served.Add(1)
	w.Header().Set(epochHeader, strconv.FormatUint(s.eng.DB().Epoch(), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	if cap(b) <= maxPooledBody {
		*buf = b
		bodies.Put(buf)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	name, ts := s.tenant(r)
	ts.requests.Add(1)
	if !s.atEpoch(w, r) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	ctx, cancel := govern(r.Context(), s.quotaFor(name), req.TimeoutMS)
	defer cancel()

	start := time.Now()
	rows, err := s.eng.Query(ctx, req.Query)
	if err != nil {
		s.account(ts, err)
		writeError(w, statusFor(err), err)
		return
	}
	elapsedMS := float64(time.Since(start).Microseconds()) / 1000
	s.writeAnswer(w, func(b []byte) []byte { return appendQueryResponse(b, rows, false, elapsedMS) })
}

// ---------------------------------------------------------------------------
// POST /v1/query/stream

// streamLine is one NDJSON line of a /v1/query/stream response: rows
// carry Row, and the single terminal line carries Done plus either the
// summary or the error. The HTTP status is committed (200) before
// evaluation finishes — that is the point of streaming — so governance
// verdicts that arrive mid-fixpoint travel in the terminal line's
// Status field using the same mapping as /v1/query.
type streamLine struct {
	Row      []string `json:"row,omitempty"`
	Done     bool     `json:"done,omitempty"`
	Count    int      `json:"count,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Error    string   `json:"error,omitempty"`
	Status   int      `json:"status,omitempty"`
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	name, ts := s.tenant(r)
	ts.requests.Add(1)
	if !s.atEpoch(w, r) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	ctx, cancel := govern(r.Context(), s.quotaFor(name), req.TimeoutMS)
	defer cancel()

	rows, err := s.eng.QueryStream(ctx, req.Query)
	if err != nil {
		// Planning failed before any evaluation started.
		s.account(ts, err)
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(epochHeader, strconv.FormatUint(s.eng.DB().Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	count := 0
	for row := range rows.All() {
		if r.Context().Err() != nil {
			// The client went away; breaking out stops the evaluation
			// (Rows.All's stop/drain protocol reclaims the goroutine).
			break
		}
		enc.Encode(streamLine{Row: row.Strings()})
		if fl != nil {
			// Flush per row: first answers must reach the client while the
			// fixpoint is still running.
			fl.Flush()
		}
		count++
		s.streamed.Add(1)
	}
	final := streamLine{Done: true, Count: count}
	if err := rows.Err(); err != nil {
		s.account(ts, err)
		final.Error = err.Error()
		final.Status = statusFor(err)
	} else {
		s.served.Add(1)
		final.Strategy = rows.Explain().Strategy
	}
	enc.Encode(final)
	if fl != nil {
		fl.Flush()
	}
}

// ---------------------------------------------------------------------------
// POST /v1/batch

type batchRequest struct {
	Queries   []string `json:"queries"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// batchResponse is the wire shape of a /v1/batch answer; like
// queryResponse it is written by appending, not marshalled.
type batchResponse struct {
	Results   []queryResponse `json:"results"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, errors.New("server: batch has no queries"))
		return
	}
	name, ts := s.tenant(r)
	ts.requests.Add(1)
	if !s.atEpoch(w, r) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	// One deadline and one gas budget govern the whole batch: shared
	// traversals cannot attribute derived contexts to member queries.
	ctx, cancel := govern(r.Context(), s.quotaFor(name), req.TimeoutMS)
	defer cancel()

	start := time.Now()
	rowsList, err := s.eng.QueryBatch(ctx, req.Queries)
	if err != nil {
		s.account(ts, err)
		writeError(w, statusFor(err), err)
		return
	}
	s.writeAnswer(w, func(b []byte) []byte {
		b = append(b, `{"results":`...)
		sep := byte('[')
		for _, rows := range rowsList {
			b = append(b, sep)
			b = appendQueryResponse(b, rows, true, 0)
			sep = ','
		}
		b = append(b, `],"elapsed_ms":`...)
		b = appendMillis(b, float64(time.Since(start).Microseconds())/1000)
		return append(b, '}')
	})
}

// ---------------------------------------------------------------------------
// POST /v1/facts

type factsRequest struct {
	// Facts are facts to insert, each {"pred": ..., "args": [...]}.
	Facts []onesided.Fact `json:"facts,omitempty"`
	// Retracts are facts to remove. Retractions are applied after the
	// inserts in the same request; retracting an absent tuple counts in
	// the response's Missing, not as an error.
	Retracts []onesided.Fact `json:"retracts,omitempty"`
	// Rules are Prolog-syntax rule sources loaded into the engine's
	// program (idempotent, like Engine.Load). Ground facts among them are
	// inserts like Facts: same tenant admission, counted in Added.
	Rules []string `json:"rules,omitempty"`
}

type factsResponse struct {
	Added      int `json:"added"`
	Duplicates int `json:"duplicates"`
	Retracted  int `json:"retracted"`
	Missing    int `json:"missing"` // retracts of tuples that were not present
	Rules      int `json:"rules"`
}

// rejectReadOnly answers a write sent to a follower: 421 Misdirected
// Request with a Location header naming the primary (when known), so a
// client can redirect the write rather than guess. The gate reads the
// engine's read-only flag, not the config — after promotion the same
// node starts accepting writes without a restart.
func (s *Server) rejectReadOnly(w http.ResponseWriter) {
	s.factRejects.Add(1)
	if s.cfg.PrimaryURL != "" {
		w.Header().Set("Location", s.cfg.PrimaryURL+"/v1/facts")
	}
	writeError(w, http.StatusMisdirectedRequest,
		fmt.Errorf("%w; writes go to the primary", onesided.ErrReadOnly))
}

// rejectWrite answers a write the engine refused: the redirect when it
// went read-only between the gate and the write (a demotion race), 503
// with the log's error when the write could not be made durable, 429
// for the fact quota, 400 for anything else (an arity mismatch).
func (s *Server) rejectWrite(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, onesided.ErrReadOnly):
		s.rejectReadOnly(w)
		return
	case errors.Is(err, onesided.ErrDurability):
		// The server's fault, not the request's: no client-error counter.
	case errors.Is(err, onesided.ErrFactLimitExceeded):
		s.factRejects.Add(1)
	default:
		s.badRequests.Add(1)
	}
	writeError(w, statusFor(err), err)
}

// handleFacts serves a write request as one commit: the body's inserts
// and retractions go to the engine in a single Apply — one journal
// group, one fsync under SyncAlways, one subscription tick — and the 200
// is written only after it returns, so an acknowledged body is durable.
// Only a body that straddles a tenant or engine fact-quota boundary
// commits more than once; rules load after the facts, journaled as one
// group of their own.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if s.eng.ReadOnly() {
		s.rejectReadOnly(w)
		return
	}
	var req factsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	name, ts := s.tenant(r)
	ts.requests.Add(1)
	var resp factsResponse
	// A fact with an empty predicate splits its side — the valid prefix is
	// applied, as a per-fact loop would have, then the 400 reports the
	// bad fact (and a bad insert leaves the retractions unattempted).
	validPrefix := func(facts []onesided.Fact) ([]onesided.Fact, bool) {
		for i, f := range facts {
			if f.Pred == "" {
				return facts[:i], false
			}
		}
		return facts, true
	}
	inserts, insertsOK := validPrefix(req.Facts)
	var retracts []onesided.Fact
	retractsOK := true
	if insertsOK {
		retracts, retractsOK = validPrefix(req.Retracts)
	}
	if !s.applyWrite(w, name, ts, inserts, retracts, &resp) {
		return
	}
	if !insertsOK || !retractsOK {
		s.badRequests.Add(1)
		kind := "fact"
		if insertsOK {
			kind = "retract"
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: %s with empty predicate", kind))
		return
	}
	if len(req.Rules) > 0 {
		prog, _, err := onesided.ParseSource(strings.Join(req.Rules, "\n"))
		if err != nil {
			s.badRequests.Add(1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Ground facts spelled as rules are facts: they pass the same
		// tenant admission before the rules proper are loaded.
		ground, rules := onesided.SplitFacts(prog)
		if !s.applyWrite(w, name, ts, ground, nil, &resp) {
			return
		}
		if err := s.eng.LoadProgram(rules); err != nil {
			s.rejectWrite(w, err)
			return
		}
		resp.Rules = len(req.Rules)
	}
	s.served.Add(1)
	w.Header().Set(epochHeader, strconv.FormatUint(s.eng.DB().Epoch(), 10))
	writeJSON(w, http.StatusOK, resp)
}

// applyWrite admits the inserts for the tenant and applies them, with
// the retractions, through the engine's write path, tallying resp.
// Per-tenant admission comes first (the tenant's own accepted inserts
// bound each chunk), then the engine's global MaxFacts inside Apply;
// duplicates insert as no-ops and do not consume quota, so the loop
// re-checks after each chunk. The retractions ride with the chunk that
// completes the inserts, so a body inside its quota is one Apply. It
// reports false — having written the error response — when the write was
// refused part-way; what was applied before that stays in.
func (s *Server) applyWrite(w http.ResponseWriter, name string, ts *tenantState, inserts, retracts []onesided.Fact, resp *factsResponse) bool {
	quota := s.quotaFor(name)
	for len(inserts)+len(retracts) > 0 {
		write := onesided.Write{Insert: inserts}
		if quota.MaxFacts > 0 && len(inserts) > 0 {
			remaining := quota.MaxFacts - ts.facts.Load()
			if remaining <= 0 {
				s.factRejects.Add(1)
				writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("%w: tenant %s holds %d facts (limit %d)",
						onesided.ErrFactLimitExceeded, name, ts.facts.Load(), quota.MaxFacts))
				return false
			}
			if int64(len(inserts)) > remaining {
				write.Insert = inserts[:remaining]
			}
		}
		inserts = inserts[len(write.Insert):]
		if len(inserts) == 0 {
			write.Retract, retracts = retracts, nil
		}
		applied, err := s.eng.Apply(write)
		s.factsAdded.Add(int64(applied.Added))
		resp.Added += applied.Added
		resp.Retracted += applied.Removed
		// Retractions free the tenant's fact-quota slots the inserts
		// consumed; the floor keeps cross-tenant retractions from going
		// negative.
		if ts.facts.Add(int64(applied.Added-applied.Removed)) < 0 {
			ts.facts.Store(0)
		}
		if err != nil {
			s.rejectWrite(w, err)
			return false
		}
		resp.Duplicates += len(write.Insert) - applied.Added
		resp.Missing += len(write.Retract) - applied.Removed
	}
	return true
}

// ---------------------------------------------------------------------------
// GET /v1/subscribe

// handleSubscribe serves a standing maintained query as a chunked
// NDJSON stream: one SubEvent line per answer-set change (the first
// line carries the full initial answers in "add"), flushed as it
// happens. The stream lives until the client disconnects — there is no
// terminal line on the happy path; an evaluation failure mid-stream is
// reported as a final {"error": ...} line. Subscriptions bypass the
// admission semaphore (they are long-lived and mostly idle); the
// per-tenant MaxSubscriptions quota bounds them instead, and no
// deadline is imposed — a standing query has none.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query().Get("query")
	if query == "" {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, errors.New("server: missing ?query="))
		return
	}
	name, ts := s.tenant(r)
	ts.requests.Add(1)
	if !s.atEpoch(w, r) {
		return
	}
	quota := s.quotaFor(name)
	if m := quota.MaxSubscriptions; m > 0 && ts.subs.Load() >= int64(m) {
		s.subRejects.Add(1)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: tenant %s has %d open subscriptions (limit %d)", name, ts.subs.Load(), m))
		return
	}
	// No gas meter is attached here: a meter on the stream's context
	// would be a cumulative lifetime budget that eventually kills any
	// long-lived subscription. The engine attaches its default budget
	// fresh per re-derivation; the tenant's governance on this endpoint
	// is the subscription count.
	sub, err := s.eng.Subscribe(r.Context(), query)
	if err != nil {
		s.account(ts, err)
		writeError(w, statusFor(err), err)
		return
	}
	defer sub.Close()
	ts.subs.Add(1)
	s.subsOpen.Add(1)
	defer ts.subs.Add(-1)
	defer s.subsOpen.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(epochHeader, strconv.FormatUint(s.eng.DB().Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for ev := range sub.Events() {
		enc.Encode(ev)
		if fl != nil {
			fl.Flush()
		}
		s.subEvents.Add(1)
	}
	if err := sub.Err(); err != nil {
		s.account(ts, err)
		enc.Encode(streamLine{Done: true, Error: err.Error(), Status: statusFor(err)})
		if fl != nil {
			fl.Flush()
		}
		return
	}
	s.served.Add(1)
}

// ---------------------------------------------------------------------------
// GET /v1/stats

type tenantStats struct {
	Requests      int64 `json:"requests"`
	Facts         int64 `json:"facts"`
	GasExhausted  int64 `json:"gas_exhausted"`
	Timeouts      int64 `json:"timeouts"`
	Subscriptions int64 `json:"subscriptions,omitempty"`
}

// resultCacheStats is the bound-result cache's effectiveness as served
// by /v1/stats: hits answered from still-current materialized answers,
// updated extended a retained fixpoint with the signed delta, rebuilt
// evaluated in full.
type resultCacheStats struct {
	Hits    int64 `json:"hits"`
	Updated int64 `json:"updated"`
	Rebuilt int64 `json:"rebuilt"`
	Entries int   `json:"entries"`
}

type statsResponse struct {
	Requests     int64            `json:"requests"`
	Served       int64            `json:"served"`
	StreamedRows int64            `json:"streamed_rows"`
	BadRequests  int64            `json:"bad_requests"`
	GasExhausted int64            `json:"gas_exhausted"`
	Timeouts     int64            `json:"timeouts"`
	Saturated    int64            `json:"saturated"`
	FactRejects  int64            `json:"fact_rejects"`
	FactsAdded   int64            `json:"facts_added"`
	Tuples       int              `json:"tuples"`
	PlanCache    string           `json:"plan_cache"`
	ResultCache  resultCacheStats `json:"result_cache"`

	// Storage is what the tuples, their indexes and the symbol table hold
	// in memory, in bytes by structure (storage.Database.Footprint).
	Storage storage.Footprint `json:"storage"`

	// Subscriptions is the number of currently connected /v1/subscribe
	// streams; SubEvents counts event lines written across all of them
	// and SubRejects the opens refused by a tenant's quota.
	Subscriptions int64                  `json:"subscriptions"`
	SubEvents     int64                  `json:"sub_events"`
	SubRejects    int64                  `json:"sub_rejects"`
	Tenants       map[string]tenantStats `json:"tenants"`
	// Epoch is this node's applied database epoch; Role is "primary" or
	// "follower" (the engine's current write-acceptance, so a promoted
	// follower reports "primary"); Replication carries the follower's
	// stream position and lag when this node tails a primary.
	Epoch       uint64         `json:"epoch"`
	Role        string         `json:"role"`
	Replication *replica.Stats `json:"replication,omitempty"`
	// Wal reports the write-ahead log's commit activity when persistence
	// is attached: records and fsyncs since open, plus the group-commit
	// sizes under SyncAlways (group_records/groups is the mean batch one
	// fsync covered — the amortization factor).
	Wal *walStats `json:"wal,omitempty"`
}

// walStats is the /v1/stats rendering of wal.CommitStats.
type walStats struct {
	Fsyncs       uint64 `json:"fsyncs"`
	Records      uint64 `json:"records"`
	Groups       uint64 `json:"groups"`
	GroupRecords uint64 `json:"group_records"`
	LastGroup    int    `json:"last_group"`
	MaxGroup     int    `json:"max_group"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.eng.CacheStats()
	resp := statsResponse{
		Requests:     s.requests.Load(),
		Served:       s.served.Load(),
		StreamedRows: s.streamed.Load(),
		BadRequests:  s.badRequests.Load(),
		GasExhausted: s.gasExhausted.Load(),
		Timeouts:     s.timeouts.Load(),
		Saturated:    s.saturated.Load(),
		FactRejects:  s.factRejects.Load(),
		FactsAdded:   s.factsAdded.Load(),
		Tuples:       s.eng.DB().TupleCount(),
		Storage:      s.eng.DB().Footprint(),
		PlanCache:    cs.String(),
		ResultCache: resultCacheStats{
			Hits:    cs.Results.Hits,
			Updated: cs.Results.Updated,
			Rebuilt: cs.Results.Rebuilt,
			Entries: cs.Results.Entries,
		},
		Subscriptions: s.subsOpen.Load(),
		SubEvents:     s.subEvents.Load(),
		SubRejects:    s.subRejects.Load(),
		Tenants:       make(map[string]tenantStats),
		Epoch:         s.eng.DB().Epoch(),
		Role:          "primary",
	}
	if s.eng.ReadOnly() {
		resp.Role = "follower"
	}
	if s.cfg.Replication != nil {
		rs := s.cfg.Replication()
		resp.Replication = &rs
	}
	if lg := s.eng.Log(); lg != nil {
		ws := lg.CommitStats()
		resp.Wal = &walStats{
			Fsyncs:       ws.Fsyncs,
			Records:      ws.Records,
			Groups:       ws.Groups,
			GroupRecords: ws.GroupRecords,
			LastGroup:    ws.LastGroup,
			MaxGroup:     ws.MaxGroup,
		}
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ts := s.tenants[n]
		resp.Tenants[n] = tenantStats{
			Requests:      ts.requests.Load(),
			Facts:         ts.facts.Load(),
			GasExhausted:  ts.gasExhausted.Load(),
			Timeouts:      ts.timeouts.Load(),
			Subscriptions: ts.subs.Load(),
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
