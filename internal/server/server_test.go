package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	onesided "repro"
)

// fact is a /v1/facts member; the struct marshals in the wire form.
type fact = onesided.Fact

// newTestServer opens an engine over the canonical TC chain (n edges)
// and wraps it in a Server with the given config (Engine filled in).
func newTestServer(t *testing.T, n int, cfg Config) *Server {
	t.Helper()
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		eng.AddFact("b", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i))
	}
	cfg.Engine = eng
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do issues one request against the handler and returns the recorder.
func do(t *testing.T, srv *Server, method, path, tenant string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestQueryEndpoint(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 5 || len(resp.Answers) != 5 {
		t.Fatalf("count = %d answers = %v, want 5 (m0..m4)", resp.Count, resp.Answers)
	}
	if resp.Strategy != "onesided" {
		t.Fatalf("strategy = %q, want onesided", resp.Strategy)
	}
}

// TestQueryExplainCarriesDRed: the explain a /v1/query response carries
// says what delete-rederive did to the answers it serves — candidates
// taken out / candidates put back — once a retraction has reached them,
// and says nothing about it before.
func TestQueryExplainCarriesDRed(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	query := func() queryResponse {
		t.Helper()
		w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0, Y)"})
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := query(); strings.Contains(resp.Explain, "dred=") {
		t.Fatalf("cold explain mentions delete-rederive: %q", resp.Explain)
	}
	// n4's exit, and a second edge into n4 so that cutting the first
	// over-deletes what the second re-derives.
	for _, req := range []factsRequest{
		{Facts: []fact{{Pred: "a", Args: []string{"n2", "n4"}}}},
		{Retracts: []fact{{Pred: "b", Args: []string{"n4", "m4"}}, {Pred: "a", Args: []string{"n3", "n4"}}}},
	} {
		if w := do(t, srv, "POST", "/v1/facts", "", req); w.Code != http.StatusOK {
			t.Fatalf("facts: status = %d, body %s", w.Code, w.Body)
		}
		query()
	}
	// Taken out: the answer m4 and the contexts n4 and n5 below the cut
	// edge. Put back: n4 and n5, still reached through n2.
	resp := query()
	if resp.Count != 4 || !strings.Contains(resp.Explain, "result-cache=hit") || !strings.Contains(resp.Explain, " dred=3/2") {
		t.Fatalf("after the retractions: %d answers, explain %q; want 4 answers and dred=3/2", resp.Count, resp.Explain)
	}
}

// TestRefixIsObservable: a cut ten levels below the head of a 2 000-node
// chain overruns its maintenance pass's round budget, and the pass
// re-runs the Fig. 9 loop instead. The /v1/query explain says so with
// refix=1, and /v1/stats counts the refixed pass.
func TestRefixIsObservable(t *testing.T) {
	srv := newTestServer(t, 2000, Config{})
	query := func() queryResponse {
		t.Helper()
		w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0, Y)"})
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := query(); strings.Contains(resp.Explain, "refix=") {
		t.Fatalf("cold explain mentions a refix: %q", resp.Explain)
	}
	cut := factsRequest{Retracts: []fact{{Pred: "a", Args: []string{"n10", "n11"}}}}
	if w := do(t, srv, "POST", "/v1/facts", "", cut); w.Code != http.StatusOK {
		t.Fatalf("facts: status = %d, body %s", w.Code, w.Body)
	}
	if resp := query(); resp.Count != 11 || !strings.Contains(resp.Explain, "result-cache=updated") || !strings.Contains(resp.Explain, " refix=1") {
		t.Fatalf("after the cut: %d answers, explain %q; want 11 answers, updated, refix=1", resp.Count, resp.Explain)
	}
	w := do(t, srv, "GET", "/v1/stats", "", nil)
	var stats struct {
		ResultCache struct{ Updated, Rebuilt, Refixed int64 } `json:"result_cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if rc := stats.ResultCache; rc.Updated != 1 || rc.Rebuilt != 1 || rc.Refixed != 1 {
		t.Fatalf("/v1/stats result_cache = %+v, want one build and one updated pass that refixed", rc)
	}
}

func TestQueryBadRequest(t *testing.T) {
	srv := newTestServer(t, 3, Config{})
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unparsable query: status = %d", w.Code)
	}
}

// TestGasQuota429 is the acceptance scenario: a runaway recursive query
// from a gas-capped tenant aborts with 429 in bounded time, and the
// engine keeps serving other tenants.
func TestGasQuota429(t *testing.T) {
	srv := newTestServer(t, 20000, Config{
		Tenants: map[string]onesided.Quota{
			"capped": {MaxDerived: 10_000},
		},
	})
	start := time.Now()
	w := do(t, srv, "POST", "/v1/query", "capped", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("capped tenant: status = %d, body %s", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gas abort took %s, want bounded", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "gas") {
		t.Fatalf("error body = %s", w.Body)
	}
	// The uncapped default tenant is still served by the same engine.
	w = do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n19990, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("other tenant after gas abort: status = %d, body %s", w.Code, w.Body)
	}
}

func TestDeadline504(t *testing.T) {
	srv := newTestServer(t, 2000, Config{
		Tenants: map[string]onesided.Quota{
			"hurried": {MaxDeadline: time.Nanosecond},
		},
	})
	w := do(t, srv, "POST", "/v1/query", "hurried", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	// The request timeout is capped by MaxDeadline, not extended by it.
	w = do(t, srv, "POST", "/v1/query", "hurried", queryRequest{Query: "t(n0, Y)", TimeoutMS: 60_000})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms above cap: status = %d", w.Code)
	}
}

func TestStreamEndpoint(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	w := do(t, srv, "POST", "/v1/query/stream", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	sc := bufio.NewScanner(w.Body)
	rows, terminal := 0, 0
	var last streamLine
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			terminal++
			last = line
		} else {
			rows++
		}
	}
	if rows != 5 || terminal != 1 {
		t.Fatalf("rows = %d terminal = %d, want 5 and 1", rows, terminal)
	}
	if last.Count != 5 || last.Error != "" || last.Strategy != "onesided" {
		t.Fatalf("terminal line = %+v", last)
	}
}

// TestStreamGasVerdictInTrailer: a governance abort that lands after
// the 200 is committed travels in the terminal NDJSON line.
func TestStreamGasVerdictInTrailer(t *testing.T) {
	srv := newTestServer(t, 20000, Config{
		DefaultQuota: onesided.Quota{MaxDerived: 10_000},
	})
	w := do(t, srv, "POST", "/v1/query/stream", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (stream commits 200 before evaluating)", w.Code)
	}
	sc := bufio.NewScanner(w.Body)
	var last streamLine
	for sc.Scan() {
		json.Unmarshal(sc.Bytes(), &last)
	}
	if !last.Done || last.Status != http.StatusTooManyRequests || !strings.Contains(last.Error, "gas") {
		t.Fatalf("terminal line = %+v, want done with 429 gas error", last)
	}
}

func TestFactsIngestAndTenantQuota(t *testing.T) {
	srv := newTestServer(t, 0, Config{
		Tenants: map[string]onesided.Quota{
			"small": {MaxFacts: 2},
		},
	})
	w := do(t, srv, "POST", "/v1/facts", "small", factsRequest{Facts: []fact{
		{Pred: "a", Args: []string{"x", "y"}},
		{Pred: "a", Args: []string{"x", "y"}}, // duplicate
		{Pred: "a", Args: []string{"y", "z"}},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp factsResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Added != 2 || resp.Duplicates != 1 {
		t.Fatalf("resp = %+v, want 2 added 1 duplicate", resp)
	}
	// The tenant is now at its MaxFacts; the next insert is a 429.
	w = do(t, srv, "POST", "/v1/facts", "small", factsRequest{Facts: []fact{
		{Pred: "a", Args: []string{"z", "w"}},
	}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest: status = %d, body %s", w.Code, w.Body)
	}
	// Spelling the fact as a rule is the same insert: same 429, nothing
	// stored.
	before := srv.eng.DB().TupleCount()
	w = do(t, srv, "POST", "/v1/facts", "small", factsRequest{Rules: []string{"e(a, b)."}})
	if w.Code != http.StatusTooManyRequests || srv.eng.DB().TupleCount() != before {
		t.Fatalf("over-quota fact in rules: status = %d, tuples %d -> %d, body %s",
			w.Code, before, srv.eng.DB().TupleCount(), w.Body)
	}
	// Another tenant is unaffected, and rules load through the same
	// endpoint.
	w = do(t, srv, "POST", "/v1/facts", "other", factsRequest{
		Facts: []fact{{Pred: "a", Args: []string{"z", "w"}}},
		Rules: []string{"r(X, Y) :- a(X, Y)."},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("other tenant: status = %d, body %s", w.Code, w.Body)
	}
	if w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "r(z, Y)"}); w.Code != http.StatusOK {
		t.Fatalf("query over ingested rule: status = %d, body %s", w.Code, w.Body)
	}
}

// TestFactsArityMismatch400: a fact whose arity differs from its
// relation's — stored, or fixed by an earlier fact of the same request —
// is a 400, never a panic; the facts before it are in and counted.
func TestFactsArityMismatch400(t *testing.T) {
	srv := newTestServer(t, 1, Config{}) // a/2 and b/2 exist
	for name, req := range map[string]factsRequest{
		"stored relation": {Facts: []fact{
			{Pred: "a", Args: []string{"p", "q"}},
			{Pred: "a", Args: []string{"x"}},
			{Pred: "a", Args: []string{"r", "s"}},
		}},
		"new predicate": {Facts: []fact{
			{Pred: "fresh", Args: []string{"p"}},
			{Pred: "fresh", Args: []string{"p", "q"}},
		}},
		"fact in rules": {Rules: []string{"a(u, v). b(x)."}},
	} {
		before := srv.eng.DB().TupleCount()
		w := do(t, srv, "POST", "/v1/facts", "", req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", name, w.Code, w.Body)
		}
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "arity") {
			t.Fatalf("%s: error body = %s", name, w.Body)
		}
		if got := srv.eng.DB().TupleCount(); got != before+1 {
			t.Fatalf("%s: %d tuples after the 400, want the valid prefix (%d)", name, got, before+1)
		}
	}
	// Retracting with the wrong arity stays a miss, not an error.
	w := do(t, srv, "POST", "/v1/facts", "", factsRequest{Retracts: []fact{{Pred: "a", Args: []string{"x"}}}})
	var resp factsResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if w.Code != http.StatusOK || resp.Missing != 1 {
		t.Fatalf("wrong-arity retract: status = %d resp = %+v, want 200 with 1 missing", w.Code, resp)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	w := do(t, srv, "POST", "/v1/batch", "", batchRequest{Queries: []string{"t(n0, Y)", "t(n3, Y)"}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp batchResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if len(resp.Results) != 2 || resp.Results[0].Count != 5 || resp.Results[1].Count != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if w := do(t, srv, "POST", "/v1/batch", "", batchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d", w.Code)
	}
}

func TestSaturation503(t *testing.T) {
	srv := newTestServer(t, 5, Config{MaxConcurrent: 1, AdmissionWait: time.Millisecond})
	// Occupy the only evaluation slot directly; an in-package test can.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while saturated", w.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t, 20000, Config{
		Tenants: map[string]onesided.Quota{"capped": {MaxDerived: 10_000}},
	})
	do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n19990, Y)"})
	do(t, srv, "POST", "/v1/query", "capped", queryRequest{Query: "t(n0, Y)"})
	w := do(t, srv, "GET", "/v1/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests != 3 || resp.Served != 1 || resp.GasExhausted != 1 {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.Tenants["capped"].GasExhausted != 1 || resp.Tenants[defaultTenant].Requests != 1 {
		t.Fatalf("tenant stats = %+v", resp.Tenants)
	}
	if resp.Tuples == 0 || resp.PlanCache == "" {
		t.Fatalf("engine stats missing: %+v", resp)
	}
	// The storage block: bytes by structure, the directories the two
	// queries built among them and the keys they index, what a key costs,
	// and exactly what the database reports.
	if st := resp.Storage; st.TupleBlocks == 0 || st.DedupTables == 0 || st.DirectorySlots == 0 || st.DirectoryKeys == 0 || st.SymbolText == 0 || st.SymbolIndex == 0 ||
		st != srv.eng.DB().Footprint() || !strings.Contains(w.Body.String(), `"storage":{"tuple_blocks":`) ||
		!strings.Contains(w.Body.String(), fmt.Sprintf(`"directory_bytes_per_key":%v`, st.DirectoryBytesPerKey())) {
		t.Fatalf("storage stats = %+v in %s", st, w.Body)
	}
}

// newDurableServer wraps a fresh SyncAlways engine persisted under dir.
func newDurableServer(t *testing.T, dir string) *Server {
	t.Helper()
	eng, err := onesided.Open(onesided.WithPersistence(dir), onesided.WithSyncPolicy(onesided.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestQueryRequestsWriteNothing: request text must not grow the engine.
// A hundred /v1/query, /v1/query/stream and /v1/batch requests naming
// constants the database has never seen answer empty and leave the symbol
// table and the write-ahead log where they were.
func TestQueryRequestsWriteNothing(t *testing.T) {
	srv := newDurableServer(t, t.TempDir())
	w := do(t, srv, "POST", "/v1/facts", "", factsRequest{
		Rules: []string{"t(X, Y) :- a(X, Z), t(Z, Y).", "t(X, Y) :- b(X, Y)."},
		Facts: []fact{{Pred: "a", Args: []string{"n0", "n1"}}, {Pred: "b", Args: []string{"n1", "m0"}}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("seed: status %d, body %s", w.Code, w.Body)
	}
	syms, records := srv.eng.DB().Syms.Len(), srv.eng.Log().CommitStats().Records
	for i := 0; i < 100; i++ {
		q := fmt.Sprintf("t(nosuch%d, Y)", i)
		var w *httptest.ResponseRecorder
		switch i % 3 {
		case 0:
			w = do(t, srv, "POST", "/v1/query", "", queryRequest{Query: q})
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Count != 0 || resp.Strategy != "onesided" {
				t.Fatalf("%s: %s (err %v); want no answers from the one-sided plan", q, w.Body, err)
			}
		case 1:
			w = do(t, srv, "POST", "/v1/query/stream", "", queryRequest{Query: q})
		default:
			w = do(t, srv, "POST", "/v1/batch", "", batchRequest{Queries: []string{"t(n0, Y)", q}})
			var resp batchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Results) != 2 || resp.Results[0].Count != 1 || resp.Results[1].Count != 0 {
				t.Fatalf("batch with %s: %s (err %v); want 1 and 0 answers", q, w.Body, err)
			}
		}
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", q, w.Code, w.Body)
		}
	}
	if got := srv.eng.DB().Syms.Len(); got != syms {
		t.Errorf("symbol table grew from %d to %d names", syms, got)
	}
	if got := srv.eng.Log().CommitStats().Records; got != records {
		t.Errorf("log grew from %d to %d records", records, got)
	}
}

// TestFactsOneRequestOneFsync: a /v1/facts body is one commit. However
// many predicates its inserts and retractions touch, it is journaled as
// one group under one fsync covering exactly its accepted mutations; a
// body that changes nothing touches the log not at all; and the rules of
// a body are one group too, not one per rule. What the bodies
// acknowledged is what a reopened engine recovers.
func TestFactsOneRequestOneFsync(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir)
	f := func(pred, x, y string) fact { return fact{Pred: pred, Args: []string{x, y}} }
	// group is the number of fact, retract and rule records the body should
	// journal, syms the symbol records that precede them.
	post := func(req factsRequest, want factsResponse, fsyncs, group, syms uint64) {
		t.Helper()
		before := srv.eng.Log().CommitStats()
		w := do(t, srv, "POST", "/v1/facts", "", req)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		var resp factsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp != want {
			t.Fatalf("resp = %+v, want %+v", resp, want)
		}
		after := srv.eng.Log().CommitStats()
		if got := after.Fsyncs - before.Fsyncs; got != fsyncs {
			t.Fatalf("request cost %d fsyncs, want %d (stats %+v -> %+v)", got, fsyncs, before, after)
		}
		if got := after.Groups - before.Groups; got != fsyncs {
			t.Fatalf("request drove %d commit groups, want %d", got, fsyncs)
		}
		if got := after.Records - before.Records; got != group+syms {
			t.Fatalf("request journaled %d records, want %d", got, group+syms)
		}
		if got := after.GroupRecords - before.GroupRecords; got != group {
			t.Fatalf("the request's group covered %d records, want all %d", got, group)
		}
	}
	// The seed interns every constant used below, so the later bodies
	// journal fact, retract and rule records only.
	post(factsRequest{Facts: []fact{
		f("a", "n0", "n1"), f("a", "n1", "n2"), f("b", "n0", "n3"), f("b", "n1", "n3"), f("p", "n2", "n3"), f("p", "n3", "n0"),
	}}, factsResponse{Added: 6}, 1, 6, 4)
	// Inserts over three predicates, retractions over two.
	post(factsRequest{
		Facts: []fact{
			f("a", "n2", "n3"), f("b", "n2", "n3"), f("a", "n0", "n1") /* duplicate */, f("p", "n0", "n1"), f("a", "n3", "n0"),
		},
		Retracts: []fact{
			f("b", "n0", "n3"), f("a", "n1", "n2"), f("b", "n3", "n3") /* missing */, f("nowhere", "n0", "n1"), /* missing */
		},
	}, factsResponse{Added: 4, Duplicates: 1, Retracted: 2, Missing: 2}, 1, 6, 0)
	// Nothing accepted, nothing journaled.
	post(factsRequest{
		Facts:    []fact{f("a", "n0", "n1"), f("p", "n0", "n1")},
		Retracts: []fact{f("b", "n0", "n3"), f("a", "n1", "n2")},
	}, factsResponse{Duplicates: 2, Missing: 2}, 0, 0, 0)
	// Four rules are one group.
	post(factsRequest{Rules: []string{
		"t(X, Y) :- a(X, Z), t(Z, Y).", "t(X, Y) :- b(X, Y).", "sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).", "sg(X, Y) :- sg0(X, Y).",
	}}, factsResponse{Rules: 4}, 1, 4, 0)

	want := srv.eng.DB().Dump()
	if err := srv.eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := onesided.Open(onesided.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DB().Dump(); got != want {
		t.Fatalf("recovered database differs:\n got: %q\nwant: %q", got, want)
	}
	if got := len(re.Program().Rules); got != 4 {
		t.Fatalf("recovered %d rules, want 4", got)
	}
}

// TestFactsDurabilityFailure503: once the write-ahead log has failed, a
// write that could not be made durable is answered 503 with the log's
// error — never 200.
func TestFactsDurabilityFailure503(t *testing.T) {
	srv := newDurableServer(t, t.TempDir())
	req := func(x string) factsRequest {
		return factsRequest{Facts: []fact{{Pred: "a", Args: []string{x, "y"}}}}
	}
	if w := do(t, srv, "POST", "/v1/facts", "", req("x0")); w.Code != http.StatusOK {
		t.Fatalf("healthy log: status = %d, body %s", w.Code, w.Body)
	}
	if err := srv.eng.Log().Close(); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]factsRequest{
		"facts": req("x1"),
		"rules": {Rules: []string{"r(X, Y) :- a(X, Y)."}},
	} {
		w := do(t, srv, "POST", "/v1/facts", "", body)
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body = %s", name, w.Body)
		}
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(e.Error, "log closed") {
			t.Fatalf("%s over a closed log: status = %d, body %s; want 503 naming the log's error", name, w.Code, w.Body)
		}
	}
}
