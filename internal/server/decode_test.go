package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

// The fuzz targets hold the request-body scanner to encoding/json: it
// never panics, a body it declines leaves the request untouched (the
// fallback decodes into the zero request), and a body it accepts is one
// encoding/json accepts as the same request. The seed corpora under
// testdata/fuzz/ — the bodies the benchmark harness sends, and one body
// per class the scanner declines — run as ordinary test cases in every
// `go test`.

func FuzzQueryBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { differential(t, body, new(queryRequest), new(queryRequest)) })
}

func FuzzBatchBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { differential(t, body, new(batchRequest), new(batchRequest)) })
}

func FuzzFactsBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { differential(t, body, new(factsRequest), new(factsRequest)) })
}

// differential scans body into got and, when the scanner accepts it,
// decodes it with encoding/json into want; got and want are zero requests
// of one type.
func differential(t *testing.T, body []byte, got, want request) {
	if !got.scan(&scanner{b: body}) {
		if !reflect.ValueOf(got).Elem().IsZero() {
			t.Fatalf("declined %q but filled the request: %+v", body, got)
		}
		return
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(want); err != nil {
		t.Fatalf("scanned %q, which encoding/json refuses: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n scanned %#v\n    json %#v", body, got, want)
	}
}

// TestScannerKeysAreTheJSONTags: the scanner accepts exactly the keys
// encoding/json matches exactly.
func TestScannerKeysAreTheJSONTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{queryRequest{}, queryKeys},
		{batchRequest{}, batchKeys},
		{factsRequest{}, factsKeys},
		{fact{}, factKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s: the scanner's keys %q, the json tags %q", typ, c.keys, tags)
		}
	}
}

// answers checks a /v1/query response's answer count and, when first is
// set, that every answer starts with it.
func answers(n int, first string) func(*testing.T, *Server, []byte) {
	return func(t *testing.T, _ *Server, body []byte) {
		t.Helper()
		var resp queryResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Count != n {
			t.Fatalf("want %d answers: %s (%v)", n, body, err)
		}
		for _, row := range resp.Answers {
			if first != "" && row[0] != first {
				t.Fatalf("want answers for %s: %s", first, body)
			}
		}
	}
}

// members checks a /v1/batch response's answer count per member.
func members(counts ...int) func(*testing.T, *Server, []byte) {
	return func(t *testing.T, _ *Server, body []byte) {
		t.Helper()
		var resp batchResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(counts) {
			t.Fatalf("want %d members: %s (%v)", len(counts), body, err)
		}
		for i, r := range resp.Results {
			if r.Count != counts[i] {
				t.Fatalf("member %d: want %d answers: %s", i, counts[i], body)
			}
		}
	}
}

// holds reports whether the engine stores f.
func holds(srv *Server, f fact) bool {
	db := srv.eng.DB()
	rel := db.Relation(f.Pred)
	t := make(storage.Tuple, len(f.Args))
	return rel != nil && rel.Arity() == len(f.Args) && db.Syms.LookupBatch(f.Args, t) && rel.Contains(t)
}

// stored checks a /v1/facts acknowledgement (when want is set) and which
// facts the engine holds afterwards.
func stored(want *factsResponse, in []fact, out ...fact) func(*testing.T, *Server, []byte) {
	return func(t *testing.T, srv *Server, body []byte) {
		t.Helper()
		var resp factsResponse
		if want != nil && (json.Unmarshal(body, &resp) != nil || resp != *want) {
			t.Fatalf("want %+v: %s", *want, body)
		}
		for _, f := range in {
			if !holds(srv, f) {
				t.Fatalf("%v is not stored", f)
			}
		}
		for _, f := range out {
			if holds(srv, f) {
				t.Fatalf("%v is stored", f)
			}
		}
	}
}

// TestDeclinedBodiesMeanWhatTheyMeant sends each class of body the
// scanner declines through the handler, beside wire-form bodies of the
// same request: every one gets the status and the meaning encoding/json
// gave it. The bodies are written out by hand: marshalling a struct
// whose keys are not the wire keys would only ever reach the fallback.
func TestDeclinedBodiesMeanWhatTheyMeant(t *testing.T) {
	f := func(pred string, args ...string) fact { return fact{Pred: pred, Args: args} }
	added := func(n int) *factsResponse { return &factsResponse{Added: n} }
	for _, c := range []struct {
		name, path, body string
		status           int
		check            func(*testing.T, *Server, []byte)
	}{
		{"wire form", "/v1/query", `{"query":"t(n3, Y)"}`, 200, answers(2, "n3")},
		{"wire form with timeout", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":60000}`, 200, answers(2, "n3")},
		{"whitespace", "/v1/query", " \t\r\n{ \"query\" :\n\"t(n3, Y)\" , \"timeout_ms\" : -0 }\n", 200, answers(2, "n3")},
		{"escape", "/v1/query", `{"query":"t(\u006e3, Y)"}`, 200, answers(2, "n3")},
		{"case-variant key", "/v1/query", `{"Query":"t(n3, Y)"}`, 200, answers(2, "n3")},
		{"unknown key", "/v1/query", `{"query":"t(n3, Y)","explain":"analyze"}`, 200, answers(2, "n3")},
		{"duplicate key, last wins", "/v1/query", `{"query":"t(n0, Y)","query":"t(n3, Y)"}`, 200, answers(2, "n3")},
		{"trailing object", "/v1/query", `{"query":"t(n3, Y)"}{"query":"t(n0, Y)"}`, 200, answers(2, "n3")},
		{"trailing bytes", "/v1/query", `{"query":"t(n3, Y)"} and more`, 200, answers(2, "n3")},
		{"null timeout", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":null}`, 200, answers(2, "n3")},
		{"float timeout", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":1.5}`, 400, nil},
		{"exponent timeout", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":1e3}`, 400, nil},
		{"leading zero", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":01}`, 400, nil},
		{"timeout overflows", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":99999999999999999999}`, 400, nil},
		{"string timeout", "/v1/query", `{"query":"t(n3, Y)","timeout_ms":"5"}`, 400, nil},
		{"null query", "/v1/query", `{"query":null}`, 400, nil},
		{"null body", "/v1/query", `null`, 400, nil},
		{"empty body", "/v1/query", ``, 400, nil},
		{"truncated", "/v1/query", `{"query":"t(n3, Y)"`, 400, nil},
		{"control byte", "/v1/query", "{\"query\":\"t(n3,\tY)\"}", 400, nil},
		{"stream escape", "/v1/query/stream", `{"query":"t(n\u0033, Y)"}`, 200, nil},
		{"batch", "/v1/batch", `{"queries":["t(n0, Y)","t(n3, Y)"],"timeout_ms":500}`, 200, members(5, 2)},
		{"batch escape", "/v1/batch", `{"queries":["t(n\u0030, Y)"]}`, 200, members(5)},
		{"batch null member", "/v1/batch", `{"queries":["t(n3, Y)",null]}`, 400, nil},
		{"batch empty", "/v1/batch", `{"queries":[]}`, 400, nil},
		{"batch null", "/v1/batch", `{"queries":null}`, 400, nil},
		{"facts", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","q"]}]}`, 200, stored(added(1), []fact{f("b", "n0", "q")})},
		{"non-ASCII arg", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","ü"]}]}`, 200, stored(added(1), []fact{f("b", "n0", "ü")})},
		{"escaped quote", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","x\"y"]}]}`, 200, stored(added(1), []fact{f("b", "n0", `x"y`)})},
		{"case-variant fact keys", "/v1/facts", `{"Facts":[{"PRED":"b","Args":["n0","q"]}]}`, 200, stored(added(1), []fact{f("b", "n0", "q")})},
		{"duplicate fact key", "/v1/facts", `{"facts":[{"pred":"a","pred":"b","args":["n0","q"]}]}`, 200,
			stored(added(1), []fact{f("b", "n0", "q")}, f("a", "n0", "q"))},
		{"duplicate facts key", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","q1"]}],"facts":[{"pred":"b","args":["n0","q2"]}]}`, 200,
			stored(added(1), []fact{f("b", "n0", "q2")}, f("b", "n0", "q1"))},
		{"null args", "/v1/facts", `{"facts":[{"pred":"z","args":null}]}`, 200, stored(added(1), []fact{f("z")})},
		{"empty args after args", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","q"]},{"pred":"z","args":[]}]}`, 200,
			stored(added(2), []fact{f("b", "n0", "q"), f("z")})},
		{"empty predicate", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","q1"]},{"pred":"","args":["x"]},{"pred":"b","args":["n0","q2"]}]}`, 400,
			stored(nil, []fact{f("b", "n0", "q1")}, f("b", "n0", "q2"))},
		{"empty predicate in retracts", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","q1"]}],"retracts":[{"pred":"b","args":["n1","m1"]},{"args":["x"]},{"pred":"b","args":["n2","m2"]}]}`, 400,
			stored(nil, []fact{f("b", "n0", "q1"), f("b", "n2", "m2")}, f("b", "n1", "m1"))},
		{"rules and retracts", "/v1/facts", `{"retracts":[{"pred":"b","args":["n4","m4"]}],"rules":["r(X, Y) :- b(X, Y).","e(u, v)."]}`, 200,
			stored(&factsResponse{Added: 1, Retracted: 1, Rules: 2}, []fact{f("e", "u", "v")}, f("b", "n4", "m4"))},
		{"number arg", "/v1/facts", `{"facts":[{"pred":"b","args":["n0",5]}]}`, 400, nil},
		{"trailing bytes after facts", "/v1/facts", `{"facts":[{"pred":"b","args":["n0","q"]}]} and more`, 200, stored(added(1), []fact{f("b", "n0", "q")})},
		{"null facts body", "/v1/facts", `null`, 200, stored(&factsResponse{}, nil)},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := newTestServer(t, 5, Config{})
			w := post(srv, c.path, c.body)
			if w.Code != c.status {
				t.Fatalf("status %d, want %d: %s", w.Code, c.status, w.Body)
			}
			if c.check != nil {
				c.check(t, srv, w.Body.Bytes())
			}
		})
	}
}

// TestBodyOverLimit413: a body of exactly MaxBodyBytes is served, one a
// byte longer is a 413 that names the limit and counts as a bad request.
func TestBodyOverLimit413(t *testing.T) {
	const limit = 64
	for _, c := range []struct{ path, body string }{
		{"/v1/query", `{"query":"t(n0, Y)"}`},
		{"/v1/facts", `{"facts":[{"pred":"b","args":["n0","q"]}]}`},
	} {
		srv := newTestServer(t, 5, Config{MaxBodyBytes: limit})
		exact := c.body + strings.Repeat(" ", limit-len(c.body))
		if w := post(srv, c.path, exact); w.Code != http.StatusOK {
			t.Fatalf("%s, %d bytes: status %d: %s", c.path, len(exact), w.Code, w.Body)
		}
		w := post(srv, c.path, exact+" ")
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusRequestEntityTooLarge ||
			e.Status != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "64-byte limit") {
			t.Fatalf("%s, %d bytes: status %d: %s", c.path, len(exact)+1, w.Code, w.Body)
		}
		if got := srv.badRequests.Load(); got != 1 {
			t.Fatalf("%s: %d bad requests counted, want 1", c.path, got)
		}
	}
}

// TestContentLengthDoesNotSizeTheBuffer: a request that declares 8 MiB
// and carries 20 bytes costs a small buffer, not the declared one.
func TestContentLengthDoesNotSizeTheBuffer(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	serve := func() {
		req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"query":"t(n0, Y)"}`))
		req.ContentLength = 8 << 20
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // the build, then hits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a 20-byte body declaring 8 MiB allocated %d bytes", got)
	}
}

// factsBody is a /v1/facts body of n wire-form facts over two predicates,
// tagged by op so that every op's facts are fresh.
func factsBody(b []byte, op, n int) []byte {
	b = append(b, `{"facts":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"pred":"`...)
		b = append(b, "ab"[i%2])
		b = append(b, `","args":["o`...)
		b = strconv.AppendInt(b, int64(op), 10)
		b = append(b, `","n`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `"]}`...)
	}
	return append(b, "]}"...)
}

// TestFactsDecodeAllocationBudget: decoding a body does not allocate per
// fact — its args share one arena cut from one copy of the body, and each
// predicate is allocated once — so a 1 000-fact body costs a few
// allocations more than a 100-fact one, not a thousand.
func TestFactsDecodeAllocationBudget(t *testing.T) {
	const budget = 4
	srv := newTestServer(t, 0, Config{})
	allocs := func(n int) float64 {
		body := factsBody(nil, 0, n)
		return testing.AllocsPerRun(50, func() {
			var req factsRequest
			r := httptest.NewRequest("POST", "/v1/facts", bytes.NewReader(body))
			if !srv.decodeBody(httptest.NewRecorder(), r, &req) || len(req.Facts) != n {
				t.Fatalf("%d facts: decoded %d", n, len(req.Facts))
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("decoding allocates %v objects at 100 facts, %v at 1000", small, large)
	if large > small+budget {
		t.Fatalf("a 1000-fact body allocates %v objects, a 100-fact one %v; budget +%d", large, small, budget)
	}
}

// BenchmarkServerFacts drives /v1/facts through the handler, in process:
// 1 000 fresh facts a body, so every op decodes, interns one new constant
// and commits 1 000 new tuples. Building the body is inside the loop, a
// few percent of an op.
func BenchmarkServerFacts(b *testing.B) {
	srv := serverOver(b, "")
	var body []byte
	b.ReportAllocs()
	for op := 0; b.Loop(); op++ {
		body = factsBody(body[:0], op, 1000)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/facts", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(b.N)*1000/b.Elapsed().Seconds(), "facts/s")
}
