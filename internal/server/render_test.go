package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	onesided "repro"
)

// serverOver opens an engine on a program and wraps it in a Server.
func serverOver(t testing.TB, src string) *Server {
	t.Helper()
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Load(src); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// encoded is the body json.Encoder gives a queryResponse filled the way
// the handlers filled it before appendQueryResponse: the reference every
// rendered body must match byte for byte.
func encoded(t *testing.T, rows *onesided.Rows, member bool, elapsedMS float64) string {
	t.Helper()
	resp := queryResponse{Strategy: rows.Explain().Strategy, ElapsedMS: elapsedMS}
	if !member {
		resp.Answers = make([][]string, 0, rows.Len())
		resp.Explain = rows.Explain().String()
	}
	for row := range rows.Sorted() {
		resp.Answers = append(resp.Answers, row.Strings())
	}
	resp.Count = len(resp.Answers)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAppendQueryResponseMatchesEncodingJSON: the appended body is the
// marshalled struct's, for evaluated and cache-rendered Rows, /v1/query
// and batch-member form, empty and awkward answers, and the elapsed times
// a handler can report.
func TestAppendQueryResponseMatchesEncodingJSON(t *testing.T) {
	srv := serverOver(t, "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\na(n0, n1).")
	eng := srv.eng
	for _, name := range []string{`plain`, `quo"te`, `back\slash`, `<b>&amp;</b>`, "tab\there", "new\nline", "é – ü", "\x01ctl", "bad\xffutf8", "\u2028sep", ""} {
		eng.AddFact("b", "n1", name)
	}
	ctx := context.Background()
	// t(plain, Y) evaluates to nothing; t(nowhere, Y) names a constant the
	// database has never seen and is answered empty without evaluating.
	for _, q := range []string{"t(n0, Y)", "t(plain, Y)", "t(nowhere, Y)", "b(n1, Y)"} {
		for _, mode := range []string{"rebuilt", "hit"} {
			if q == "t(nowhere, Y)" {
				mode = ""
			}
			rows, err := eng.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := rows.Explain().ResultCache; got != mode {
				t.Fatalf("%s: result-cache=%s, want %s", q, got, mode)
			}
			if _, rendered := rows.Rendered(); rendered != (mode == "hit") {
				t.Fatalf("%s %s: Rendered ok=%v", q, mode, rendered)
			}
			for _, member := range []bool{false, true} {
				for _, ms := range []float64{0, 0.001, 0.013, 0.5, 1.5, 12.345, 1234.567, 86400000} {
					got := string(appendQueryResponse(nil, rows, member, ms)) + "\n"
					if want := encoded(t, rows, member, ms); got != want {
						t.Fatalf("%s %s member=%v ms=%v:\n got %s\nwant %s", q, mode, member, ms, got, want)
					}
				}
			}
		}
	}
	// Strings a strategy's verdict or a declined reason can put in the
	// explanation.
	for _, s := range []string{"", "strategy=onesided", `verdict="one-sided"`, `a\b`, "x<y", "x>y", "a&b", "caf\u00e9", "\t", "\x7f", "del\u007f"} {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

// post sends a JSON body straight to the handler.
func post(srv *Server, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return w
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)
	resultCache  = regexp.MustCompile(`result-cache=(\w+)`)
)

// TestHitBodyEqualsTheBodyBeforeIt: on each example program, whatever a
// rebuilt or updated response said, the hit after it says again — the
// same body bar the elapsed time and the result-cache field — through an
// insert and the retraction that undoes it.
func TestHitBodyEqualsTheBodyBeforeIt(t *testing.T) {
	examples := []struct {
		name, src, warm, query string
		write                  fact
	}{
		{"quickstart", `
			t(X, Y) :- a(X, Z), t(Z, Y).
			t(X, Y) :- b(X, Y).
			a(paris, lyon). a(lyon, marseille). a(marseille, toulon).
			b(toulon, nice). b(lyon, grenoble).`,
			"t(lyon, Y)", "t(paris, Y)", fact{Pred: "b", Args: []string{"marseille", "cassis"}}},
		{"flights", `
			reach(X, Y) :- flight(X, Z), reach(Z, Y).
			reach(X, Y) :- ferry(X, Y).
			flight(apt1, apt2). flight(apt2, apt3). flight(apt3, apt1). flight(apt2, apt4).
			ferry(apt3, island0). ferry(apt4, island1).`,
			"reach(apt4, Y)", "reach(apt1, Y)", fact{Pred: "ferry", Args: []string{"apt2", "island2"}}},
		{"genealogy", `
			sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
			sg(X, Y) :- sg0(X, Y).
			p(c1, p1). p(c2, p2). p(d1, c1). p(d2, c2).
			sg0(p1, p2).`,
			"sg(c1, Y)", "sg(d1, Y)", fact{Pred: "p", Args: []string{"d3", "c2"}}},
		{"marketbasket", `
			buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
			buys(X, Y) :- likes(X, Y), cheap(Y).
			knows(ann, bob). knows(bob, cy).
			likes(cy, tea). likes(bob, caviar). likes(bob, rice).
			cheap(tea). cheap(rice).`,
			"buys(bob, Y)", "buys(ann, Y)", fact{Pred: "cheap", Args: []string{"caviar"}}},
		{"appendixa", `
			q(X1, X2, X3) :- c(X1), q(X1, X2, X3).
			q(X1, X2, X3) :- q(X1, X2, W), eq(W, X3).
			q(X1, X2, X3) :- c(X1), p0(X1, X2), bq(X3).
			c(u). c(w).
			p0(u, v1). p0(w, v2).
			bq(k0). eq(k0, k1). eq(k1, k2).`,
			"q(w, X2, X3)", "q(u, X2, X3)", fact{Pred: "eq", Args: []string{"k2", "k3"}}},
	}
	for _, ex := range examples {
		t.Run(ex.name, func(t *testing.T) {
			srv := serverOver(t, ex.src)
			body := func(query string) (string, string) {
				t.Helper()
				w := post(srv, "/v1/query", string(mustJSON(t, queryRequest{Query: query})))
				if w.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", query, w.Code, w.Body)
				}
				b := w.Body.String()
				mode := resultCache.FindStringSubmatch(b)
				if mode == nil || elapsedField.FindString(b) == "" {
					t.Fatalf("%s: body %s", query, b)
				}
				b = elapsedField.ReplaceAllString(b, `"elapsed_ms":0`)
				return resultCache.ReplaceAllString(b, "result-cache=*"), mode[1]
			}
			// The same shape with another constant, so that the plan is in
			// the cache when the first response explains itself.
			body(ex.warm)
			pair := func(what, wantMode string) string {
				t.Helper()
				before, mode := body(ex.query)
				if mode != wantMode {
					t.Fatalf("%s: result-cache=%s, want %s", what, mode, wantMode)
				}
				for i := 0; i < 2; i++ {
					hit, mode := body(ex.query)
					if mode != "hit" {
						t.Fatalf("%s: repeat %d is result-cache=%s", what, i, mode)
					}
					if hit != before {
						t.Fatalf("%s: the hit's body differs from the %s response's\n hit %s\nwas %s", what, wantMode, hit, before)
					}
				}
				return before
			}
			cold := pair("cold", "rebuilt")
			writes := string(mustJSON(t, factsRequest{Facts: []fact{ex.write}}))
			if w := post(srv, "/v1/facts", writes); w.Code != http.StatusOK {
				t.Fatalf("insert: status %d: %s", w.Code, w.Body)
			}
			if grown := pair("after the insert", "updated"); grown == cold {
				t.Fatalf("the insert of %v did not move the answers: %s", ex.write, grown)
			}
			writes = string(mustJSON(t, factsRequest{Retracts: []fact{ex.write}}))
			if w := post(srv, "/v1/facts", writes); w.Code != http.StatusOK {
				t.Fatalf("retract: status %d: %s", w.Code, w.Body)
			}
			back := pair("after the retraction", "updated")
			var was, is queryResponse
			if err := json.Unmarshal([]byte(cold), &was); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(back), &is); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(is.Answers) != fmt.Sprint(was.Answers) || !strings.Contains(is.Explain, " dred=") {
				t.Fatalf("after the retraction: %s\ncold: %s", back, cold)
			}
		})
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchMembersServedAsHitsRenderOnce: a batch member the pre-pass
// serves from the result cache answers with the entry's rendering, in the
// member form (no explanation, null for no answers).
func TestBatchMembersServedAsHitsRenderOnce(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	queries := []string{"t(n0, Y)", "t(n3, Y)", "t(m0, Y)"}
	for _, q := range queries {
		for range 2 { // build, then the hit that renders
			if w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: q}); w.Code != http.StatusOK {
				t.Fatalf("%s: status %d", q, w.Code)
			}
		}
	}
	hits := srv.eng.CacheStats().Results.Hits
	w := do(t, srv, "POST", "/v1/batch", "", batchRequest{Queries: queries})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := srv.eng.CacheStats().Results.Hits - hits; got != int64(len(queries)) {
		t.Fatalf("the batch was served by %d hits, want %d", got, len(queries))
	}
	body := elapsedField.ReplaceAllString(w.Body.String(), `"elapsed_ms":0`)
	want := `{"results":[` +
		`{"answers":[["n0","m0"],["n0","m1"],["n0","m2"],["n0","m3"],["n0","m4"]],"count":5,"strategy":"onesided","elapsed_ms":0},` +
		`{"answers":[["n3","m3"],["n3","m4"]],"count":2,"strategy":"onesided","elapsed_ms":0},` +
		`{"answers":null,"count":0,"strategy":"onesided","elapsed_ms":0}],"elapsed_ms":0}` + "\n"
	if body != want {
		t.Fatalf("batch body\n got %s\nwant %s", body, want)
	}
}

// TestHitAnswersAreAStateOfTheModel races readers against a writer on one
// cache entry. The writer keeps a plain-map model of the answers, one
// state per epoch; every hit must answer with exactly the model's state at
// some epoch between the request's send and the X-Epoch it came back
// under — a rendering that outlived its answers would not. Responses that
// evaluated or maintained walk the live relation after the entry lock is
// released, so they are held only to well-formedness.
func TestHitAnswersAreAStateOfTheModel(t *testing.T) {
	srv := serverOver(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(n0, n1). a(n1, n2).
		b(n2, m).`)
	eng := srv.eng
	// The model: m is an answer while the n1-n2 edge stands, x<k> while
	// b(n1, x<k>) does.
	edge, extra := true, ""
	state := func() string {
		var rows []string
		if edge {
			rows = append(rows, "n0,m")
		}
		if extra != "" {
			rows = append(rows, "n0,"+extra)
		}
		sort.Strings(rows)
		return strings.Join(rows, " ")
	}
	base := eng.DB().Epoch()
	states := []string{state()} // states[e-base] is the model at epoch e
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			x := "x" + strconv.Itoa(k%7)
			for step := 0; step < 4; step++ {
				var ok bool
				var err error
				switch step {
				case 0:
					ok, extra = eng.AddFact("b", "n1", x), x
				case 1:
					ok, err = eng.Retract("a", "n1", "n2")
					edge = false
				case 2:
					ok, edge = eng.AddFact("a", "n1", "n2"), true
				case 3:
					ok, err = eng.Retract("b", "n1", x)
					extra = ""
				}
				if !ok || err != nil {
					t.Errorf("write %d.%d refused: %v", k, step, err)
					return
				}
				states = append(states, state())
				if at := eng.DB().Epoch(); at != base+uint64(len(states)-1) {
					t.Errorf("epoch %d after %d single-fact writes from %d", at, len(states)-1, base)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	type seen struct {
		sent, epoch uint64
		mode, rows  string
	}
	const readers = 4
	observed := make([][]seen, readers)
	body := string(mustJSON(t, queryRequest{Query: "t(n0, Y)"}))
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sent := eng.DB().Epoch()
				w := post(srv, "/v1/query", body)
				var resp queryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || resp.Count != len(resp.Answers) {
					t.Errorf("status %d, %v: %s", w.Code, err, w.Body)
					return
				}
				epoch, err := strconv.ParseUint(w.Header().Get(epochHeader), 10, 64)
				mode := resultCache.FindStringSubmatch(resp.Explain)
				if err != nil || mode == nil {
					t.Errorf("X-Epoch %q, explain %q", w.Header().Get(epochHeader), resp.Explain)
					return
				}
				rows := make([]string, len(resp.Answers))
				for i, row := range resp.Answers {
					rows[i] = strings.Join(row, ",")
				}
				sort.Strings(rows)
				observed[r] = append(observed[r], seen{sent, epoch, mode[1], strings.Join(rows, " ")})
			}
		}()
	}
	time.Sleep(time.Second)
	stop.Store(true)
	wg.Wait()
	hits, others := 0, 0
	for _, list := range observed {
		for _, s := range list {
			if s.mode != "hit" {
				others++
				continue
			}
			hits++
			matched := false
			for e := s.sent; e <= s.epoch && !matched; e++ {
				matched = states[e-base] == s.rows
			}
			if !matched {
				t.Fatalf("a hit sent at epoch %d and answered under %d says [%s]; the model there: %q",
					s.sent, s.epoch, s.rows, states[s.sent-base:s.epoch-base+1])
			}
		}
	}
	if hits == 0 {
		t.Fatalf("no hit among %d responses over %d writes", others, len(states)-1)
	}
	t.Logf("%d hits and %d maintained responses over %d writes", hits, others, len(states)-1)
}

// BenchmarkServerQueryHit drives /v1/query through the handler, in
// process, on a query the result cache answers: request decode, parse,
// the two cache lookups and the write of a rendered body.
func BenchmarkServerQueryHit(b *testing.B) {
	for _, answers := range []int{5, 500} {
		b.Run(fmt.Sprintf("answers=%d", answers), func(b *testing.B) {
			srv := serverOver(b, "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\na(n0, n1).")
			for i := 0; i < answers; i++ {
				srv.eng.AddFact("b", "n1", fmt.Sprintf("m%d", i))
			}
			body := string(mustJSON(b, queryRequest{Query: "t(n0, Y)"}))
			for range 2 { // the build, then the hit that renders
				if w := post(srv, "/v1/query", body); w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rd := strings.NewReader(body)
				for pb.Next() {
					rd.Reset(body)
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", rd))
					if w.Code != http.StatusOK {
						b.Fatalf("status %d: %s", w.Code, w.Body)
					}
				}
			})
			if hits := srv.eng.CacheStats().Results.Hits; hits < int64(b.N) {
				b.Fatalf("%d hits in %d requests", hits, b.N)
			}
		})
	}
}
