package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	onesided "repro"
	"repro/internal/replica"
)

// replPair wires a primary server (persistent engine + repl mount) and a
// follower server (read-only engine tailing it) through real HTTP.
type replPair struct {
	primary  *onesided.Engine
	follower *onesided.Engine
	psrv     *httptest.Server
	fsrv     *Server
	f        *replica.Follower
}

func newReplPair(t *testing.T) *replPair {
	t.Helper()
	peng, err := onesided.Open(onesided.WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peng.Close() })
	ps, err := New(Config{Engine: peng, Repl: replica.NewSource(peng.Log(), peng.DB())})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(ps)
	t.Cleanup(psrv.Close)

	feng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feng.Close() })
	f, err := replica.Start(replica.FollowerConfig{
		Engine:       feng,
		Primary:      psrv.URL,
		Dir:          t.TempDir(),
		PollInterval: 50 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(Config{
		Engine:      feng,
		PrimaryURL:  psrv.URL,
		Replication: f.Stats,
		EpochWait:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &replPair{primary: peng, follower: feng, psrv: psrv, fsrv: fs, f: f}
}

func doReq(t *testing.T, srv *Server, method, path string, hdr map[string]string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestFollowerRejectsWritesWithRedirect(t *testing.T) {
	p := newReplPair(t)
	w := doReq(t, p.fsrv, "POST", "/v1/facts", nil,
		factsRequest{Facts: []fact{{Pred: "edge", Args: []string{"a", "b"}}}})
	if w.Code != http.StatusMisdirectedRequest {
		t.Fatalf("follower write = %d, want 421 (body %s)", w.Code, w.Body)
	}
	if loc := w.Header().Get("Location"); loc != p.psrv.URL+"/v1/facts" {
		t.Fatalf("Location = %q, want primary facts URL", loc)
	}
}

func TestAtEpochBarrierServesReadYourWrites(t *testing.T) {
	p := newReplPair(t)
	if _, err := p.primary.Load("t(X, Y) :- edge(X, Y)."); err != nil {
		t.Fatal(err)
	}
	p.primary.AddFact("edge", "a", "b")
	epoch := p.primary.DB().Epoch()

	// A follower read at the primary's epoch must include the fact, even
	// if the request races the apply loop: the barrier waits.
	w := doReq(t, p.fsrv, "POST", "/v1/query",
		map[string]string{atEpochHeader: strconv.FormatUint(epoch, 10)},
		queryRequest{Query: "t(a, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("at-epoch query = %d (body %s)", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 {
		t.Fatalf("answers = %d, want 1 (%+v)", resp.Count, resp)
	}
	if got := w.Header().Get(epochHeader); got == "" || got == "0" {
		t.Fatalf("response %s = %q, want the applied epoch", epochHeader, got)
	}
}

// TestBatchedWritesKeepEpochInvariant: a batched /v1/facts write moves
// the primary's epoch by its accepted count, so the follower — which
// applies the log one record at a time — lands on exactly the primary's
// epoch, and a read carrying the write's X-Epoch waits for the whole
// batch, not its first record.
func TestBatchedWritesKeepEpochInvariant(t *testing.T) {
	p := newReplPair(t)
	if _, err := p.primary.Load("t(X, Y) :- edge(X, Y)."); err != nil {
		t.Fatal(err)
	}
	const batch = 1000
	req := factsRequest{Facts: make([]fact, batch+1)}
	for i := range req.Facts {
		req.Facts[i] = fact{Pred: "edge", Args: []string{"a", "b" + strconv.Itoa(i%batch)}} // one in-batch duplicate
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.psrv.URL+"/v1/facts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	epoch := resp.Header.Get(epochHeader)
	if resp.StatusCode != http.StatusOK || epoch != strconv.Itoa(batch) {
		t.Fatalf("batched write: status %d, %s = %q, want 200 at epoch %d", resp.StatusCode, epochHeader, epoch, batch)
	}

	w := doReq(t, p.fsrv, "POST", "/v1/query", map[string]string{atEpochHeader: epoch}, queryRequest{Query: "t(a, Y)"})
	var got queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK {
		t.Fatalf("at-epoch query = %d (body %s): %v", w.Code, w.Body, err)
	}
	if got.Count != batch {
		t.Fatalf("read at the write's epoch saw %d of %d facts", got.Count, batch)
	}

	// A second batch with retractions, then quiesce: applied epoch equals
	// the primary's and the lag is exactly zero.
	retracts := make([]onesided.Fact, 300)
	for i := range retracts {
		retracts[i] = onesided.Fact{Pred: "edge", Args: []string{"a", "b" + strconv.Itoa(2*i)}}
	}
	if n, err := p.primary.RetractFacts(retracts); err != nil || n != len(retracts) {
		t.Fatalf("RetractFacts = %d, %v", n, err)
	}
	want := p.primary.DB().Epoch()
	if want != batch+uint64(len(retracts)) {
		t.Fatalf("primary epoch %d, want %d accepted mutations", want, batch+len(retracts))
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.f.Stats().AppliedEpoch < want || p.f.Stats().PrimaryEpoch < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", p.f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.f.Stats(); st.AppliedEpoch != want || st.LagEpochs != 0 {
		t.Fatalf("quiesced follower: applied epoch %d lag %d, want %d and 0", st.AppliedEpoch, st.LagEpochs, want)
	}
	if p.follower.DB().Dump() != p.primary.DB().Dump() {
		t.Fatal("follower state diverged from the primary")
	}
}

func TestAtEpochBarrierTooEarly(t *testing.T) {
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng, EpochWait: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing will ever apply epoch 99 here.
	w := doReq(t, srv, "POST", "/v1/query",
		map[string]string{atEpochHeader: "99"}, queryRequest{Query: "t(a, Y)"})
	if w.Code != http.StatusTooEarly {
		t.Fatalf("unreachable epoch = %d, want 425 (body %s)", w.Code, w.Body)
	}
	w = doReq(t, srv, "POST", "/v1/query",
		map[string]string{atEpochHeader: "not-a-number"}, queryRequest{Query: "t(a, Y)"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage epoch = %d, want 400", w.Code)
	}
}

func TestStatsReportRoleAndReplication(t *testing.T) {
	p := newReplPair(t)
	p.primary.AddFact("p", "x")
	// Wait for the follower to catch up so lag figures are settled.
	deadline := time.Now().Add(10 * time.Second)
	for p.follower.DB().Epoch() < p.primary.DB().Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", p.f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	w := doReq(t, p.fsrv, "GET", "/v1/stats", nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats = %d", w.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" {
		t.Fatalf("role = %q, want follower", st.Role)
	}
	if st.Replication == nil {
		t.Fatal("stats missing replication block")
	}
	if st.Replication.State != "tailing" {
		t.Fatalf("replication state = %q, want tailing", st.Replication.State)
	}
	if st.Replication.LagEpochs != 0 {
		t.Fatalf("lag_epochs = %d after catch-up", st.Replication.LagEpochs)
	}
	if st.Epoch != p.primary.DB().Epoch() {
		t.Fatalf("epoch = %d, want %d", st.Epoch, p.primary.DB().Epoch())
	}
}
