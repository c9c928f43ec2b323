package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	onesided "repro"
	"repro/internal/leakcheck"
)

// subscribeStream opens a /v1/subscribe stream against a live httptest
// server and returns a line scanner plus a cancel for the connection.
func subscribeStream(t *testing.T, hs *httptest.Server, query, tenant string) (*bufio.Scanner, *http.Response, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/subscribe?query="+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return bufio.NewScanner(resp.Body), resp, cancel
}

// scanEvent reads the next NDJSON event line.
func scanEvent(t *testing.T, sc *bufio.Scanner) onesided.SubEvent {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("subscription stream ended: %v", sc.Err())
	}
	var ev onesided.SubEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("bad event line %q: %v", sc.Text(), err)
	}
	return ev
}

// TestSubscribeEndpoint drives the full subscription lifecycle over
// HTTP: the initial snapshot line, an add batch after an insert through
// /v1/facts, and a remove batch after a retract through the same
// endpoint's retracts field.
func TestSubscribeEndpoint(t *testing.T) {
	srv := newTestServer(t, 3, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	sc, resp, cancel := subscribeStream(t, hs, "t(n0,+Y)", "")
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}

	init := scanEvent(t, sc)
	if len(init.Add) != 3 || len(init.Remove) != 0 {
		t.Fatalf("initial event = %+v, want 3 adds (m0..m2)", init)
	}

	// Insert: the subscriber sees the new answer.
	w := do(t, srv, "POST", "/v1/facts", "", factsRequest{Facts: []fact{{Pred: "b", Args: []string{"n1", "fresh"}}}})
	if w.Code != http.StatusOK {
		t.Fatalf("insert status = %d, body %s", w.Code, w.Body)
	}
	ev := scanEvent(t, sc)
	if len(ev.Add) != 1 || ev.Add[0][1] != "fresh" || len(ev.Remove) != 0 {
		t.Fatalf("post-insert event = %+v, want add [n0 fresh]", ev)
	}
	if ev.Epoch <= init.Epoch {
		t.Fatalf("event epoch %d did not advance past %d", ev.Epoch, init.Epoch)
	}

	// Retract through the same ingest endpoint: a signed remove batch.
	w = do(t, srv, "POST", "/v1/facts", "", factsRequest{Retracts: []fact{{Pred: "b", Args: []string{"n1", "fresh"}}}})
	if w.Code != http.StatusOK {
		t.Fatalf("retract status = %d, body %s", w.Code, w.Body)
	}
	var fr factsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Retracted != 1 || fr.Missing != 0 {
		t.Fatalf("retract response = %+v, want Retracted=1", fr)
	}
	ev = scanEvent(t, sc)
	if len(ev.Remove) != 1 || ev.Remove[0][1] != "fresh" || len(ev.Add) != 0 {
		t.Fatalf("post-retract event = %+v, want remove [n0 fresh]", ev)
	}
}

// TestSubscribeTenantQuota: per-tenant MaxSubscriptions caps concurrent
// streams with 429, and a disconnect frees the slot.
func TestSubscribeTenantQuota(t *testing.T) {
	srv := newTestServer(t, 3, Config{
		Tenants: map[string]onesided.Quota{"acme": {MaxSubscriptions: 1}},
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	sc, resp, cancel := subscribeStream(t, hs, "t(n0,+Y)", "acme")
	defer resp.Body.Close()
	scanEvent(t, sc) // stream is established

	req, _ := http.NewRequest("GET", hs.URL+"/v1/subscribe?query=t(n1,+Y)", nil)
	req.Header.Set("X-Tenant", "acme")
	second, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscription status = %d, want 429", second.StatusCode)
	}
	// Another tenant is not affected.
	scOther, respOther, cancelOther := subscribeStream(t, hs, "t(n0,+Y)", "other")
	scanEvent(t, scOther)
	cancelOther()
	respOther.Body.Close()

	// Disconnect frees the slot.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		third, err := hs.Client().Get(hs.URL + "/v1/subscribe?query=t(n0,+Y)")
		if err == nil && third.StatusCode == http.StatusTooManyRequests {
			third.Body.Close()
			if time.Now().After(deadline) {
				t.Fatal("slot never freed after disconnect")
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Note: no X-Tenant header — but the freed slot is acme's; re-check
		// with the tenant header below.
		third.Body.Close()
		break
	}
	req, _ = http.NewRequest("GET", hs.URL+"/v1/subscribe?query=t(n0,+Y)", nil)
	req.Header.Set("X-Tenant", "acme")
	for {
		fourth, err := hs.Client().Do(req.Clone(context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		code := fourth.StatusCode
		fourth.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acme slot never freed, last status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeDisconnectNoLeak is the service-layer teardown check:
// clients that vanish while the pump is blocked mid-push must not leak
// the pump goroutine or the handler. Run with -race.
func TestSubscribeDisconnectNoLeak(t *testing.T) {
	srv := newTestServer(t, 3, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	eng := srv.eng

	baseline := runtime.NumGoroutine()
	for round := 0; round < 6; round++ {
		sc, resp, cancel := subscribeStream(t, hs, "t(n0,+Y)", "")
		scanEvent(t, sc)
		// Change the answers, then walk away without reading the event:
		// the engine pump blocks pushing, the handler blocks writing.
		eng.AddFact("b", "n1", "leak"+string(rune('a'+round)))
		time.Sleep(10 * time.Millisecond)
		cancel()
		resp.Body.Close()
	}
	leakcheck.Wait(t, baseline+2)
	if n := eng.Subscriptions(); n != 0 {
		t.Fatalf("engine still reports %d open subscriptions", n)
	}
}
