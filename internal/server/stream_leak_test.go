package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	onesided "repro"
	"repro/internal/leakcheck"
)

// TestStreamCancelNoLeak is the service-layer extension of the engine's
// stream-abandonment regression: clients that cancel an in-flight
// /v1/query/stream request mid-fixpoint must not leak the evaluation
// goroutine or its stream channel. Run it with -race: the handler's
// break-out path, the Rows stop/drain protocol, and the HTTP machinery
// all interleave here.
func TestStreamCancelNoLeak(t *testing.T) {
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		eng.AddFact("b", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i))
	}
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := hs.Client()

	baseline := runtime.NumGoroutine()
	const rounds = 8
	const clients = 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, "POST",
					hs.URL+"/v1/query/stream", strings.NewReader(`{"query":"t(n0, Y)"}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					return // canceled before headers; fine
				}
				defer resp.Body.Close()
				// Read a few rows, then walk away mid-fixpoint.
				sc := bufio.NewScanner(resp.Body)
				for i := 0; i <= c && sc.Scan(); i++ {
				}
				cancel()
			}(c)
		}
		wg.Wait()
	}
	// Everything the rounds spawned — evaluation goroutines, stream
	// channels, per-connection handlers — must wind down. net/http keeps
	// idle/background workers, so allow a small fixed allowance.
	leakcheck.Wait(t, baseline+clients)
}
