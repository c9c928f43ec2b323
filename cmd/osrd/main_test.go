package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	onesided "repro"
	"repro/internal/leakcheck"
)

// node is one run of osrd serving on a loopback listener.
type node struct {
	url    string
	cancel context.CancelFunc
	done   chan struct{} // closed once run has returned err
	err    error
}

// start runs osrd with the given flags until stop (or the end of the
// test) cancels it.
func start(t *testing.T, dataDir, follow string, promote bool) *node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.err = run(ctx, ln, "", dataDir, follow, promote, onesided.Quota{}, 0)
	}()
	t.Cleanup(func() { n.stop(t) })
	return n
}

// stop cancels the node's context and waits for run to return, failing
// the test if it returned an error.
func (n *node) stop(t *testing.T) {
	t.Helper()
	n.cancel()
	<-n.done
	if n.err != nil {
		t.Errorf("%s: run: %v", n.url, n.err)
		n.err = nil
	}
}

// post sends body to url and returns the response with its body read.
// A non-empty atEpoch is sent as the X-At-Epoch read barrier.
func post(t *testing.T, url, body, atEpoch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if atEpoch != "" {
		req.Header.Set("X-At-Epoch", atEpoch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// write posts a /v1/facts body that must be accepted and returns the
// X-Epoch the node answered with.
func write(t *testing.T, n *node, body string) string {
	t.Helper()
	resp, b := post(t, n.url+"/v1/facts", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s /v1/facts: %d %s", n.url, resp.StatusCode, b)
	}
	epoch := resp.Header.Get("X-Epoch")
	if epoch == "" {
		t.Fatalf("%s /v1/facts: no X-Epoch header", n.url)
	}
	return epoch
}

// answers asks n for query once n has applied atEpoch (none when
// empty), retrying a 425 — the node waited for the epoch and gave up —
// until a deadline, and returns the answer rows.
func answers(t *testing.T, n *node, query, atEpoch string) [][]string {
	t.Helper()
	body := `{"query":"` + query + `"}`
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, b := post(t, n.url+"/v1/query", body, atEpoch)
		switch {
		case resp.StatusCode == http.StatusOK:
			var r struct{ Answers [][]string }
			if err := json.Unmarshal(b, &r); err != nil {
				t.Fatalf("%s /v1/query: %v in %s", n.url, err, b)
			}
			return r.Answers
		case resp.StatusCode != http.StatusTooEarly || time.Now().After(deadline):
			t.Fatalf("%s /v1/query at epoch %s: %d %s", n.url, atEpoch, resp.StatusCode, b)
		}
	}
}

func TestRunRefusesFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	program := filepath.Join(dir, "p.dl")
	if err := os.WriteFile(program, []byte("a(x, y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, program, dataDir, follow string
		promote                        bool
		want                           string // in the error
	}{
		{name: "follow with promote", dataDir: dir, follow: "http://127.0.0.1:1", promote: true, want: "mutually exclusive"},
		{name: "follow without data", follow: "http://127.0.0.1:1", want: "-follow requires -data"},
		{name: "follow with program", program: program, dataDir: dir, follow: "http://127.0.0.1:1", want: "-program cannot be combined"},
		{name: "promote without data", promote: true, want: "-promote requires -data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// An ended context: a combination run wrongly accepts shuts
			// down at once and returns nil instead of hanging.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err = run(ctx, ln, tc.program, tc.dataDir, tc.follow, tc.promote, onesided.Quota{}, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run: %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// TestPrimaryFollowerPromote runs the binary's three roles in turn: a
// primary with -data, a follower of it with its own -data, and, once the
// follower has stopped, a node promoted over the follower's mirror.
func TestPrimaryFollowerPromote(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const query = "t(n0, Y)"

	primary := start(t, t.TempDir(), "", false)
	epoch := write(t, primary, `{"rules":["t(X,Y) :- a(X,Z), t(Z,Y).","t(X,Y) :- b(X,Y)."],`+
		`"facts":[{"pred":"a","args":["n0","n1"]},{"pred":"a","args":["n1","n2"]},`+
		`{"pred":"b","args":["n1","m0"]},{"pred":"b","args":["n2","m1"]}]}`)
	want := answers(t, primary, query, "")
	if len(want) != 2 {
		t.Fatalf("primary answers %v, want two rows", want)
	}

	mirror := t.TempDir()
	follower := start(t, mirror, primary.url, false)
	if got := answers(t, follower, query, epoch); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower at epoch %s answers %v, primary %v", epoch, got, want)
	}
	resp, b := post(t, follower.url+"/v1/facts", `{"facts":[{"pred":"b","args":["n2","m2"]}]}`, "")
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("write to the follower: %d %s, want 421", resp.StatusCode, b)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, primary.url+"/") {
		t.Fatalf("421 Location %q does not name the primary %s", loc, primary.url)
	}

	// Fail over: the follower stops, the primary goes away, and the
	// mirror comes up as a primary of its own.
	follower.stop(t)
	primary.stop(t)
	promoted := start(t, mirror, "", true)
	if got := answers(t, promoted, query, ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted node answers %v, the old primary %v", got, want)
	}
	write(t, promoted, `{"facts":[{"pred":"b","args":["n2","m2"]}]}`)
	if got := answers(t, promoted, query, ""); len(got) != len(want)+1 {
		t.Fatalf("after a write the promoted node answers %v, want %d rows", got, len(want)+1)
	}
	promoted.stop(t)
	leakcheck.Wait(t, baseline)
}
