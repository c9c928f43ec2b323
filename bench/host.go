package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	onesided "repro"
	"repro/internal/replica"
	"repro/internal/server"
)

// host is the system under test: a default-configured engine behind
// internal/server on a loopback listener — what cmd/osrd assembles,
// minus flags. The durable variant adds WithPersistence + SyncAlways,
// the one flush policy this benchmark uses.
type host struct {
	eng    *onesided.Engine
	hs     *http.Server
	base   string
	walDir string
	done   chan error // Serve's return
}

func startHost(durable bool, scratch string) (*host, error) {
	h := &host{done: make(chan error, 1)}
	var opts []onesided.Option
	if durable {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		h.walDir = dir
		opts = append(opts, onesided.WithPersistence(dir), onesided.WithSyncPolicy(onesided.SyncAlways))
	}
	eng, err := onesided.Open(opts...)
	if err != nil {
		return nil, err
	}
	h.eng = eng
	cfg := server.Config{Engine: eng}
	if lg := eng.Log(); lg != nil {
		cfg.Repl = replica.NewSource(lg, eng.DB())
	}
	srv, err := server.New(cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	h.hs = &http.Server{Handler: srv}
	h.base = "http://" + ln.Addr().String()
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for Serve to return, closes the engine
// (flushing the log) and removes the WAL directory.
func (h *host) close() error {
	h.hs.Close()
	<-h.done
	err := h.eng.Close()
	if h.walDir != "" {
		os.RemoveAll(h.walDir)
	}
	return err
}

// conn is one client connection: its own transport capped at a single
// TCP connection, so "2 client connections" means exactly that.
type conn struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends a JSON body and reads the whole response. The returned
// bytes are valid until the next call on this conn.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.c.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(path string, into any) error {
	resp, err := c.c.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// queryResp is the part of /v1/query's response the harness checks.
type queryResp struct {
	Answers  [][]string `json:"answers"`
	Count    int        `json:"count"`
	Strategy string     `json:"strategy"`
}

func queryBody(text string) []byte {
	b, _ := json.Marshal(map[string]string{"query": text}) // strings cannot fail to marshal
	return b
}

// verify checks a decoded response against the oracle.
func (w expect) verify(r *queryResp) error {
	n, sum := digestRows(r.Answers)
	switch {
	case r.Count != n:
		return fmt.Errorf("count field %d but %d rows", r.Count, n)
	case n != w.count:
		return fmt.Errorf("%d rows, oracle says %d", n, w.count)
	case sum != w.sum:
		return fmt.Errorf("row digest %016x, oracle says %016x", sum, w.sum)
	case r.Strategy != w.strategy:
		return fmt.Errorf("strategy %q, expected %q", r.Strategy, w.strategy)
	}
	return nil
}

// queryTiming is what the client clocked on one /v1/query round trip.
type queryTiming struct {
	lat   time.Duration // send to last body byte
	check time.Duration // decoding the body and checking it against the oracle
	bytes int           // length of the body
}

// query runs one /v1/query round trip: latency is send to last body
// byte; decoding and the oracle check happen after that clock stops and
// are clocked on their own, because the time this fixed piece of harness
// work takes per byte says how fast the box is at that moment (see
// quietQuartile).
func (c *conn) query(body []byte, want expect) (t queryTiming, err error) {
	start := time.Now()
	status, resp, err := c.post("/v1/query", body)
	t.lat, t.bytes = time.Since(start), len(resp)
	if err != nil {
		return t, err
	}
	if status != http.StatusOK {
		return t, fmt.Errorf("/v1/query: status %d: %s", status, bytes.TrimSpace(resp))
	}
	start = time.Now()
	var qr queryResp
	if err = json.Unmarshal(resp, &qr); err == nil {
		err = want.verify(&qr)
	}
	t.check = time.Since(start)
	return t, err
}

// factsResp mirrors /v1/facts' acknowledgement.
type factsResp struct {
	Added     int `json:"added"`
	Retracted int `json:"retracted"`
	Missing   int `json:"missing"`
}

func factsBody(facts, retracts []fact, rules []string) []byte {
	b, _ := json.Marshal(struct {
		Facts    []fact   `json:"facts,omitempty"`
		Retracts []fact   `json:"retracts,omitempty"`
		Rules    []string `json:"rules,omitempty"`
	}{facts, retracts, rules})
	return b
}

// write posts one /v1/facts body and checks the acknowledgement counts.
// added < 0 skips the insert-count check (bulk ingest of random graphs
// contains duplicate edges the database rightly drops).
func (c *conn) write(body []byte, added, retracted int) (time.Duration, error) {
	start := time.Now()
	status, resp, err := c.post("/v1/facts", body)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("/v1/facts: status %d: %s", status, bytes.TrimSpace(resp))
	}
	var fr factsResp
	if err := json.Unmarshal(resp, &fr); err != nil {
		return lat, err
	}
	if (added >= 0 && fr.Added != added) || fr.Retracted != retracted || fr.Missing != 0 {
		return lat, fmt.Errorf("/v1/facts acked added=%d retracted=%d missing=%d, expected %d/%d/0",
			fr.Added, fr.Retracted, fr.Missing, added, retracted)
	}
	return lat, nil
}

// subEvent is one NDJSON line of /v1/subscribe.
type subEvent struct {
	Add    [][]string `json:"add"`
	Remove [][]string `json:"remove"`
	Error  string     `json:"error"`
}

// subscribe opens GET /v1/subscribe on its own connection and calls
// onEvent for every event line, from a goroutine that ends when ctx is
// cancelled or the stream closes; the returned channel then yields the
// stream's terminal error (nil after a cancel).
func subscribe(ctx context.Context, base, query string, onEvent func(subEvent, time.Time)) (<-chan error, error) {
	c := newConn(base)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/subscribe?query="+url.QueryEscape(query), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		resp.Body.Close()
		return nil, fmt.Errorf("/v1/subscribe: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	done := make(chan error, 1)
	go func() {
		defer c.close()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			at := time.Now()
			var ev subEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				done <- err
				return
			}
			if ev.Error != "" {
				done <- fmt.Errorf("/v1/subscribe: %s", ev.Error)
				return
			}
			onEvent(ev, at)
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			done <- err
			return
		}
		done <- nil
	}()
	return done, nil
}
