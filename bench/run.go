package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// clients is the number of client connections. Every pass is closed
	// loop: a connection sends its next request only after the previous
	// response was read and checked. Read workloads drive both; on
	// churn_durable one drives the write/re-query cycle and the other
	// holds the subscription.
	clients = 2
	// chunkSize is the number of facts per /v1/facts ingest request.
	chunkSize = 1000
	// window is the length of the slices the timed pass is cut into; see
	// windowed and quietQuartile.
	window = time.Second
)

// tally counts every checked request against the number attempted and
// keeps the first few failures for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

func (t *tally) note(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 5 {
			t.first = append(t.first, what+": "+err.Error())
		}
	}
}

// runner drives one workload instance. Request bodies are marshalled up
// front so set-up and the timed pass spend no harness time on them.
type runner struct {
	inst    *instance
	sz      sizes
	scratch string // directory for WAL and replica state, inside the checkout
	out     string // directory for the trace file

	ingest [][]byte // /v1/facts bodies, chunkSize facts each
	rules  []byte
	bodies [][]byte // /v1/query body per distinct query
	tally  tally
}

func newRunner(inst *instance, sz sizes, scratch string) *runner {
	r := &runner{inst: inst, sz: sz, scratch: scratch}
	for i := 0; i < len(inst.facts); i += chunkSize {
		r.ingest = append(r.ingest, factsBody(inst.facts[i:min(i+chunkSize, len(inst.facts))], nil, nil))
	}
	r.rules = factsBody(nil, nil, inst.rules)
	for _, q := range inst.queries {
		r.bodies = append(r.bodies, queryBody(q.text))
	}
	return r
}

// rig is a set-up system: ingested, rules loaded, warmed.
type rig struct {
	h        *host
	churn    *churnStream // positioned after the warm-up cycles
	next     int          // first op after the warm-up (read workloads)
	setupS   float64      // Open to end of warm-up
	ingestS  float64      // the /v1/facts part of it
	ingested int
}

// limit ends a pass after ops operations or dur of wall time, whichever
// is set.
type limit struct {
	ops int
	dur time.Duration
}

// pass is what one closed-loop pass over HTTP observed.
type pass struct {
	ops       int             // queries (read workloads) or cycles (churn) completed correctly
	done      []time.Duration // completion offsets of those, for the throughput windows
	queries   []queryTiming   // the query of each, in the order of done
	writeLat  []time.Duration
	subLat    []time.Duration
	respBytes int64
	subEvents int
	subRows   int
}

// setup builds the system the way a user would: Open, ingest through
// /v1/facts in chunks, load the rules, then run the first warm-up ops of
// the stream so plan caches, indexes and (where it fits) the result
// cache are in steady state before anything is timed.
func (r *runner) setup() (*rig, error) {
	start := time.Now()
	h, err := startHost(r.inst.durable, r.scratch)
	if err != nil {
		return nil, err
	}
	g := &rig{h: h, ingested: len(r.inst.facts)}
	cn := newConn(h.base)
	defer cn.close()
	ingestStart := time.Now()
	for i, body := range r.ingest {
		if _, err := cn.write(body, -1, 0); err != nil {
			h.close()
			return nil, fmt.Errorf("ingest chunk %d: %w", i, err)
		}
	}
	g.ingestS = time.Since(ingestStart).Seconds()
	if _, err := cn.write(r.rules, 0, 0); err != nil {
		h.close()
		return nil, fmt.Errorf("load rules: %w", err)
	}
	warm := limit{ops: r.sz.warmup}
	if r.inst.newChurn != nil {
		g.churn = r.inst.newChurn()
		r.runChurn(h, g.churn, warm, false)
	} else {
		r.runReads(h, 0, clients, warm)
		g.next = r.sz.warmup
	}
	g.setupS = time.Since(start).Seconds()
	return g, nil
}

// runReads drives conns closed-loop connections over the op list
// starting at op first.
func (r *runner) runReads(h *host, first, conns int, lim limit) *pass {
	var next atomic.Int64
	next.Store(int64(first))
	stopAt := int64(first + lim.ops)
	start := time.Now()
	parts := make([]pass, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(p *pass) {
			defer wg.Done()
			cn := newConn(h.base)
			defer cn.close()
			for {
				if lim.dur > 0 && time.Since(start) >= lim.dur {
					return
				}
				i := next.Add(1) - 1
				if lim.ops > 0 && i >= stopAt {
					return
				}
				qi := r.inst.order[int(i)%len(r.inst.order)]
				q := &r.inst.queries[qi]
				t, err := cn.query(r.bodies[qi], q.want)
				r.tally.note(q.text, err)
				if err != nil {
					continue
				}
				p.ops++
				p.done = append(p.done, time.Since(start))
				p.queries = append(p.queries, t)
				p.respBytes += int64(t.bytes)
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &pass{}
	for i := range parts {
		out.ops += parts[i].ops
		out.done = append(out.done, parts[i].done...)
		out.queries = append(out.queries, parts[i].queries...)
		out.respBytes += parts[i].respBytes
	}
	return out
}

// subscriber folds a /v1/subscribe stream into the current answer set
// and timestamps the arrival of each cycle's marker row.
type subscriber struct {
	mu      sync.Mutex
	rows    map[string]struct{}
	arrived map[string]time.Time // marker exit name -> first seen
	events  int
	nrows   int
	seen    chan struct{} // poked after every event
}

func (s *subscriber) onEvent(ev subEvent, at time.Time) {
	s.mu.Lock()
	for _, row := range ev.Remove {
		delete(s.rows, strings.Join(row, "\x1f"))
	}
	for _, row := range ev.Add {
		s.rows[strings.Join(row, "\x1f")] = struct{}{}
		if len(row) == 2 && strings.HasPrefix(row[1], "m") {
			if _, dup := s.arrived[row[1]]; !dup {
				s.arrived[row[1]] = at
			}
		}
	}
	s.events++
	s.nrows += len(ev.Add) + len(ev.Remove)
	s.mu.Unlock()
	select {
	case s.seen <- struct{}{}:
	default:
	}
}

// differs reports how the folded answer set departs from want, or nil.
func (s *subscriber) differs(want map[string]struct{}) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(want) != len(s.rows) {
		return fmt.Errorf("folded state of %d rows where the model has %d", len(s.rows), len(want))
	}
	for k := range want {
		if _, ok := s.rows[k]; !ok {
			return fmt.Errorf("folded state without row %q", strings.ReplaceAll(k, "\x1f", ","))
		}
	}
	return nil
}

// runChurn drives write + re-query cycles from one connection; with
// withSub a second connection holds GET /v1/subscribe on the stream's
// subscribed query for the length of the pass, and at the end its folded
// state must equal the model's answer.
func (r *runner) runChurn(h *host, cs *churnStream, lim limit, withSub bool) *pass {
	p := &pass{}
	cn := newConn(h.base)
	defer cn.close()
	var sub *subscriber
	var subDone <-chan error
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if withSub {
		sub = &subscriber{rows: map[string]struct{}{}, arrived: map[string]time.Time{}, seen: make(chan struct{}, 1)}
		var err error
		subDone, err = subscribe(ctx, h.base, cs.subscribed().text, sub.onEvent)
		r.tally.note("subscribe", err)
		if err != nil {
			return p
		}
		select {
		case <-sub.seen: // the initial snapshot
		case err := <-subDone:
			r.tally.note("subscription stream", fmt.Errorf("ended before its snapshot: %v", err))
			return p
		}
	}
	sent := map[string]time.Time{}
	start := time.Now()
	for i := 0; ; i++ {
		if (lim.dur > 0 && time.Since(start) >= lim.dur) || (lim.ops > 0 && i >= lim.ops) {
			break
		}
		cy := cs.next()
		body := factsBody(cy.inserts, cy.retracts, nil)
		q := &r.inst.queries[cy.query]
		sent[cy.marker] = time.Now()
		wlat, werr := cn.write(body, len(cy.inserts), len(cy.retracts))
		r.tally.note(fmt.Sprintf("cycle %d write", cy.id), werr)
		qt, qerr := cn.query(r.bodies[cy.query], cy.want)
		r.tally.note(fmt.Sprintf("cycle %d %s", cy.id, q.text), qerr)
		if werr != nil || qerr != nil {
			continue
		}
		p.ops++
		p.done = append(p.done, time.Since(start))
		p.writeLat = append(p.writeLat, wlat)
		p.queries = append(p.queries, qt)
		p.respBytes += int64(qt.bytes)
	}
	if !withSub {
		return p
	}
	// A write reaches the subscriber as up to two events (its inserts, then
	// its retractions), so catching up means the folded state equals the
	// model's answer, not merely that the last marker arrived.
	want := map[string]struct{}{}
	for _, row := range cs.subscribed().rows() {
		want[strings.Join(row, "\x1f")] = struct{}{}
	}
	var foldErr error
	ended := false
	timeout := time.After(10 * time.Second)
	for foldErr = sub.differs(want); foldErr != nil; foldErr = sub.differs(want) {
		select {
		case <-sub.seen:
			continue
		case err := <-subDone:
			ended = true
			foldErr = fmt.Errorf("stream ended early (%v) with %w", err, foldErr)
		case <-timeout:
			foldErr = fmt.Errorf("after 10s still %w", foldErr)
		}
		break
	}
	cancel()
	if !ended {
		<-subDone
	}
	// The client side is gone; wait for the server side too, so the pump's
	// re-derivations cannot overlap (and be counted into) whatever runs
	// next on this engine.
	for deadline := time.Now().Add(5 * time.Second); h.eng.Subscriptions() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	r.tally.note("subscriber fold", foldErr)
	for marker, at := range sub.arrived {
		if t0, ok := sent[marker]; ok {
			p.subLat = append(p.subLat, at.Sub(t0))
		}
	}
	p.subEvents, p.subRows = sub.events, sub.nrows
	return p
}

// timed runs the workload's closed-loop pass for dur.
func (r *runner) timed(g *rig, dur time.Duration) *pass {
	if g.churn != nil {
		return r.runChurn(g.h, g.churn, limit{dur: dur}, true)
	}
	return r.runReads(g.h, g.next, clients, limit{dur: dur})
}

// windows is the timed pass cut into slices of about one second.
type windows struct {
	rates   []float64 // queries per second; 0 where nothing completed
	medians []float64 // median latency in ns, of the windows where something did
	checkNs []float64 // ns the oracle check took per body byte, same windows
}

// windowed cuts the pass into windows. Each window's rate is measured
// from the last completion before it to the last completion inside it,
// so it is not quantised to whole requests.
func windowed(done []time.Duration, queries []queryTiming, total time.Duration) windows {
	n := max(1, int(total/window))
	w := total / time.Duration(n)
	idx := make([]int, len(done))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return done[idx[a]] < done[idx[b]] })
	var ws windows
	prev, i := time.Duration(0), 0
	for k := 1; k <= n; k++ {
		last := prev
		var lats []time.Duration
		var check time.Duration
		var size int
		for ; i < len(idx) && done[idx[i]] < time.Duration(k)*w; i++ {
			q := queries[idx[i]]
			last = done[idx[i]]
			lats = append(lats, q.lat)
			check += q.check
			size += q.bytes
		}
		if len(lats) == 0 {
			ws.rates = append(ws.rates, 0)
			continue
		}
		ws.rates = append(ws.rates, float64(len(lats))/(last-prev).Seconds())
		ws.medians = append(ws.medians, float64(medianDur(lats)))
		ws.checkNs = append(ws.checkNs, float64(check.Nanoseconds())/float64(max(size, 1)))
		prev = last
	}
	return ws
}

// checkNsPerByte is what decoding and checking a response body cost per
// byte on the box the benchmark was calibrated on (README, "Latest
// numbers"): the median over seeds 11-20 of the quiet quartile. It is
// per workload because bodies differ in how many rows share one
// response's fixed costs.
var checkNsPerByte = map[string]float64{
	"wide_cold":     28.7,
	"deep_cold":     43.2,
	"hot_mixed":     22.6,
	"churn_durable": 36.6,
}

// timings is what a timed pass reports.
type timings struct {
	qps, p50ms       float64 // as clocked, in the quiet quarter of the pass
	checkNs          float64 // ns per checked byte there
	slowdown         float64 // checkNs over checkNsPerByte: above 1, the box was slower than at calibration
	qpsAdj, p50AdjMs float64 // qps and p50ms at the calibration box's speed
}

// quietQuartile reduces the windows to the timings a run reports.
//
// First, the quiet quarter: the third quartile of the windows' rates and
// the first quartile of their median latencies. This box shares its
// caches and cores with other guests, whose bursts only ever slow a
// window down and last from a second to most of a pass; the median
// window follows them as soon as half the pass is hit, the quartile not
// until three quarters are.
//
// Second, the box's speed. Between bursts the box still moves between
// levels 20-30 % apart that last minutes, longer than a run, so runs of
// the same code disagree by that much whatever is done inside one. But
// every response is decoded and checked by the client right where it
// arrived, the same harness code on the same bytes whatever the program
// under test does, and what that costs per byte rises and falls with the
// box (r = 0.95 with the latency of the run it sits in). So the run
// reports its two timings scaled to the speed at which that check costs
// checkNsPerByte: what the program would have shown on the calibration
// box, not what the neighbours left of this one.
func quietQuartile(workload string, ws windows) timings {
	t := timings{
		qps:     quantile(ws.rates, 0.75),
		p50ms:   quantile(ws.medians, 0.25) / 1e6,
		checkNs: quantile(ws.checkNs, 0.25),
	}
	t.slowdown = t.checkNs / checkNsPerByte[workload]
	t.qpsAdj, t.p50AdjMs = t.qps*t.slowdown, t.p50ms/t.slowdown
	return t
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// scratchDir makes this run's directory for WAL and replica state under
// base and returns a remover.
func scratchDir(base string) (string, func(), error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
