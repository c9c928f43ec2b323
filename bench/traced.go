package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	onesided "repro"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/replica"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The traced run produces the per-layer metrics. It never instruments
// the program: it runs a fixed list of ops sequentially, dealing them
// round-robin to three ways of executing an op — over HTTP, in process
// through the same public calls the /v1/query and /v1/facts handlers
// make, and in process with a span around every such call — and then
// times each layer's entry points on the workload's own data. Sequential
// execution is what makes the counts repeat exactly for a seed; dealing
// op by op is what keeps the machine's drift (and whatever the first
// pass after set-up pays) out of the differences between the three.

// opMode is how the traced run executes one op.
type opMode int

const (
	viaHTTP opMode = iota // POST /v1/query on one connection, tracing off
	bare                  // in process, only the op's total time taken
	spanned               // in process, a span around every call
)

// opRecord is what the harness learned about one op of the traced run.
type opRecord struct {
	how      opMode
	class    string
	root     time.Duration // the whole op: HTTP latency, or the in-process calls end to end
	bytes    int           // HTTP response size
	cache    string        // in process: result-cache outcome (hit, updated, rebuilt or "")
	strategy string
	query    time.Duration // PreparedQuery.Query
	stats    onesided.EvalStats
	counters onesided.Counters
	answers  int
	mallocs  uint64 // bare ops: heap objects and bytes allocated
	malloced uint64
}

// handlerResponse is /v1/query's response body, rebuilt by the harness
// so the json.Marshal span costs what the handler's encode costs.
type handlerResponse struct {
	Answers   [][]string `json:"answers"`
	Count     int        `json:"count"`
	Strategy  string     `json:"strategy,omitempty"`
	Explain   string     `json:"explain,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// step runs fn inside a span when tracing is on.
func (t *tracer) step(name string, op, parent int, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(name, op, parent)
	fn()
	t.end(i)
}

// queryInProcess answers one query the way handleQuery does, checks it,
// and reports what it cost. parent is the enclosing span (-1 for none).
func (r *runner) queryInProcess(t *tracer, eng *onesided.Engine, op, parent int, q *queryOp, want expect) (opRecord, error) {
	rec := opRecord{class: q.class}
	var atom onesided.Atom
	var pq *onesided.PreparedQuery
	var rows *onesided.Rows
	var err error
	t.step("parser.ParseAtom", op, parent, func() { atom, err = parser.ParseAtom(q.text) })
	if err != nil {
		return rec, err
	}
	t.step("engine.Prepare", op, parent, func() { pq, err = eng.Prepare(nil, atom) })
	if err != nil {
		return rec, err
	}
	// The handler evaluates under the request's cancellable context with
	// the tenant's gas attached; so does this, because the evaluator pays
	// for every cancellation check it makes against such a context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = onesided.WithGas(ctx, 0)
	start := time.Now()
	t.step("engine.Query", op, parent, func() { rows, err = pq.Query(ctx) })
	rec.query = time.Since(start)
	if err != nil {
		return rec, err
	}
	ex := rows.Explain()
	resp := handlerResponse{Answers: make([][]string, 0, rows.Len()), Strategy: ex.Strategy, Explain: ex.String()}
	t.step("engine.Rows.Sorted", op, parent, func() {
		for row := range rows.Sorted() {
			resp.Answers = append(resp.Answers, row.Strings())
		}
	})
	resp.Count = len(resp.Answers)
	t.step("json.Marshal", op, parent, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return rec, err
	}
	rec.cache, rec.strategy = ex.ResultCache, ex.Strategy
	rec.stats, rec.counters, rec.answers = rows.Stats(), rows.Counters(), resp.Count
	return rec, want.verify(&queryResp{Answers: resp.Answers, Count: resp.Count, Strategy: resp.Strategy})
}

func toEngineFacts(fs []fact) []onesided.Fact {
	out := make([]onesided.Fact, len(fs))
	for i, f := range fs {
		out[i] = onesided.Fact{Pred: f.Pred, Args: f.Args}
	}
	return out
}

// heapAllocs reads the process's cumulative heap allocations (what
// MemStats.Mallocs and TotalAlloc count, and -benchmem reports) without
// stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// mixedPass runs n ops sequentially, op i the modes[i % len(modes)] way:
// queries order[first..first+n) for a read workload, the stream's next n
// cycles for churn (in process only — churn's HTTP pass needs the
// subscriber and runs on its own).
func (r *runner) mixedPass(tr *tracer, g *rig, cn *conn, first, n int, modes []opMode) []opRecord {
	recs := make([]opRecord, 0, n)
	eng := g.h.eng
	for i := 0; i < n; i++ {
		op, how := first+i, modes[i%len(modes)]
		if how == viaHTTP {
			qi := r.inst.order[op%len(r.inst.order)]
			q := &r.inst.queries[qi]
			qt, err := cn.query(r.bodies[qi], q.want)
			r.tally.note(q.text, err)
			if err == nil {
				recs = append(recs, opRecord{how: how, class: q.class, root: qt.lat, bytes: qt.bytes})
			}
			continue
		}
		var t *tracer
		if how == spanned {
			t = tr
		}
		objs, bytes := heapAllocs()
		start := time.Now()
		root := -1
		if t != nil {
			root = t.begin("op", op, -1)
		}
		var rec opRecord
		var err error
		if g.churn != nil {
			cy := g.churn.next()
			var added, removed int
			t.step("engine.InsertFacts", op, root, func() { added, err = eng.InsertFacts(toEngineFacts(cy.inserts)) })
			if err == nil {
				t.step("engine.RetractFacts", op, root, func() { removed, err = eng.RetractFacts(toEngineFacts(cy.retracts)) })
			}
			if err == nil && (added != len(cy.inserts) || removed != len(cy.retracts)) {
				err = fmt.Errorf("applied %d inserts and %d retracts of %d and %d", added, removed, len(cy.inserts), len(cy.retracts))
			}
			r.tally.note(fmt.Sprintf("in-process cycle %d write", cy.id), err)
			rec, err = r.queryInProcess(t, eng, op, root, &r.inst.queries[cy.query], cy.want)
		} else {
			q := &r.inst.queries[r.inst.order[op%len(r.inst.order)]]
			rec, err = r.queryInProcess(t, eng, op, root, q, q.want)
		}
		if t != nil {
			t.end(root)
		}
		rec.root, rec.how = time.Since(start), how
		objsAfter, bytesAfter := heapAllocs()
		rec.mallocs, rec.malloced = objsAfter-objs, bytesAfter-bytes
		r.tally.note(fmt.Sprintf("in-process op %d", op), err)
		if err == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// layerPut records a per-layer metric under the unit the contract table
// gives it; a name the table lacks is a bug in the harness.
func layerPut(m map[string]metric, name string, v float64) {
	for _, lm := range perLayerMetrics {
		if lm.name == name {
			m[name] = metric{v, lm.unit}
			return
		}
	}
	panic("osrbench: per-layer metric " + name + " is not in perLayerMetrics")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced sets the system up once and fills res.Metrics with every
// per-layer metric.
func (r *runner) traced(res *result, genS float64) error {
	g, err := r.setup()
	if err != nil {
		return err
	}
	defer g.h.close()
	m := res.Metrics
	eng := g.h.eng
	n := r.inst.tracedOps
	put := func(name string, v float64) { layerPut(m, name, v) }

	// --- the op list, n ops each way. Churn's HTTP cycles run first, with
	// the subscriber connected; its in-process cycles follow without it,
	// so their counters are exact.
	cacheBefore := eng.CacheStats()
	var walBefore wal.CommitStats
	t := newTracer()
	var recs []opRecord
	var httpOp, writeLat, subLat []time.Duration
	var respBytes int64
	var subEvents, subRows int
	if g.churn != nil {
		p := r.runChurn(g.h, g.churn, limit{ops: n}, true)
		for i, q := range p.queries {
			httpOp = append(httpOp, q.lat+p.writeLat[i])
		}
		writeLat, subLat, respBytes, subEvents, subRows = p.writeLat, p.subLat, p.respBytes, p.subEvents, p.subRows
		cacheBefore, walBefore = eng.CacheStats(), eng.Log().CommitStats()
		recs = r.mixedPass(t, g, nil, g.next, 2*n, []opMode{bare, spanned})
	} else {
		cn := newConn(g.h.base)
		// Each in-process mode follows an HTTP op as often as it follows
		// the other one: what ran just before a 10 us op decides how warm
		// its caches are.
		recs = r.mixedPass(t, g, cn, g.next, 3*n, []opMode{viaHTTP, bare, spanned, viaHTTP, spanned, bare})
		cn.close()
		g.next += 3 * n
	}
	cacheAfter := eng.CacheStats()
	var inProcess []opRecord
	var mallocs, malloced, bareOps float64
	for _, rec := range recs {
		switch rec.how {
		case viaHTTP:
			httpOp = append(httpOp, rec.root)
			respBytes += int64(rec.bytes)
			continue
		case bare:
			mallocs += float64(rec.mallocs)
			malloced += float64(rec.malloced)
			bareOps++
		}
		inProcess = append(inProcess, rec)
	}
	if len(inProcess) == 0 || len(httpOp) == 0 {
		return fmt.Errorf("%s: no traced op completed correctly; first failures: %v", r.inst.name, r.tally.first)
	}
	sorted := append([]time.Duration(nil), httpOp...)
	sortDurations(sorted)
	tail, pct := tailQuantile(sorted)
	put("server.query_tail_ms", ms(tail))
	put("server.query_tail_percentile", pct*100)
	put("server.response_bytes_per_query", ratio(float64(respBytes), float64(len(httpOp))))
	put("server.ingest_facts_per_s", ratio(float64(g.ingested), g.ingestS))
	put("server.write_p50_ms", ms(medianDur(writeLat)))
	put("engine.sub_event_p50_ms", ms(medianDur(subLat)))
	put("engine.sub_events", float64(subEvents))
	put("engine.sub_rows_per_event", ratio(float64(subRows), float64(subEvents)))
	put("engine.allocs_per_query", ratio(mallocs, bareOps))
	put("engine.bytes_per_query", ratio(malloced, bareOps))
	var st struct {
		Saturated    int64 `json:"saturated"`
		GasExhausted int64 `json:"gas_exhausted"`
		Timeouts     int64 `json:"timeouts"`
	}
	cn := newConn(g.h.base)
	err = cn.get("/v1/stats", &st)
	cn.close()
	r.tally.note("GET /v1/stats", err)
	put("server.saturated", float64(st.Saturated))
	put("server.governed", float64(st.GasExhausted+st.Timeouts))
	if lg := eng.Log(); lg != nil {
		w := lg.CommitStats()
		// One cycle is one write: an insert batch and a retract batch.
		put("wal.fsyncs_per_write", ratio(float64(w.Fsyncs-walBefore.Fsyncs), float64(len(inProcess))))
		put("wal.records_per_fsync", ratio(float64(w.Records-walBefore.Records), float64(w.Fsyncs-walBefore.Fsyncs)))
	} else {
		put("wal.fsyncs_per_write", 0)
		put("wal.records_per_fsync", 0)
	}
	if err := writeChromeTrace(filepath.Join(r.out, r.inst.name+".trace.json"), t.spans); err != nil {
		return err
	}
	r.layerFromRecords(m, inProcess, httpOp)
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	put("engine.plan_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rc, rb := cacheAfter.Results, cacheBefore.Results
	consulted := float64(rc.Hits - rb.Hits + rc.Updated - rb.Updated + rc.Rebuilt - rb.Rebuilt)
	put("engine.result_hit_share", ratio(float64(rc.Hits-rb.Hits), consulted))
	put("engine.result_updated_share", ratio(float64(rc.Updated-rb.Updated), consulted))
	put("engine.result_rebuilt_share", ratio(float64(rc.Rebuilt-rb.Rebuilt), consulted))

	// --- layer entry points on the workload's own data. These disturb the
	// engine's counters and caches, so they come last.
	rng := rngFor(res.Seed, 9)
	r.microParser(m)
	if err := r.microEngine(m, eng, rng); err != nil {
		return err
	}
	if err := r.microEval(m, g); err != nil {
		return err
	}
	r.microStorage(m, eng, rng)
	if err := r.microWAL(m, eng); err != nil {
		return err
	}
	if err := r.microReplica(m, g.h); err != nil {
		return err
	}
	put("harness.gen_s", genS)
	put("harness.ops_timed", float64(len(httpOp)))
	put("harness.ops_traced", float64(len(inProcess)))
	return nil
}

// layerFromRecords derives the eval, storage and overhead metrics from
// the per-op records of the in-process pass.
func (r *runner) layerFromRecords(m map[string]metric, recs []opRecord, httpOp []time.Duration) {
	put := func(name string, v float64) { layerPut(m, name, v) }
	var evalTime time.Duration
	var cold, hit []time.Duration
	updates := map[string][]time.Duration{}
	var levels, contexts, gprobes, batches, evalAnswers, evaluated float64
	var lookups, examined, fullscans, answers float64
	var bf, bfRebuilt float64
	for _, rec := range recs {
		// The paper's cost model (Property 3: restricted lookups, no full
		// scans) is a claim about one-sided plans, and only their counts
		// repeat exactly: Magic Sets plans run semi-naive rounds in parallel
		// and examine a different number of tuples each time.
		if rec.strategy == stratOneSided {
			answers += float64(rec.answers)
			lookups += float64(rec.counters.IndexLookups)
			examined += float64(rec.counters.TuplesExamined)
			fullscans += float64(rec.counters.FullScans)
		}
		if rec.class == "t/bf" {
			bf++
		}
		switch rec.cache {
		case "hit":
			hit = append(hit, rec.query)
		case "updated":
			updates[rec.class] = append(updates[rec.class], rec.query)
		default: // rebuilt, or evaluated outside the result cache
			if rec.class == "t/bf" {
				bfRebuilt++
			}
			cold = append(cold, rec.query)
			if rec.strategy != stratOneSided {
				continue // levels, contexts and g-probes are Fig. 9 notions
			}
			evalTime += rec.query
			evaluated++
			levels += float64(rec.stats.Iterations)
			contexts += float64(rec.stats.SeenSize)
			gprobes += float64(rec.stats.GProbes)
			batches += float64(rec.stats.Batches)
			evalAnswers += float64(rec.answers)
		}
	}
	// Evaluator numbers cover the ops that actually evaluated (a result-
	// cache rebuild) — a pass of pure cache hits reports zeros — and the
	// Fig. 9 counts average over the one-sided ones among them.
	put("eval.query_ms", ms(medianDur(cold)))
	put("eval.levels", ratio(levels, evaluated))
	put("eval.contexts", ratio(contexts, evaluated))
	put("eval.gprobes", ratio(gprobes, evaluated))
	put("eval.batches", ratio(batches, evaluated))
	put("eval.answers", ratio(evalAnswers, evaluated))
	put("eval.us_per_level", ratio(us(evalTime), levels))
	put("eval.ns_per_context", ratio(float64(evalTime.Nanoseconds()), contexts))
	put("eval.update_bf_us", us(medianDur(updates["t/bf"])))
	put("eval.update_fb_us", us(medianDur(updates["t/fb"])))
	put("eval.update_sg_us", us(medianDur(updates["sg/bf"])))
	put("eval.rebuild_bf_share", ratio(bfRebuilt, bf))
	put("engine.query_hit_us", us(medianDur(hit)))
	put("storage.lookups_per_answer", ratio(lookups, answers))
	put("storage.examined_per_answer", ratio(examined, answers))
	put("storage.fullscans", fullscans)
	// server.overhead_us is the server layer's self time: what an op costs
	// over HTTP beyond the calls the handler makes into the engine — the
	// median HTTP op minus the median bare op, which ran interleaved.
	var bareRoots, tracedRoots []time.Duration
	for _, rec := range recs {
		if rec.how == spanned {
			tracedRoots = append(tracedRoots, rec.root)
		} else {
			bareRoots = append(bareRoots, rec.root)
		}
	}
	put("server.overhead_us", us(medianDur(httpOp)-medianDur(bareRoots)))
	put("harness.trace_overhead_pct", 100*ratio(float64(medianDur(tracedRoots)-medianDur(bareRoots)), float64(medianDur(bareRoots))))
}

// perOp times fn over reps calls and returns nanoseconds per call.
func perOp(reps int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

func (r *runner) microParser(m map[string]metric) {
	qs := r.inst.queries
	layerPut(m, "parser.query_parse_ns", perOp(20000, func(i int) { parser.ParseAtom(qs[i%len(qs)].text) }))
	facts := r.inst.facts[:min(len(r.inst.facts), 50000)]
	var src strings.Builder
	for _, f := range facts {
		src.WriteString(f.Pred + "(" + strings.Join(f.Args, ", ") + ").\n")
	}
	start := time.Now()
	_, err := parser.Parse(src.String())
	r.tally.note("parser.Parse over the dataset", err)
	layerPut(m, "parser.facts_per_s", ratio(float64(len(facts)), time.Since(start).Seconds()))
}

// shapeQueries returns one query per distinct shape of the workload.
func (r *runner) shapeQueries() []*queryOp {
	seen := map[string]bool{}
	var out []*queryOp
	for i := range r.inst.queries {
		if q := &r.inst.queries[i]; !seen[q.class] {
			seen[q.class] = true
			out = append(out, q)
		}
	}
	return out
}

func (r *runner) microEngine(m map[string]metric, eng *onesided.Engine, rng *rand.Rand) error {
	prog := eng.Program()
	// rewrite: the Theorem 3.4 decision per recursive definition.
	var decide []time.Duration
	for _, pred := range rewrite.SortedPreds(prog) {
		def, err := ast.ExtractDefinition(prog, pred)
		if err != nil {
			continue // not a one-recursive-rule definition (none here)
		}
		for i := 0; i < 20; i++ {
			start := time.Now()
			if _, err := rewrite.DecideOneSided(def); err != nil {
				return fmt.Errorf("DecideOneSided(%s): %w", pred, err)
			}
			decide = append(decide, time.Since(start))
		}
	}
	layerPut(m, "rewrite.decide_us", us(medianDur(decide)))

	// engine: a cold plan (explicit program, so nothing is cached), a
	// plan-cache hit, and a rebind of an existing plan.
	var coldPlans []time.Duration
	shapes := r.shapeQueries()
	atoms := make([]onesided.Atom, len(shapes))
	for i, q := range shapes {
		a, err := parser.ParseAtom(q.text)
		if err != nil {
			return err
		}
		atoms[i] = a
		for k := 0; k < 10; k++ {
			start := time.Now()
			if _, err := eng.Prepare(prog, a); err != nil {
				return fmt.Errorf("cold Prepare(%s): %w", q.text, err)
			}
			coldPlans = append(coldPlans, time.Since(start))
		}
	}
	layerPut(m, "engine.prepare_cold_us", us(medianDur(coldPlans)))
	layerPut(m, "engine.prepare_hit_ns", perOp(20000, func(i int) { eng.Prepare(nil, atoms[i%len(atoms)]) }))
	pqs := make([]*onesided.PreparedQuery, len(atoms))
	for i, a := range atoms {
		pq, err := eng.Prepare(nil, a)
		if err != nil {
			return err
		}
		pqs[i] = pq
	}
	layerPut(m, "engine.bind_ns", perOp(20000, func(i int) { pqs[i%len(pqs)].BindAtom(atoms[i%len(atoms)]) }))

	// engine write path without a log: InsertFacts/RetractFacts into a
	// scratch default engine, in ingest-sized chunks.
	scratch, err := onesided.Open()
	if err != nil {
		return err
	}
	defer scratch.Close()
	facts := toEngineFacts(r.inst.facts[:min(len(r.inst.facts), 50000)])
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	added, removed := 0, 0
	start := time.Now()
	for i := 0; i < len(facts); i += chunkSize {
		k, err := scratch.InsertFacts(facts[i:min(i+chunkSize, len(facts))])
		if err != nil {
			return err
		}
		added += k
	}
	insertT := time.Since(start)
	start = time.Now()
	for i := 0; i < len(facts); i += chunkSize {
		k, err := scratch.RetractFacts(facts[i:min(i+chunkSize, len(facts))])
		if err != nil {
			return err
		}
		removed += k
	}
	retractT := time.Since(start)
	var undone error
	if removed != added || scratch.DB().TupleCount() != 0 {
		undone = fmt.Errorf("inserted %d, retracted %d, %d left", added, removed, scratch.DB().TupleCount())
	}
	r.tally.note("engine insert/retract round trip", undone)
	layerPut(m, "engine.insert_ns_per_fact", ratio(float64(insertT.Nanoseconds()), float64(len(facts))))
	layerPut(m, "engine.retract_ns_per_fact", ratio(float64(retractT.Nanoseconds()), float64(len(facts))))
	return nil
}

// microEval times the evaluator's other entry points on ops the passes
// have not touched: PreparedQuery.Stream, and QueryBatch of 16 against
// 16 single queries.
func (r *runner) microEval(m map[string]metric, g *rig) error {
	eng := g.h.eng
	const k = 16
	at := g.next
	pick := func(i int) *queryOp {
		if g.churn != nil {
			return &r.inst.queries[i%len(r.inst.queries)]
		}
		return &r.inst.queries[r.inst.order[i%len(r.inst.order)]]
	}
	var first, total []time.Duration
	for i := 0; i < k; i++ {
		q := pick(at + i)
		a, err := parser.ParseAtom(q.text)
		if err != nil {
			return err
		}
		pq, err := eng.Prepare(nil, a)
		if err != nil {
			return err
		}
		start := time.Now()
		rows := pq.Stream(context.Background())
		var firstRow time.Duration
		for range rows.All() {
			if firstRow == 0 {
				firstRow = time.Since(start)
			}
		}
		err = rows.Err()
		total = append(total, time.Since(start))
		if firstRow > 0 {
			first = append(first, firstRow)
		}
		r.tally.note("stream "+q.text, err)
	}
	layerPut(m, "eval.stream_first_row_ms", ms(medianDur(first)))
	layerPut(m, "eval.stream_total_ms", ms(medianDur(total)))

	texts := make([]string, k)
	for i := range texts {
		texts[i] = pick(at + k + i).text
	}
	start := time.Now()
	batch, err := eng.QueryBatch(context.Background(), texts)
	batchT := time.Since(start)
	r.tally.note("QueryBatch", err)
	if err == nil && g.churn == nil {
		// Batch answers are checked too (churn's standing answers moved on
		// since they were generated; the passes already checked those).
		for i, rows := range batch {
			q := pick(at + k + i)
			var got [][]string
			for row := range rows.All() {
				got = append(got, row.Strings())
			}
			cnt, sum := digestRows(got)
			var berr error
			if cnt != q.want.count || sum != q.want.sum {
				berr = fmt.Errorf("%d rows digest %016x, oracle says %d and %016x", cnt, sum, q.want.count, q.want.sum)
			}
			r.tally.note("batch "+q.text, berr)
		}
	}
	start = time.Now()
	for i := 0; i < k; i++ {
		if _, err := eng.Query(context.Background(), pick(at+2*k+i).text); err != nil {
			return err
		}
	}
	singlesT := time.Since(start)
	layerPut(m, "eval.batch16_ms", ms(batchT))
	layerPut(m, "eval.batch16_speedup", ratio(float64(singlesT), float64(batchT)))
	return nil
}

// microStorage times the storage primitives on a scratch relation fed
// the workload's own largest binary relation, and probes that relation
// itself with sampled keys.
func (r *runner) microStorage(m map[string]metric, eng *onesided.Engine, rng *rand.Rand) {
	db := eng.DB()
	var rel *storage.Relation
	for _, pred := range db.Preds() {
		if c := db.Relation(pred); c.Arity() == 2 && (rel == nil || c.Len() > rel.Len()) {
			rel = c
		}
	}
	tuples := rel.Tuples()
	if len(tuples) > 100000 {
		tuples = tuples[:100000]
	}
	buf := make(storage.Tuple, 2)
	bind := make([]storage.Binding, 1)
	layerPut(m, "storage.lookup_ns", perOp(50000, func(int) {
		bind[0] = storage.Binding{Col: 0, Val: tuples[rng.Intn(len(tuples))][0]}
		rel.LookupBuf(bind, buf, func(storage.Tuple) bool { return true })
	}))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	scratch := storage.NewShardedRelation(2, nil, db.Shards())
	layerPut(m, "storage.insert_ns", perOp(len(tuples), func(i int) { scratch.Insert(tuples[i]) }))
	runtime.GC()
	runtime.ReadMemStats(&after)
	layerPut(m, "storage.bytes_per_tuple", ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(scratch.Len())))
	layerPut(m, "storage.offer_dup_ns", perOp(len(tuples), func(i int) { scratch.Offer(tuples[i]) }))
	layerPut(m, "storage.retract_ns", perOp(len(tuples), func(i int) { scratch.Retract(tuples[i]) }))
	var left error
	if scratch.Len() != 0 {
		left = fmt.Errorf("%d tuples left after retracting every insert", scratch.Len())
	}
	r.tally.note("storage insert/retract round trip", left)

	names := db.Syms.Names()
	if len(names) > 100000 {
		names = names[:100000]
	}
	syms := storage.NewSymbolTable()
	layerPut(m, "storage.intern_ns", perOp(len(names), func(i int) { syms.Intern(names[i]) }))
}

// microWAL drives a standalone log in SyncAlways: group-committed
// batches of the workload's own tuples, then a checkpoint of the
// workload's database and a recovery of it from disk alone.
func (r *runner) microWAL(m map[string]metric, eng *onesided.Engine) error {
	dir, err := os.MkdirTemp(r.scratch, "walmicro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(dir, wal.SyncAlways, wal.Replay{})
	if err != nil {
		return err
	}
	facts := r.inst.facts[:min(len(r.inst.facts), 6400)]
	side := storage.NewDatabase()
	side.SetJournal(lg) // symbols reach the log through the intern hook, ahead of the tuples below
	tuples := make([]storage.Tuple, len(facts))
	for i, f := range facts {
		tuples[i] = make(storage.Tuple, len(f.Args))
		side.Syms.InternBatch(f.Args, tuples[i])
	}
	sizeBefore, err := segmentBytes(lg)
	if err != nil {
		return err
	}
	const batch = churnInserts + churnRetracts // the size of one churn write
	var appends []time.Duration
	for i := 0; i+batch <= len(tuples); i += batch {
		start := time.Now()
		lg.JournalFactBatch("bench", tuples[i:i+batch])
		appends = append(appends, time.Since(start))
	}
	if err := lg.Sync(); err != nil {
		return err
	}
	sizeAfter, err := segmentBytes(lg)
	if err != nil {
		return err
	}
	layerPut(m, "wal.append_sync_us", us(medianDur(appends)))
	layerPut(m, "wal.bytes_per_fact", ratio(float64(sizeAfter-sizeBefore), float64(len(appends)*batch)))

	db := eng.DB()
	want := db.TupleCount()
	start := time.Now()
	err = lg.Checkpoint(func() (*wal.Snapshot, error) { return wal.CollectDatabase(db, nil, nil), nil })
	layerPut(m, "wal.checkpoint_ms", ms(time.Since(start)))
	if err != nil {
		return err
	}
	var snapBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".snap") {
			snapBytes += fi.Size()
		}
	}
	layerPut(m, "wal.snapshot_bytes_per_fact", ratio(float64(snapBytes), float64(want)))
	if err := lg.Close(); err != nil {
		return err
	}
	got := 0
	start = time.Now()
	_, err = wal.Recover(dir, wal.Replay{Fact: func(string, []string) { got++ }})
	layerPut(m, "wal.recover_ms", ms(time.Since(start)))
	if err == nil && got != want {
		err = fmt.Errorf("recovered %d tuples, the database holds %d", got, want)
	}
	r.tally.note("wal checkpoint + recover", err)
	return nil
}

func segmentBytes(lg *wal.Log) (int64, error) {
	segs, err := lg.Segments()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range segs {
		n += s.Size
	}
	return n, nil
}

// microReplica starts an in-process follower on the primary's log source
// and times it until it holds every tuple the primary holds. Only a durable workload has a log to
// follow; the others report zero.
func (r *runner) microReplica(m map[string]metric, h *host) error {
	layerPut(m, "replica.catchup_s", 0)
	layerPut(m, "replica.apply_facts_per_s", 0)
	if h.eng.Log() == nil {
		return nil
	}
	dir, err := os.MkdirTemp(r.scratch, "mirror-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	feng, err := onesided.Open()
	if err != nil {
		return err
	}
	defer feng.Close() // also stops the follower
	start := time.Now()
	f, err := replica.Start(replica.FollowerConfig{Engine: feng, Primary: h.base, Dir: dir, PollInterval: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	// Parity is judged on tuples and stream position, not on the epoch
	// counter: the primary advances its epoch once per insert batch, a
	// follower once per replayed record, so the two counters differ.
	tuples := h.eng.DB().TupleCount()
	caughtUp := func() bool {
		st := f.Stats()
		return feng.DB().TupleCount() == tuples && st.PrimaryEpoch > 0 && st.LagBytes == 0
	}
	deadline := time.Now().Add(60 * time.Second)
	for !caughtUp() && f.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	took := time.Since(start)
	err = f.Err()
	if err == nil {
		for _, pred := range h.eng.DB().Preds() {
			fr := feng.DB().Relation(pred)
			if want := h.eng.DB().Relation(pred).Len(); fr == nil || fr.Len() != want {
				err = fmt.Errorf("follower's %s differs from the primary's %d tuples", pred, want)
				break
			}
		}
	}
	r.tally.note("replica catch-up", err)
	layerPut(m, "replica.catchup_s", took.Seconds())
	layerPut(m, "replica.apply_facts_per_s", ratio(float64(tuples), took.Seconds()))
	return nil
}
