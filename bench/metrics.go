package main

// e2eMetric is an end-to-end metric's contract: which way is better and
// by what share of the parent's median it may worsen before a change
// counts as a regression. BENCHMARK.json carries the same table.
type e2eMetric struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

var e2eMetrics = []e2eMetric{
	{"query_qps_adj", "1/s", true, 0.25},
	{"query_p50_adj_ms", "ms", false, 0.25},
	{"live_heap_mb", "MB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

// countMetrics are per-layer counts that must repeat exactly for a seed
// on one commit; between two commits a difference is a change in work
// done, reported as such and never as a speed-up.
var countMetrics = []string{
	"storage.examined_per_answer", "storage.lookups_per_answer", "storage.fullscans",
	"eval.levels", "eval.contexts", "eval.gprobes", "wal.fsyncs_per_write",
}

// layerMetric is a per-layer metric's name, unit and better direction.
// Per-layer metrics have no bound: they explain a movement of an
// end-to-end metric, they do not gate.
type layerMetric struct {
	name, unit string
	higher     bool
}

// perLayerMetrics is every metric a traced run reports, on every
// workload (zero where the layer does no work there). BENCHMARK.json
// carries the same table.
var perLayerMetrics = []layerMetric{
	{"parser.query_parse_ns", "ns", false},
	{"parser.facts_per_s", "1/s", true},
	{"rewrite.decide_us", "us", false},
	{"engine.prepare_cold_us", "us", false},
	{"engine.prepare_hit_ns", "ns", false},
	{"engine.bind_ns", "ns", false},
	{"engine.plan_hit_ratio", "ratio", true},
	{"engine.query_hit_us", "us", false},
	{"engine.result_hit_share", "ratio", true},
	{"engine.result_updated_share", "ratio", true},
	{"engine.result_rebuilt_share", "ratio", false},
	{"engine.allocs_per_query", "count", false},
	{"engine.bytes_per_query", "B", false},
	{"engine.insert_ns_per_fact", "ns", false},
	{"engine.retract_ns_per_fact", "ns", false},
	{"engine.sub_events", "count", false},
	{"engine.sub_rows_per_event", "rows", false},
	{"engine.sub_event_p50_ms", "ms", false},
	{"eval.query_ms", "ms", false},
	{"eval.levels", "count", false},
	{"eval.contexts", "count", false},
	{"eval.gprobes", "count", false},
	{"eval.batches", "count", false},
	{"eval.answers", "count", true},
	{"eval.us_per_level", "us", false},
	{"eval.ns_per_context", "ns", false},
	{"eval.update_bf_us", "us", false},
	{"eval.update_fb_us", "us", false},
	{"eval.update_sg_us", "us", false},
	{"eval.rebuild_bf_share", "ratio", false},
	{"eval.stream_first_row_ms", "ms", false},
	{"eval.stream_total_ms", "ms", false},
	{"eval.batch16_ms", "ms", false},
	{"eval.batch16_speedup", "ratio", true},
	{"storage.lookups_per_answer", "count", false},
	{"storage.examined_per_answer", "tuples", false},
	{"storage.fullscans", "count", false},
	{"storage.lookup_ns", "ns", false},
	{"storage.insert_ns", "ns", false},
	{"storage.offer_dup_ns", "ns", false},
	{"storage.retract_ns", "ns", false},
	{"storage.intern_ns", "ns", false},
	{"storage.bytes_per_tuple", "B", false},
	{"wal.fsyncs_per_write", "count", false},
	{"wal.records_per_fsync", "count", true},
	{"wal.bytes_per_fact", "B", false},
	{"wal.append_sync_us", "us", false},
	{"wal.checkpoint_ms", "ms", false},
	{"wal.snapshot_bytes_per_fact", "B", false},
	{"wal.recover_ms", "ms", false},
	{"server.overhead_us", "us", false},
	{"server.query_tail_ms", "ms", false},
	{"server.query_tail_percentile", "%", true},
	{"server.response_bytes_per_query", "B", false},
	{"server.ingest_facts_per_s", "1/s", true},
	{"server.write_p50_ms", "ms", false},
	{"server.saturated", "count", false},
	{"server.governed", "count", false},
	{"replica.catchup_s", "s", false},
	{"replica.apply_facts_per_s", "1/s", true},
	{"harness.gen_s", "s", false},
	{"harness.trace_overhead_pct", "%", false},
	{"harness.ops_timed", "count", true},
	{"harness.ops_traced", "count", true},
}
