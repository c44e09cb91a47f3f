package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json is
// generated from these tables (go run ./bench -spec), and the smoke
// test fails when a run prints a name that is not declared here.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run of every workload. The driver's contract wants each one
// on each workload, so they are named by role; each workload binds the
// three operation roles (query, net, aux) to its own operations — see
// the workload table in README.md. Bounds are regression limits; they
// were set from the A/A spreads recorded in AA.md.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_tail_ms", "ms", "lower", 0.25},
	{"net_p50_ms", "ms", "lower", 0.25},
	{"aux_p50_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_op", "bytes", "lower", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics, printed by a traced run. The
// prefix is the package the number belongs to. A workload that does not
// exercise a layer prints 0 for it. README.md lists which end-to-end
// metric each one is expected to move, on which workload.
var perLayer = []metricDef{
	// Kernels, probed on the workload's own dataset.
	{Name: "point.dominates_ns", Unit: "ns", Better: "lower"},
	{Name: "point.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "zorder.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "zorder.encode_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "zbtree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "zbtree.zsearch_ms", Unit: "ms", Better: "lower"},
	{Name: "zbtree.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "zbtree.dom_tests", Unit: "count", Better: "lower"},
	{Name: "zbtree.region_tests", Unit: "count", Better: "lower"},
	{Name: "seq.sb_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.frame_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "dist.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.decode_ms", Unit: "ms", Better: "lower"},

	// The three-phase pipeline replayed stage by stage on plan.LocalExec
	// (anti-d8, corr-d8).
	{Name: "sample.ratio_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.learn_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.map_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.map_filtered_frac", Unit: "fraction", Better: "higher"},
	{Name: "plan.shuffle_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.local_skyline_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.local_skyline_max_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.merge_rounds", Unit: "count", Better: "lower"},
	{Name: "plan.candidates_per_skyline", Unit: "ratio", Better: "lower"},
	{Name: "plan.input_share_max_over_mean", Unit: "ratio", Better: "lower"},
	{Name: "plan.candidate_share_max_over_mean", Unit: "ratio", Better: "lower"},
	{Name: "plan.run_local_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.dom_tests", Unit: "count", Better: "lower"},
	{Name: "plan.region_tests", Unit: "count", Better: "lower"},

	// The three executors (anti-d8, corr-d8).
	{Name: "parallel.dom_tests", Unit: "count", Better: "lower"},
	{Name: "parallel.alloc_count", Unit: "count", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.alloc_count", Unit: "count", Better: "lower"},
	{Name: "core.shuffle_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.sim_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.phase2_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.phase3_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.wire_sent_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dist.wire_recv_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dist.alloc_count", Unit: "count", Better: "lower"},
	{Name: "dist.wire_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.worker_busy_per_wall", Unit: "ratio", Better: "lower"},

	// The sharded cluster (cluster-mixed).
	{Name: "dist.cluster_routed_frac", Unit: "fraction", Better: "lower"},
	{Name: "dist.cluster_range_wire_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dist.cluster_full_wire_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dist.cluster_insert_block_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.cluster_insert_krows_per_s", Unit: "krows/s", Better: "higher"},
	{Name: "dist.cluster_shard_rows_max_over_mean", Unit: "ratio", Better: "lower"},
	{Name: "dist.cluster_retries", Unit: "count", Better: "lower"},

	// The serving tier (serve-churn).
	{Name: "server.skyline_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.query_hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.query_miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "server.rejected_frac", Unit: "fraction", Better: "lower"},
	{Name: "server.r1_query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.r2_query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.r3_query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.max_rate_ok", Unit: "ops/s", Better: "higher"},
	{Name: "server.gen_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.backlog_end", Unit: "count", Better: "lower"},
	{Name: "server.engine_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "maintain.insert_us_per_row", Unit: "us", Better: "lower"},

	// The instrument itself.
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.query_iqr_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.net_iqr_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.aux_iqr_frac", Unit: "fraction", Better: "lower"},
}

// result is what one run of one workload produced.
type result struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int // sample count behind a timed value
}

func newResult(defs []metricDef) *result {
	r := &result{values: map[string]float64{}, samples: map[string]int{}}
	for _, d := range defs {
		r.values[d.Name] = 0
	}
	return r
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setTimed records a timing with the number of samples behind it.
func (r *result) setTimed(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}
