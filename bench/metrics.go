package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	// On lists, for an end-to-end metric, the workloads the issue reports
	// it on; nil means all. Every run measures every metric (the contract
	// asks for that), but only these pairs are printed as metric lines and
	// judged by -compare.
	On []string
	// Moves says, for a per-layer metric, which end-to-end metric it should
	// move and on which workload (README.md has the full table).
	Moves string
	// Exact marks a per-layer count that must repeat from run to run:
	// -compare demands that two sets agree on it to the last digit.
	Exact bool
}

var (
	serving       = []string{"serve_hot", "serve_miss", "dialog_scan", "cluster_hot", "publish_under_read"}
	saturating    = []string{"serve_hot", "serve_miss", "dialog_scan", "cluster_hot"}
	preprocessing = []string{"preprocess_greedy", "preprocess_exact"}
)

// endToEnd are the metrics a user of the system sees. failed_share is
// printed beside them but is not in this list: it is expected to be zero,
// and the result line carries it as failed/attempted.
//
// The timing bounds are a quarter, not the issue's tenth: the contract
// wants every spread below a third of its bound, and a bare arithmetic
// loop on the machines this runs on already varies by a tenth from one
// second to the next (README.md, "Bounds"). avg_scaled_utility must repeat
// exactly.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "roundtrip_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: serving},
	{Name: "saturation_rps", Unit: "req/s", Better: "higher", Bound: 0.25, On: saturating},
	{Name: "preprocess_problems_per_s", Unit: "problems/s", Better: "higher", Bound: 0.25, On: preprocessing},
	{Name: "avg_scaled_utility", Unit: "ratio", Better: "higher", Bound: 1e-9, On: preprocessing},
	{Name: "publish_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{"publish_under_read"}},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// listedOn reports whether the issue reports d on the workload.
func (d metricDef) listedOn(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// perLayer are the traced run's metrics: one layer each, measured from
// outside by timing calls into the layer's public functions.
var perLayer = []metricDef{
	{Name: "voice.classify_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on serve_miss"},
	{Name: "voice.normalize_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on serve_hot"},
	{Name: "serve.answer_self_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on serve_miss"},
	{Name: "serve.session_self_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on dialog_scan"},
	{Name: "serve.followup_resolved_share", Unit: "ratio", Better: "higher", Moves: "failed_share on dialog_scan"},
	{Name: "engine.match_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on serve_miss"},
	{Name: "engine.match_exact_share", Unit: "ratio", Better: "higher", Moves: "roundtrip_p50_us on serve_miss"},
	{Name: "engine.scan_ns.extremum", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on dialog_scan; no move expected on serve_hot or serve_miss"},
	{Name: "engine.scan_ns.topk", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on dialog_scan"},
	{Name: "engine.scan_ns.trend", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on dialog_scan"},
	{Name: "engine.scan_ns.constrained", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on dialog_scan"},
	{Name: "engine.scan_ns.comparison", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on dialog_scan; no move expected on serve_hot or serve_miss"},
	{Name: "relation.groupby_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on dialog_scan; no move expected on serve_hot or serve_miss"},
	{Name: "httpserve.answer_ns.hit", Unit: "ns", Better: "lower", Moves: "saturation_rps, roundtrip_p50_us on serve_hot"},
	{Name: "httpserve.answer_ns.miss", Unit: "ns", Better: "lower", Moves: "saturation_rps, roundtrip_p50_us on serve_miss"},
	{Name: "httpserve.cache_hit_share", Unit: "ratio", Better: "higher", Moves: "saturation_rps, roundtrip_p50_us on serve_hot"},
	{Name: "httpserve.singleflight_shared_share", Unit: "ratio", Better: "higher", Moves: "saturation_rps on serve_hot"},
	{Name: "httpserve.handler_self_ns", Unit: "ns", Better: "lower", Moves: "saturation_rps on serve_hot, cluster_hot"},
	{Name: "httpserve.session_self_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on dialog_scan"},
	{Name: "httpserve.admission_rejected", Unit: "count", Better: "lower", Moves: "failed_share on all serving"},
	{Name: "loopback.http_self_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us on serve_hot"},
	{Name: "cluster.route_self_ns", Unit: "ns", Better: "lower", Moves: "roundtrip_p50_us, saturation_rps on cluster_hot"},
	{Name: "cluster.attempts_per_request", Unit: "ratio", Better: "lower", Moves: "roundtrip_p50_us on cluster_hot"},
	{Name: "cluster.stale_served", Unit: "count", Better: "lower", Moves: "failed_share on cluster_hot"},
	{Name: "engine.problems_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on preprocess_greedy"},
	{Name: "fact.generate_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on preprocess_greedy"},
	{Name: "summarize.evaluator_build_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on preprocess_greedy"},
	{Name: "summarize.solve_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on preprocess_exact"},
	{Name: "summarize.nodes_expanded", Unit: "count", Better: "lower", Moves: "preprocess_problems_per_s on preprocess_exact", Exact: true},
	{Name: "summarize.facts_evaluated", Unit: "count", Better: "lower", Moves: "preprocess_problems_per_s on preprocess_greedy", Exact: true},
	{Name: "summarize.groups_pruned", Unit: "count", Better: "higher", Moves: "preprocess_problems_per_s on preprocess_greedy", Exact: true},
	{Name: "summarize.dominated_skipped", Unit: "count", Better: "higher", Moves: "preprocess_problems_per_s on preprocess_exact", Exact: true},
	{Name: "summarize.exact_parallel_speedup", Unit: "ratio", Better: "higher", Moves: "diagnostic on preprocess_exact"},
	{Name: "engine.render_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on both pre-processing workloads"},
	{Name: "engine.store_add_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on both pre-processing workloads"},
	{Name: "pipeline.overhead_ns", Unit: "ns", Better: "lower", Moves: "preprocess_problems_per_s on both pre-processing workloads"},
	{Name: "pipeline.worker_speedup", Unit: "ratio", Better: "higher", Moves: "preprocess_problems_per_s on both pre-processing workloads"},
	{Name: "snapshot.write_ns", Unit: "ns", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "snapshot.map_ns", Unit: "ns", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "snapshot.decode_ns", Unit: "ns", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "snapshot.verify_ns", Unit: "ns", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "snapshot.bytes", Unit: "count", Better: "lower", Moves: "heap_live_mb on serve_hot"},
	{Name: "delta.table_apply_ns", Unit: "ns", Better: "lower", Moves: "publish_ms on publish_under_read"},
	{Name: "delta.plan_ns", Unit: "ns", Better: "lower", Moves: "publish_ms on publish_under_read"},
	{Name: "delta.apply_ns", Unit: "ns", Better: "lower", Moves: "publish_ms on publish_under_read"},
	{Name: "delta.patch_write_ns", Unit: "ns", Better: "lower", Moves: "publish_ms on publish_under_read"},
	{Name: "httpserve.swap_ns", Unit: "ns", Better: "lower", Moves: "publish_ms on publish_under_read"},
	{Name: "delta.dirty_problems", Unit: "count", Better: "lower", Moves: "publish_ms on publish_under_read", Exact: true},
	{Name: "delta.solved", Unit: "count", Better: "lower", Moves: "publish_ms on publish_under_read", Exact: true},
	{Name: "delta.retained", Unit: "count", Better: "higher", Moves: "publish_ms on publish_under_read", Exact: true},
	{Name: "delta.rebuild_ratio", Unit: "ratio", Better: "higher", Moves: "publish_ms on publish_under_read"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", Moves: "validity of the run"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher", Moves: "validity of the run"},
	{Name: "loadgen.failed", Unit: "count", Better: "lower", Moves: "validity of the run"},
	{Name: "loadgen.wrong", Unit: "count", Better: "lower", Moves: "validity of the run"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower", Moves: "validity of the run"},
	{Name: "answer_p50_us", Unit: "us", Better: "lower", Moves: "the issue's headline latency, demoted: open loop at the workload's rate, timed from due; it follows the host's idle policy"},
	{Name: "answer_p99_us", Unit: "us", Better: "lower", Moves: "the same loop's tail, median of the p99s of 2 s windows; shows a stall behind a publish on publish_under_read"},
	{Name: "client.p95_us", Unit: "us", Better: "lower", Moves: "validity of the run"},
	{Name: "client.max_us", Unit: "us", Better: "lower", Moves: "validity of the run"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "validity of the run"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Moves: "expected 0 on every workload"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// probeP99 is the tail of an untraced run's probe slices (windowed
	// p99, us). It is printed as a line of its own and not bounded,
	// because it does not repeat (README.md, "Bounds").
	probeP99 float64
}

// newResult returns a result holding every metric of defs at zero, so a
// run always prints the complete list.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = value{Unit: d.Unit}
	}
	return r
}

// set stores a measured value under a declared metric name.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}
