package main

// metricDef names a reported metric and its unit. The lists below are
// the benchmark's schema: BENCHMARK.json at the repository root lists
// the same names (metrics_test.go keeps the two in step), and every
// workload prints every entry, with 0 for a layer it does not exercise.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured with tracing off.
var endToEndMetrics = []metricDef{
	{"execs_per_s", "1/s"},
	{"valid_inputs", "count"},
	{"coverage_blocks", "count"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
	{"turnaround_s_p50", "s"},
	{"turnaround_s_p90", "s"},
	{"first_progress_ms_p50", "ms"},
	{"first_progress_ms_p90", "ms"},
}

// layerMetrics come from the traced pass. Ratios are listed beside
// their bases (core.execs, core.campaigns, mine.hybrid_execs, ...).
var layerMetrics = []metricDef{
	{"core.execs", "count"},
	{"core.campaigns", "count"},
	{"core.steps", "count"},
	{"subject.calls", "count"},
	{"subject.run_us_per_call", "us"},
	{"subject.calls_per_exec", "ratio"},
	{"core.exec_layer_us_per_exec", "us"},
	{"core.exec_overhead_us_per_exec", "us"},
	{"core.search_us_per_exec", "us"},
	{"pqueue.pops_per_exec", "ratio"},
	{"pqueue.len_mean", "count"},
	{"pqueue.len_max", "count"},
	{"core.allocs_per_exec", "count"},
	{"core.bytes_per_exec", "B"},
	{"core.gc_cpu_share", "ratio"},
	{"pcache.hit_ratio", "ratio"},
	{"pcache.live_exec_share", "ratio"},
	{"pcache.retired_share", "ratio"},
	{"mine.hybrid_execs", "count"},
	{"mine.burst_execs", "count"},
	{"mine.exec_share", "ratio"},
	{"mine.burst_ms", "ms"},
	{"mine.valid_yield", "ratio"},
	{"daemon.submits", "count"},
	{"daemon.submit_ms_p50", "ms"},
	{"daemon.submit_ms_p90", "ms"},
	{"daemon.http_calls", "count"},
	{"campaign.queue_depth_max", "count"},
	{"daemon.turnaround_s_total", "s"},
	{"daemon.engine_share", "ratio"},
	{"corpus.snapshot_kb_p50", "KB"},
	{"corpus.journal_kb_total", "KB"},
	{"daemon.restart_ms", "ms"},
	{"corpus.resumed_campaigns", "count"},
	{"shim.us_per_exec", "us"},
	{"shim.inproc_us_per_exec", "us"},
	{"shim.exec_cost_ratio", "ratio"},
	{"daemon.sse_dropped", "count"},
	{"daemon.status_coverage_lost", "count"},
	{"trace.untraced_execs_per_s", "1/s"},
	{"trace.traced_execs_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// complete orders got by defs and fills every metric the workload did
// not report with 0. A reported metric missing from defs, or reported
// with another unit, is a schema bug and fails the run.
func complete(r *report, defs []metricDef, got []metric) []metric {
	byName := map[string]metric{}
	for _, m := range got {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		m, ok := byName[d.name]
		if !ok {
			m = metric{d.name, 0, d.unit, "(not exercised by this workload)"}
		}
		r.check(m.unit == d.unit, "metric %s reported in %s, schema says %s", d.name, m.unit, d.unit)
		delete(byName, d.name)
		out = append(out, m)
	}
	for name := range byName {
		r.check(false, "metric %s is not in the schema", name)
	}
	return out
}
