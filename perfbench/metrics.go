package main

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json at the repository root (a test keeps the two
// in step); README.md gives each per-layer metric the end-to-end metric and
// workload it should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd is reported by an untraced run (--trace 0), on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"multiply_ms_p50", "ms", "lower"},
	{"multiply_ms_tail", "ms", "lower"},
	{"spmm_gflops", "GFLOP/s", "higher"},
	{"modeled_ms", "ms", "lower"},
	{"plan_mb", "MB", "lower"},
	{"request_ms_p50", "ms", "lower"},
	{"request_ms_tail", "ms", "lower"},
	{"max_qps_under_slo", "1/s", "higher"},
}

// traceLayers are the layers whose self time a traced run reports.
var traceLayers = []string{
	layerSparse, layerPrep, layerExec, layerVerify, layerTCP,
	layerServe, layerQueue, layerCoalesce, layerHTTP, layerLoadgen, layerBench,
}

// perLayer is reported by a traced run (--trace 1), on every workload; a
// layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.generate_s", "s", "lower"},
		{"sparse.read_s", "s", "lower"},
		{"sparse.read_mb_per_s", "MB/s", "higher"},
		{"sparse.reference_ms", "ms", "lower"},
		{"core.prep_s", "s", "lower"},
		{"core.prep.sync_stripes", "count", "higher"},
		{"core.prep.async_stripes", "count", "lower"},
		{"core.prep.sync_nnz_frac", "ratio", "higher"},
		{"core.prep.avg_fanout", "count", "lower"},
		{"core.prep.memcap_flips", "count", "lower"},
		{"core.exec_ms", "ms", "lower"},
		{"core.exec.inner_ms", "ms", "lower"},
		{"core.exec.vs_reference", "x", "lower"},
		{"core.exec.alloc_mb_per_call", "MB", "lower"},
		{"core.exec.gc_per_call", "count", "lower"},
		{"core.exec.row_cache_hit_ratio", "ratio", "higher"},
		{"core.exec.modeled_sync_comm_ms", "ms", "lower"},
		{"core.exec.modeled_sync_comp_ms", "ms", "lower"},
		{"core.exec.modeled_async_comm_ms", "ms", "lower"},
		{"core.exec.modeled_async_comp_ms", "ms", "lower"},
		{"core.exec.modeled_overlap_ms", "ms", "higher"},
		{"core.exec.modeled_other_ms", "ms", "lower"},
		{"kernels.flops_per_call", "flop", "lower"},
		{"kernels.bytes_per_call", "B", "lower"},
		{"kernels.flops_per_byte", "flop/B", "higher"},
		{"cluster.collective_mb", "MB", "lower"},
		{"cluster.collective_msgs", "count", "lower"},
		{"cluster.one_sided_mb", "MB", "lower"},
		{"cluster.one_sided_gets", "count", "lower"},
		{"cluster.one_sided_msgs", "count", "lower"},
		{"cluster.retries", "count", "lower"},
		{"cluster.degrades", "count", "lower"},
		{"transport.tcp.connect_ms", "ms", "lower"},
		{"transport.tcp.wire_mb_per_s", "MB/s", "higher"},
		{"transport.tcp.rank_skew_ms", "ms", "lower"},
		{"serve.exec_ms_p50", "ms", "lower"},
		{"serve.queue_ms_p50", "ms", "lower"},
		{"serve.queue_ms_tail", "ms", "lower"},
		{"serve.http_ms_p50", "ms", "lower"},
		{"serve.coalesced_frac", "ratio", "higher"},
		{"serve.shed_frac", "ratio", "lower"},
		{"serve.row_cache_hit_ratio", "ratio", "higher"},
		{"serve.queue_high_water", "count", "lower"},
		{"loadgen.late_ms_p99", "ms", "lower"},
		{"loadgen.samples", "count", "higher"},
		{"error_rate", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
		{"trace.unaccounted_frac", "ratio", "lower"},
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_ms." + l, "ms", "lower"})
	}
	return defs
}()
