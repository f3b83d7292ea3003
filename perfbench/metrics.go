package main

// metricSpec names one reported metric and its unit. The lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps the
// two in step): a --trace 0 run reports every endToEnd metric, a
// --trace 1 run every perLayer metric.
type metricSpec struct {
	Name, Unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"mine_s", "s"},
	{"heap_mb", "MB"},
	{"snapshot_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"sustained_rps", "1/s"},
	{"server_rss_mb", "MB"},
}

// Serving routes, in the order the browse mix lists them.
var routes = []string{"index", "api_signals", "signal", "glyph", "barchart", "report", "network_json"}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"faers.load_s", "s"},
		{"cleaning.clean_s", "s"},
		{"txdb.encode_s", "s"},
		{"fpgrowth.mine_s", "s"},
		{"fpgrowth.closure_s", "s"},
		{"assoc.rule_gen_s", "s"},
		{"mcac.build_s", "s"},
		{"rank.rank_s", "s"},
		{"store.encode_s", "s"},
		{"store.write_s", "s"},
		{"core.residual_s", "s"},
		{"core.composed_ratio", "ratio"},
		{"core.layer_sum_ratio", "ratio"},
	}
	for _, l := range []string{"faers", "cleaning", "txdb", "fpgrowth", "assoc", "mcac", "rank", "core", "store"} {
		m = append(m, metricSpec{l + ".alloc_mb", "MB"})
	}
	m = append(m,
		metricSpec{"fpgrowth.frequent_itemsets", "count"},
		metricSpec{"fpgrowth.closed_itemsets", "count"},
		metricSpec{"assoc.rules", "count"},
		metricSpec{"mcac.clusters", "count"},
		metricSpec{"mcac.context_rules", "count"},
		metricSpec{"store.snapshot_bytes", "B"},
	)
	for _, r := range routes {
		p := "route." + r + "."
		m = append(m,
			metricSpec{p + "p50_ms", "ms"},
			metricSpec{p + "p99_ms", "ms"},
			metricSpec{p + "ttfb_ms", "ms"},
			metricSpec{p + "body_ms", "ms"},
			metricSpec{p + "bytes", "B"},
			metricSpec{p + "split_ratio", "ratio"},
		)
	}
	return append(m,
		metricSpec{"http.floor_ms", "ms"},
		metricSpec{"server.cpu_ms_per_req", "ms"},
		metricSpec{"gen.lag_p99_ms", "ms"},
		metricSpec{"store.decode_ms", "ms"},
		metricSpec{"store.cold_load_ms", "ms"},
		metricSpec{"watch.eval_ms", "ms"},
		metricSpec{"watch.alerts", "count"},
		metricSpec{"resilience.shed_ratio", "ratio"},
		metricSpec{"trace.overhead_ratio", "ratio"},
	)
}()
