package main

// metricDef names one per-layer metric and its unit. The list mirrors
// per_layer in BENCHMARK.json (the self-test checks the two agree).
// Counters and times are per operation unless the name says otherwise.
type metricDef struct{ name, unit string }

var perLayer = []metricDef{
	// Per-kind medians that only some workloads have.
	{"connectivity_p50_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"scan_after_edit_p50_ms", "ms"},
	{"fail_frac", "ratio"},
	{"ops.samples", "count"},

	{"serve.handler_ms", "ms"},
	{"serve.window_wait_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.shed", "count"},
	{"serve.transport_ms", "ms"},

	{"index.memo_hit_ratio.clustering", "ratio"},
	{"index.memo_hit_ratio.cover", "ratio"},
	{"index.memo_hit_ratio.pattern", "ratio"},
	{"index.memo_build_ms.clustering", "ms"},
	{"index.memo_build_ms.cover", "ms"},
	{"index.queries_per_sweep", "ratio"},
	{"index.bands_kept_per_edit", "count"},
	{"index.bands_rebuilt_per_edit", "count"},
	{"index.covers_rebuilt_per_edit", "count"},
	{"index.edit_ms", "ms"},
	{"index.scan_ms", "ms"},
	{"index.resident_bytes", "bytes"},

	{"core.prepare_ms", "ms"},
	{"core.band_ms", "ms"},
	{"core.bands_skipped", "count"},
	{"core.bands_cancelled", "count"},
	{"core.runs_per_query", "count"},
	{"core.max_band_width", "count"},
	{"core.fallback_bands", "count"},

	{"estc.ms", "ms"},
	{"estc.work", "count"},
	{"estc.rounds", "count"},

	{"cover.ms", "ms"},
	{"cover.size_per_n", "ratio"},
	{"cover.bands", "count"},
	{"cover.bfs_rounds", "count"},

	{"treedecomp.ms", "ms"},
	{"treedecomp.nice_nodes", "count"},
	{"treedecomp.max_width", "count"},

	{"match.ms", "ms"},
	{"match.nodes", "count"},
	{"match.states", "count"},
	{"match.joins", "count"},
	{"match.emissions", "count"},
	{"match.canon_ms", "ms"},

	{"pmdag.ms", "ms"},
	{"pmdag.dag_edges", "count"},
	{"pmdag.shortcut_edges", "count"},
	{"pmdag.max_hops", "count"},
	{"pmdag.rounds", "count"},

	{"conn.ms", "ms"},
	{"conn.face_incidence_ms", "ms"},
	{"conn.cycle_checks", "count"},
	{"planarity.embed_ms", "ms"},
	{"planarity.check_ms", "ms"},

	{"par.steals", "count"},
	{"par.parks", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MiB"},
	{"go.heap_peak_mb", "MiB"},

	{"wd.work", "count"},
	{"wd.rounds", "count"},
	{"wd.work.estc", "count"},
	{"wd.work.bfs", "count"},
	{"wd.work.dp", "count"},
	{"wd.work.pmdag", "count"},
	{"wd.rounds.estc", "count"},
	{"wd.rounds.bfs", "count"},
	{"wd.rounds.dp", "count"},
	{"wd.rounds.pmdag", "count"},

	// Counts that repeat exactly for a seed, for exact comparison.
	{"exact.miss_wd_work", "count"},
	{"exact.miss_wd_rounds", "count"},
	{"exact.miss_emissions", "count"},
	{"exact.edit_bands_rebuilt", "count"},

	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"trace.spans", "count"},
}
