package main

// perLayer is every metric a traced run reports, in print order; names
// are "<module>.<metric>". A workload reports 0 for the layers it does
// not touch — lp.* outside synth-milp is exactly zero, which is itself a
// prediction. README.md says which end-to-end metric each row should
// move on which workload.
//
// A "<name>_ms" row is the total duration of the spans called <name>
// (per pass); the other rows are filled in by the workload's inspect.
var perLayer = []metricDef{
	{"trace.overhead_ratio", "ratio"},

	// End-to-end figures only some workloads have; they are unbounded
	// layer rows because the contract wants every end-to-end metric from
	// every workload.
	{"route.mcl_sum", "MB/s"},
	{"sim.cycles_per_s", "cycles/s"},
	{"server.req_p50_ms", "ms"},
	{"server.req_p95_ms", "ms"},
	{"server.req_p99_ms", "ms"},
	{"server.req_samples", "count"},

	{"topology.build_ms", "ms"},
	{"traffic.flows_ms", "ms"},

	{"cdg.full_ms", "ms"},
	{"cdg.break_ms", "ms"},
	{"cdg.acyclic_ms", "ms"},
	{"cdg.breaks", "count"},

	{"flowgraph.new_ms", "ms"},
	{"flowgraph.enumerate_ms", "ms"},
	{"flowgraph.paths", "count"},

	{"lp.root_ms", "ms"},
	{"lp.milp_ms", "ms"},
	{"lp.rows", "count"},
	{"lp.cols", "count"},
	{"lp.pivots", "count"},
	{"lp.bb_nodes", "count"},
	{"lp.refactorizations", "count"},

	{"route.select_milp_ms", "ms"},
	{"route.select_dijkstra_ms", "ms"},
	{"route.select_heuristic_ms", "ms"},
	{"route.baseline_ms", "ms"},
	{"route.validate_ms", "ms"},
	{"route.paths_kept", "count"},
	{"route.paths_deduped", "count"},
	{"route.cell_transpose_nf_ms", "ms"},
	{"route.cell_shuffle_nf_ms", "ms"},
	{"route.cell_bitcomp_nf_ms", "ms"},

	{"core.best_ms", "ms"},
	{"core.self_ms", "ms"},

	{"certify.certify_ms", "ms"},
	{"certify.check_ms", "ms"},

	{"sim.new_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.cycles", "count"},
	{"sim.flit_hops", "count"},
	{"sim.flit_hops_per_s", "1/s"},
	{"sim.mesh16_r2_cycles_per_s", "cycles/s"},
	{"sim.mesh16_r10_cycles_per_s", "cycles/s"},
	{"sim.mesh16_r20_cycles_per_s", "cycles/s"},
	{"sim.mesh16_r40_cycles_per_s", "cycles/s"},
	{"sim.mesh16_r60_cycles_per_s", "cycles/s"},
	{"sim.mesh64_cycles_per_s", "cycles/s"},
	{"sim.mesh64_wmax_cycles_per_s", "cycles/s"},
	{"sim.clos_cycles_per_s", "cycles/s"},
	{"sim.alloc_bytes_per_cycle", "B/cycle"},
	{"sim.mallocs_per_kcycle", "1/kcycle"},

	{"churn.run_ms", "ms"},
	{"churn.events", "count"},

	{"experiments.jobs", "count"},
	{"experiments.job_s_sum", "s"},
	{"experiments.worker_util", "ratio"},
	{"experiments.synth_cache_hits", "count"},
	{"experiments.synth_cache_misses", "count"},

	{"bsor.canonical_us", "us"},
	{"bsor.synthesize_ms", "ms"},
	{"bsor.verify_ms", "ms"},
	{"bsor.pipeline_ms", "ms"},

	{"server.hit_handler_us", "us"},
	{"server.http_overhead_us", "us"},
	{"server.render_ms", "ms"},
	{"server.miss_synthesize_ms", "ms"},
	{"server.miss_explore_ms", "ms"},
	{"server.miss_verify_ms", "ms"},
	{"server.miss_sim_ms", "ms"},
	{"server.computes", "count"},
	{"server.computes_per_spec", "ratio"},
	{"server.compute_s_total", "s"},
	{"server.cache_hits", "count"},
	{"server.dedup", "count"},
	{"server.shed", "count"},
}
