package main

// metricDef names one reported number. The end-to-end and per-layer tables
// must match BENCHMARK.json at the repository root (TestBenchmarkJSON
// checks it); extra metrics go to the result file and the printed lines
// only.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are measured with tracing off. op_ms_p50 is one name for the
// median of the workload's timed operation: one engine run
// (fleet100k-sharded, facility2500-aiburst; the median run assembled tick
// by tick), one npexp sweep from exec to exit (npexp-figs), or one job from
// submit to done (npserved-fresh). Every workload reports every metric, so
// the name cannot carry the operation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer come from the separate traced run. Every time in this table is
// measured on every workload; a layer only some workloads exercise is
// reported as a share or a count, which reads 0 where the layer is absent.
var perLayer = []metricDef{
	{"tracegen.build_s", "s", "lower"},
	{"tracegen.share_of_run", "ratio", "lower"},
	{"cluster.build_s", "s", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"cluster.advance_ms_per_tick", "ms", "lower"},
	{"cluster.shard_speedup", "x", "higher"},
	{"cluster.shard_imbalance", "ratio", "lower"},
	{"ec.ms_per_tick", "ms", "lower"},
	{"sm.ms_per_epoch", "ms", "lower"},
	{"em.ms_per_epoch", "ms", "lower"},
	{"gm.ms_per_epoch", "ms", "lower"},
	{"vmc.share_of_tick", "ratio", "lower"},
	{"fm.share_of_tick", "ratio", "lower"},
	{"cooling.share_of_tick", "ratio", "lower"},
	{"ctl.idle_us_per_tick", "us", "lower"},
	{"metrics.observe_us_per_tick", "us", "lower"},
	{"gc.alloc_mb_per_run", "MB", "lower"},
	{"gc.cycles_per_run", "count", "lower"},
	{"runner.busy_share", "ratio", "higher"},
	{"runner.cache_hit_ratio", "ratio", "higher"},
	{"serve.dedup_ratio", "ratio", "higher"},
	{"checkpoint.writes_per_job", "count", "lower"},
	{"checkpoint.kb_per_write", "KB", "lower"},
	{"checkpoint.write_share", "ratio", "lower"},
	{"trace.residual_share", "ratio", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// extras are numbers that only some workloads have, in the units they are
// naturally measured in. They are printed and kept in the result file but
// are not metrics of BENCHMARK.json: there, a number that only one workload
// measures would read a constant 0 on the others.
var extras = []metricDef{
	{"server_ticks_per_s", "1/s", "higher"},
	{"vmc.ms_per_epoch", "ms", "lower"},
	{"fm.ms_per_epoch", "ms", "lower"},
	{"cooling.ms_per_epoch", "ms", "lower"},
	{"experiments.fig7_s", "s", "lower"},
	{"experiments.fig8_s", "s", "lower"},
	{"experiments.fig9_s", "s", "lower"},
	{"experiments.fig10_s", "s", "lower"},
	{"serve.job_ms_p90", "ms", "lower"},
	{"serve.submit_us_p50", "us", "lower"},
	{"serve.compute_ms_mean", "ms", "lower"},
	{"checkpoint.write_ms_mean", "ms", "lower"},
}
