package main

// metricDef describes one printed metric. The names, units and directions
// must match BENCHMARK.json at the repository root (the tests check it);
// moves and largeOn record, for a per-layer metric, which end-to-end metric
// it should move and on which workload it is large, so a performance change
// can name its prediction before it is measured.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves lists the end-to-end metrics a per-layer metric should move.
	moves string
	// largeOn names the workloads where the layer's cost is large, and
	// smallOn those where it is small or absent (printed as 0).
	largeOn, smallOn string
}

// endToEnd are measured with tracing off, over the measured phase only.
// Failures are not a metric (a correct run has none): they are the
// result's failed and attempted counts.
var endToEnd = []metricDef{
	// Tasks decided with the correct verdict per second, over the ten
	// windows before the deadline; a replicated task counts once all its
	// replicas arrived.
	{name: "tasks_per_s", unit: "tasks/s", better: "higher"},
	// From the draw of a task (a replicated batch: its submission) to the
	// arrival of its outcome.
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	// Nearest-rank p99 over every completion of the phase: the highest
	// quantile with at least ten samples beyond it below 1,000 tasks.
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	// Process user+sys CPU per task, over the same windows.
	{name: "cpu_us_per_task", unit: "us", better: "lower"},
	// Both directions on the supervisor-side physical connections.
	{name: "wire_bytes_per_task", unit: "B", better: "lower"},
	{name: "allocs_per_task", unit: "count", better: "lower"},
	{name: "alloc_bytes_per_task", unit: "B", better: "lower"},
	// Participants, hub, mux, route binds, pool and ledgers, until the
	// first stream call returns with its sessions open.
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are printed by the traced run (--trace 1).
var perLayer = []metricDef{
	{"workload.participant_evals_per_task", "count", "lower", "cpu_us_per_task tasks_per_s", "cbs-compute", "nicbs-wan-mux"},
	{"workload.eval_us_per_task", "us", "lower", "cpu_us_per_task latency_p50_ms", "cbs-compute", "nicbs-wan-mux"},
	{"merkle.build_us_per_task", "us", "lower", "cpu_us_per_task tasks_per_s", "cbs-compute", "nicbs-wan-mux; absent on doublecheck-upload"},
	{"merkle.hashes_per_task", "count", "lower", "cpu_us_per_task tasks_per_s", "cbs-compute", "nicbs-wan-mux; absent on doublecheck-upload"},
	{"core.respond_us_per_task", "us", "lower", "latency_p50_ms cpu_us_per_task", "cbs-compute", "doublecheck-upload (unused)"},
	{"core.verify_us_per_task", "us", "lower", "latency_p50_ms cpu_us_per_task", "cbs-compute", "doublecheck-upload (unused)"},
	{"core.verify_recompute_us_per_task", "us", "lower", "latency_p50_ms cpu_us_per_task", "cbs-compute", "doublecheck-upload (unused)"},
	{"core.response_bytes_per_task", "B", "lower", "wire_bytes_per_task", "cbs-compute", "doublecheck-upload (unused)"},
	{"core.bytes_vs_model", "ratio", "lower", "wire_bytes_per_task", "cbs-compute", "doublecheck-upload (unused)"},
	{"verify_evals_per_task", "count", "lower", "cpu_us_per_task", "cbs-compute", "doublecheck-upload (0)"},
	{"hashchain.sample_us_per_task", "us", "lower", "cpu_us_per_task", "nicbs-wan-mux", "all others (unused)"},
	{"transport.frames_sent_per_task", "count", "lower", "tasks_per_s latency_p50_ms", "nicbs-wan-mux", "cbs-compute"},
	{"transport.frames_recv_per_task", "count", "lower", "tasks_per_s latency_p50_ms", "nicbs-wan-mux", "cbs-compute"},
	{"transport.bytes_per_frame", "B", "higher", "tasks_per_s wire_bytes_per_task", "doublecheck-upload", "nicbs-wan-mux"},
	{"transport.send_busy_us_per_task", "us", "lower", "tasks_per_s latency_p99_ms", "nicbs-wan-mux", "cbs-compute"},
	{"transport.recv_wait_us_per_task", "us", "lower", "tasks_per_s latency_p99_ms", "nicbs-wan-mux", "cbs-compute"},
	{"grid.pool.inflight_mean", "count", "higher", "latency_p50_ms tasks_per_s", "all", "all"},
	{"grid.pool.occupancy", "ratio", "higher", "latency_p50_ms tasks_per_s", "all", "all"},
	{"grid.broker.relayed_frames_per_task", "count", "lower", "tasks_per_s wire_bytes_per_task", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.relayed_bytes_per_task", "B", "lower", "tasks_per_s wire_bytes_per_task", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.rebatch_ratio_to_worker", "ratio", "higher", "tasks_per_s", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.rebatch_ratio_to_supervisor", "ratio", "higher", "tasks_per_s", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.control_frames_per_task", "count", "lower", "tasks_per_s wire_bytes_per_task", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.mux_overhead_bytes_per_task", "B", "lower", "tasks_per_s wire_bytes_per_task", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.credit_window_bytes_per_route", "B", "lower", "latency_p99_ms", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.broker.credit_stalls_per_task", "count", "lower", "latency_p99_ms", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.mux.grant_frames_per_task", "count", "lower", "tasks_per_s", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.mux.credit_granted_bytes_per_task", "B", "lower", "tasks_per_s", "nicbs-wan-mux", "absent elsewhere"},
	{"grid.window.settled", "count", "higher", "task_fail_ratio wire_bytes_per_task", "stream-window-ckpt", "absent elsewhere"},
	{"grid.window.violations", "count", "lower", "task_fail_ratio", "stream-window-ckpt", "absent elsewhere"},
	{"grid.window.pending", "count", "lower", "task_fail_ratio wire_bytes_per_task", "stream-window-ckpt", "absent elsewhere"},
	{"grid.checkpoint.barrier_ms_per_segment", "ms", "lower", "tasks_per_s", "stream-window-ckpt", "absent elsewhere"},
	{"grid.checkpoint.bytes_per_participant", "B", "lower", "tasks_per_s", "stream-window-ckpt", "absent elsewhere"},
	{"grid.replica.upload_bytes_per_replica", "B", "lower", "wire_bytes_per_task", "doublecheck-upload", "absent elsewhere"},
	{"baseline.compare_us_per_task", "us", "lower", "cpu_us_per_task", "doublecheck-upload", "absent elsewhere"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "cpu_us_per_task alloc_bytes_per_task", "stream-window-ckpt nicbs-wan-mux", "cbs-compute"},
	{"runtime.gc_cycles_per_1k_tasks", "count", "lower", "cpu_us_per_task alloc_bytes_per_task", "stream-window-ckpt nicbs-wan-mux", "cbs-compute"},
	{"runtime.goroutines_max", "count", "lower", "alloc_bytes_per_task", "nicbs-wan-mux", "cbs-compute"},
	{"runtime.retained_heap_mb", "MB", "lower", "alloc_bytes_per_task", "stream-window-ckpt", "cbs-compute"},
	{"trace_overhead_pct", "%", "lower", "", "cbs-compute", "nicbs-wan-mux"},
	{"residual_us_per_task", "us", "lower", "cpu_us_per_task", "stream-window-ckpt", "cbs-compute"},
}

// metricSet accumulates one run's printed metrics by name.
type metricSet map[string]float64

// defsFor returns the metric table a run prints.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
