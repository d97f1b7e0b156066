package main

// metricDef names one reported metric. The same table drives the printed
// output, the final JSON line, -agree and (through a test) BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, each with the
// share of the baseline median by which it may worsen before -agree (and
// the acceptance driver) calls a regression. Every workload reports every
// one of them from its untraced window.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_tasks_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// setupFloorS is the absolute set-up time difference -agree ignores: the
// service set-ups take tens of milliseconds, where a quarter is one
// slow fsync.
const setupFloorS = 0.25

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. They carry no bound: they explain a move in an
// end-to-end metric, they are not gated themselves. README.md lists
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "client.http_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.accept_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_op", Unit: "count", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "server.submit_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "server.view_encode_us", Unit: "us", Better: "lower"},
	{Name: "server.view_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.trace_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_disk_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.cache_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.captures", Unit: "count", Better: "lower"},
	{Name: "server.evictions", Unit: "count", Better: "lower"},
	{Name: "server.disk_writes", Unit: "count", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},

	{Name: "journal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_async_us", Unit: "us", Better: "lower"},
	{Name: "journal.write_file_atomic_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.open_recover_ms", Unit: "ms", Better: "lower"},

	{Name: "sched.insert_us_per_task", Unit: "us", Better: "lower"},
	{Name: "sched.noop_run_us_per_task", Unit: "us", Better: "lower"},
	{Name: "sched.quark.noop_run_us_per_task", Unit: "us", Better: "lower"},
	{Name: "sched.starpu.noop_run_us_per_task", Unit: "us", Better: "lower"},
	{Name: "sched.ompss.noop_run_us_per_task", Unit: "us", Better: "lower"},

	{Name: "core.sim_extra_us_per_task", Unit: "us", Better: "lower"},
	{Name: "core.front_parks_per_task", Unit: "count", Better: "lower"},
	{Name: "core.front_handoffs_per_task", Unit: "count", Better: "lower"},
	{Name: "core.quiescence_parks_per_task", Unit: "count", Better: "lower"},
	{Name: "core.spurious_wakeups_per_task", Unit: "count", Better: "lower"},
	{Name: "core.makespan_distinct_max", Unit: "count", Better: "lower"},

	{Name: "replay.capture_extra_us_per_task", Unit: "us", Better: "lower"},
	{Name: "replay.build_arena_us_per_task", Unit: "us", Better: "lower"},
	{Name: "replay.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "replay.load_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.arena_to_dag_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.run_serial_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "replay.run_pointer_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "replay.run_pdes1_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "replay.run_pdes4_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "replay.allocs_per_run", Unit: "count", Better: "lower"},

	{Name: "trace.fingerprint_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.write_json_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.write_svg_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.build_ops_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.build_ops_nb256_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.sweep_capture_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.sweep_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.sweep_shard_speedup", Unit: "x", Better: "higher"},

	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.parts_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.worker_run_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.coord_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.deduped", Unit: "count", Better: "lower"},
	{Name: "cluster.mismatches", Unit: "count", Better: "lower"},

	{Name: "perfmodel.sim_vs_measured_err_pct", Unit: "%", Better: "lower"},
	{Name: "perfmodel.fit_ms", Unit: "ms", Better: "lower"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the reported map for one set of definitions out of the
// measured numbers, so a run reports exactly the defined names.
func pick(defs []metricDef, measured map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
