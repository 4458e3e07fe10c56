package main

// Every number names its clock. "virt" is simulated time: deterministic,
// it must repeat exactly for a seed. "host" is what the harness costs
// on this machine: noisy, compared with a bound. "count" is exact.
const (
	clockHost  = "host"
	clockVirt  = "virt"
	clockCount = "count"
)

// metricDef declares one reported metric. BENCHMARK.json carries the
// same names, units and directions (main_test.go keeps them equal);
// end-to-end metrics also carry their bound there.
type metricDef struct {
	name   string
	unit   string
	better string
	clock  string
}

// endToEnd is what a user of the system sees, on every workload,
// measured with no recorder attached.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", clockHost},
	{"host_ns_per_op", "ns", "lower", clockHost},
	{"host_cpu_ns_per_op", "ns", "lower", clockHost},
	{"allocs_per_op", "count", "lower", clockHost},
	{"alloc_bytes_per_op", "B", "lower", clockHost},
	{"peak_rss_mib", "MiB", "lower", clockHost},
	{"virt_ops_per_s", "1/s", "higher", clockVirt},
	{"virt_mean_latency_us", "us", "lower", clockVirt},
	{"virt_max_latency_us", "us", "lower", clockVirt},
}

// perLayer is one module's number each; README.md says which
// end-to-end metric each should move, on which workload. Probe metrics
// are appended from the probe table.
var perLayer = []metricDef{
	{"client.virt_p50_latency_us", "us", "lower", clockVirt},
	{"client.virt_p999_latency_us", "us", "lower", clockVirt},

	{"sim.dispatches_per_op", "count", "lower", clockCount},
	{"sim.host_ns_per_dispatch", "ns", "lower", clockHost},
	{"sim.gc_cycles_per_kop", "count", "lower", clockHost},
	{"sim.sys_cpu_share_pct", "%", "lower", clockHost},
	{"sim.xthread_tax_pct", "%", "lower", clockHost},
	{"sim.slice_host_share_client_pct", "%", "lower", clockHost},
	{"sim.slice_host_share_leader_pct", "%", "lower", clockHost},
	{"sim.slice_host_share_follower_pct", "%", "lower", clockHost},
	{"sim.slice_host_share_other_pct", "%", "lower", clockHost},
	{"sim.parallel_cpu_util_pct", "%", "higher", clockHost},
	{"sim.shard_busy_share_pct", "%", "higher", clockVirt},

	{"sysabi.calls_per_op", "count", "lower", clockCount},
	{"sysabi.payload_bytes_per_op", "B", "lower", clockCount},

	{"vos.net_bytes_per_op", "B", "lower", clockCount},
	{"vos.fs_bytes_per_op", "B", "lower", clockCount},
	{"vos.virt_ns_per_call", "ns", "lower", clockVirt},

	{"ringbuf.puts_per_op", "count", "lower", clockCount},
	{"ringbuf.blocked_per_put", "count", "lower", clockCount},
	{"ringbuf.highwater", "count", "lower", clockCount},
	{"ringbuf.dropped", "count", "lower", clockCount},
	{"ringbuf.virt_block_wait_mean_ns", "ns", "lower", clockVirt},

	{"mve.recorded_per_op", "count", "lower", clockCount},
	{"mve.replayed_per_recorded", "count", "lower", clockCount},
	{"mve.divergences", "count", "lower", clockCount},
	{"mve.promotions", "count", "lower", clockCount},
	{"mve.virt_service_ns_per_op", "ns", "lower", clockVirt},
	{"mve.virt_validate_ns_per_op", "ns", "lower", clockVirt},
	{"mve.virt_ring_wait_ns_per_op", "ns", "lower", clockVirt},
	{"mve.virt_validate_lag_p99_us", "us", "lower", clockVirt},

	{"dsl.rule_hits_per_op", "count", "lower", clockCount},

	{"dsu.update_points_per_op", "count", "lower", clockCount},
	{"dsu.virt_quiesce_wait_mean_us", "us", "lower", clockVirt},
	{"dsu.virt_xform_mean_ms", "ms", "lower", clockVirt},
	{"dsu.probe_fork_alloc_mib", "MiB", "lower", clockHost},

	{"core.updates", "count", "lower", clockCount},
	{"core.commits", "count", "higher", clockCount},
	{"core.rollbacks", "count", "lower", clockCount},
	{"core.retries", "count", "lower", clockCount},
	{"core.transitions", "count", "lower", clockCount},
	{"core.fleet_ejects", "count", "lower", clockCount},
	{"core.fleet_respawns", "count", "lower", clockCount},
	{"core.virt_update_total_ms", "ms", "lower", clockVirt},

	{"obs.trace_overhead_pct", "%", "lower", clockHost},
	{"obs.spans_dropped", "count", "lower", clockCount},
	{"obs.trace_dropped", "count", "lower", clockCount},
}

// layerDefs returns every per-layer metric: the table above plus one
// host-clock metric per probe.
func layerDefs() []metricDef {
	defs := append([]metricDef(nil), perLayer...)
	for _, p := range probes {
		defs = append(defs, metricDef{p.metric, p.unit, "lower", clockHost})
	}
	return defs
}
