package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics with their regression bounds; the smoke
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the library or of fvpd sees, reported
// by every untraced run of every workload. An op is one simulation run for
// the sweeps and one HTTP request for the service workloads. Their bounds
// are in BENCHMARK.json.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports all of them. The shares split the summed latency of the traced
// ops into the self time of each layer's spans, so a layer a workload
// never enters reads 0. The per-call and per-instruction costs cover every
// call the traced process timed, set-up included, so a workload whose
// timed phase never simulates still reports its simulation costs. Work
// counts and Go runtime figures come from the untraced stretches, so they
// count the program's work, not the tracer's.
var perLayer = []metricDef{
	// Where an op's time goes: each layer's self time over the summed
	// latency of the traced ops.
	{Name: "client.share", Unit: "frac", Better: "lower"},
	{Name: "http.handler_share", Unit: "frac", Better: "lower"},
	{Name: "cluster.owner_handler_share", Unit: "frac", Better: "lower"},
	{Name: "store.job_share", Unit: "frac", Better: "lower"},
	{Name: "store.result_share", Unit: "frac", Better: "lower"},
	{Name: "simd.queue_wait_share", Unit: "frac", Better: "lower"},
	{Name: "harness.self_share", Unit: "frac", Better: "lower"},
	{Name: "workload.build_share", Unit: "frac", Better: "lower"},
	{Name: "prog.build_memory_share", Unit: "frac", Better: "lower"},
	{Name: "ooo.core_reset_share", Unit: "frac", Better: "lower"},
	{Name: "ooo.warm_caches_share", Unit: "frac", Better: "lower"},
	{Name: "ooo.warmup_share", Unit: "frac", Better: "lower"},
	{Name: "ooo.measure_share", Unit: "frac", Better: "lower"},
	{Name: "prog.scan_share", Unit: "frac", Better: "lower"},
	{Name: "prog.restore_share", Unit: "frac", Better: "lower"},
	{Name: "ooo.warm_functional_share", Unit: "frac", Better: "lower"},

	// Per-call and per-instruction costs of the simulation stages.
	{Name: "ooo.measure_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "ooo.warmup_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "vp.fvp_extra_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "ooo.skip_ratio", Unit: "frac", Better: "higher"},
	{Name: "workload.build_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.build_memory_ms", Unit: "ms", Better: "lower"},
	{Name: "ooo.core_reset_ms", Unit: "ms", Better: "lower"},
	{Name: "ooo.warm_caches_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.run_ms_max", Unit: "ms", Better: "lower"},
	{Name: "harness.stage_coverage", Unit: "frac", Better: "higher"},
	{Name: "harness.parallel_efficiency", Unit: "frac", Better: "higher"},
	{Name: "harness.ff_share", Unit: "frac", Better: "higher"},
	{Name: "harness.sampled_insts", Unit: "count", Better: "lower"},
	{Name: "prog.exec_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "prog.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "prog.restore_us", Unit: "us", Better: "lower"},
	{Name: "ooo.warm_functional_ns_per_inst", Unit: "ns/inst", Better: "lower"},

	// Request plane: per-call latencies of the traced calls, work counts
	// and useful-outcome ratios.
	{Name: "store.job_append_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.job_append_p99_us", Unit: "us", Better: "lower"},
	{Name: "store.job_set_state_us", Unit: "us", Better: "lower"},
	{Name: "store.result_get_us", Unit: "us", Better: "lower"},
	{Name: "store.result_put_us", Unit: "us", Better: "lower"},
	{Name: "simd.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "http.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "http.handler_p99_us", Unit: "us", Better: "lower"},
	{Name: "cluster.owner_handler_us", Unit: "us", Better: "lower"},
	{Name: "cluster.forward_extra_ms", Unit: "ms", Better: "lower"},
	{Name: "store.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "store.result_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "cluster.forward_frac", Unit: "frac", Better: "lower"},

	// Go runtime over the untraced stretches.
	{Name: "go.alloc_kb_per_op", Unit: "KB/op", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},

	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}
