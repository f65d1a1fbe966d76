package bench

// This file is the benchmark's contract: the workloads, the end-to-end
// metrics with their regression bounds, the per-layer metrics, and the fixed
// open-loop rates. BENCHMARK.json at the root of the repository repeats the
// first three; a test keeps the two in step.

// WorkloadSpec names one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// RunSeconds is how long one run measures: half of it closed loop, half
// open loop (a 2 s warm-up and the set-up come on top).
const RunSeconds = 20

// Open-loop arrival rates, operations per second: 40 % of the closed-loop
// throughput measured when the benchmark was defined (see README.md),
// rounded to two significant figures. They are constants so that a later
// change is measured at the same offered load as its parent.
const (
	ratePointMem  = 7800 // closed loop measured 17.0-20.6 k ops/s
	ratePointCold = 1500 // 3.9-4.0 k ops/s
	rateTxn       = 640  // 1.6-2.2 k ops/s
	rateFiveLang  = 2200 // 4.9-5.7 k ops/s
)

// Workloads lists the four workloads.
var Workloads = []WorkloadSpec{
	{"sql_point_mem", "skewed SQL point reads + 5% updates, all in memory: per-statement path (wire, server, plan cache, relkms, autocommit, routing, index) with storage idle"},
	{"five_lang_mix", "the paper's traffic: Daplex, CODASYL-DML and ABDL on one functional database plus SQL and DL/I, equal shares: translation, broadcast merge, scans, large replies"},
	{"txn_durable_paged", "explicit transfer transactions on backed stores with journal, checkpoints and a WATCH, then crash recovery: locks, group commit, undo, MVCC, write-through, cdc"},
	{"sql_point_paged_cold", "uniform read-only SQL over backed stores whose pools hold 1/16 of the heap: pager miss/evict and cell decode dominate; same statements as sql_point_mem"},
}

// WorkloadNames returns the workload names in order.
func WorkloadNames() []string {
	out := make([]string, len(Workloads))
	for i, w := range Workloads {
		out[i] = w.Name
	}
	return out
}

// EndToEnd lists what a user of the system sees, with the bound by which
// each may worsen before a change counts as a regression.
var EndToEnd = []MetricSpec{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_kb_per_op", "KiB", "lower", 0.03},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the traced run's metrics, named layer.metric after the
// module they measure. A layer a workload never enters reports 0.
var PerLayer = []MetricSpec{
	// client / server / wire
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.roundtrip_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.refused_total", Unit: "count", Better: "lower"},
	{Name: "wire.encode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.reply_bytes", Unit: "B", Better: "lower"},
	// parsers and the plan cache
	{Name: "sql.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "daplex.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "codasyl.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "dli.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "abdl.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sql.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "daplex.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "codasyl.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "dli.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "abdl.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "plancache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "plancache.hit_share", Unit: "share", Better: "higher"},
	// kernel mapping systems
	{Name: "relkms.self_us", Unit: "us", Better: "lower"},
	{Name: "kms.self_us", Unit: "us", Better: "lower"},
	{Name: "dapkms.self_us", Unit: "us", Better: "lower"},
	{Name: "hiekms.self_us", Unit: "us", Better: "lower"},
	{Name: "relkms.abdl_reqs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "kms.abdl_reqs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "dapkms.abdl_reqs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "hiekms.abdl_reqs_per_stmt", Unit: "count", Better: "lower"},
	// core sessions
	{Name: "core.session_self_us", Unit: "us", Better: "lower"},
	{Name: "core.sql.stmt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.daplex.stmt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.dml.stmt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.dli.stmt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.abdl.stmt_p50_us", Unit: "us", Better: "lower"},
	// kernel controller and transactions
	{Name: "kc.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower"},
	{Name: "txn.lock_wait_share", Unit: "share", Better: "lower"},
	{Name: "txn.deadlock_share", Unit: "share", Better: "lower"},
	{Name: "txn.abort_retry_share", Unit: "share", Better: "lower"},
	{Name: "txn.mvcc_versions", Unit: "count", Better: "lower"},
	{Name: "txn.gc_pruned_total", Unit: "count", Better: "higher"},
	{Name: "kc.journal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "kc.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "kc.checkpoint_stall_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "kc.recovery_s", Unit: "s", Better: "lower"},
	{Name: "kc.recover_replayed_entries", Unit: "count", Better: "lower"},
	// multi-backend kernel
	{Name: "mbds.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "mbds.backends_touched_per_req", Unit: "count", Better: "lower"},
	// kernel database (one partition)
	{Name: "kdb.exec_point_us", Unit: "us", Better: "lower"},
	{Name: "kdb.exec_scan_us", Unit: "us", Better: "lower"},
	{Name: "kdb.allocs_per_exec", Unit: "count", Better: "lower"},
	{Name: "kdb.records_examined_per_result", Unit: "count", Better: "lower"},
	{Name: "kdb.result_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "kdb.resident_records", Unit: "count", Better: "lower"},
	// pager
	{Name: "pager.hit_share", Unit: "share", Better: "higher"},
	{Name: "pager.misses_per_op", Unit: "count", Better: "lower"},
	{Name: "pager.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "pager.writebacks_per_commit", Unit: "count", Better: "lower"},
	{Name: "pager.overflow_total", Unit: "count", Better: "lower"},
	{Name: "pager.pin_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "pager.pin_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "pager.heap_get_ns", Unit: "ns", Better: "lower"},
	{Name: "pager.file_bytes_per_live_byte", Unit: "ratio", Better: "lower"},
	// kernel formatting system
	{Name: "kfs.format_ns", Unit: "ns", Better: "lower"},
	{Name: "kfs.bytes_per_row", Unit: "B", Better: "lower"},
	// change capture
	{Name: "cdc.deliver_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "cdc.deliver_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "cdc.dropped_total", Unit: "count", Better: "lower"},
	{Name: "cdc.resyncs_total", Unit: "count", Better: "lower"},
	// process and rig
	{Name: "gc.cpu_share", Unit: "share", Better: "lower"},
	{Name: "gc.pause_p99_us", Unit: "us", Better: "lower"},
	{Name: "rig.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rig.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "rig.failed_share", Unit: "share", Better: "lower"},
}

// Benchmark is the content of BENCHMARK.json.
type Benchmark struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// Spec returns the benchmark's contract as BENCHMARK.json states it.
func Spec() Benchmark {
	return Benchmark{
		Command:    []string{"bash", "rig/run.sh"},
		Paths:      []string{"rig"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
}
