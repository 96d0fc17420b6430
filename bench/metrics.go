package main

// metricDef declares one metric exactly as BENCHMARK.json lists it.
// Bound (end-to-end metrics only) is the share of the parent's median
// by which a later change may worsen the metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEndMetrics is what a user of the system sees. Every workload
// reports every one, and none is ever 0 on any of them. The bounds are
// at least three times the widest ten-seed spread (interquartile range
// over median) seen on any workload on the 2-core sandbox VM.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ingest_mbps", "MB/s", higher, 0.20},
	{"stream_p50_ms", "ms", lower, 0.20},
	{"stream_p95_ms", "ms", lower, 0.25},
	{"restore_mbps", "MB/s", higher, 0.25},
	{"restore_p50_ms", "ms", lower, 0.25},
	{"dedup_ratio", "ratio", higher, 0.03},
	{"wan_bytes_per_input_byte", "ratio", lower, 0.03},
	{"edge_bytes_per_input_byte", "ratio", lower, 0.10},
	{"heap_live_mb", "MB", lower, 0.05},
	{"ok_ratio", "ratio", higher, 0.001},
}

// perLayerMetrics are taken in the traced run, from outside each layer.
// bench/README.md says which end-to-end metric each should move, on
// which workload. A metric that does not apply to a workload reads 0.
var perLayerMetrics = []metricDef{
	{Name: "chunk.gear_split_mbps", Unit: "MB/s", Better: higher},
	{Name: "chunk.fixed_split_mbps", Unit: "MB/s", Better: higher},
	{Name: "chunk.sha256_mbps", Unit: "MB/s", Better: higher},
	{Name: "chunk.mean_chunk_bytes", Unit: "B", Better: higher},
	{Name: "chunk.p10_chunk_bytes", Unit: "B", Better: higher},
	{Name: "chunk.p90_chunk_bytes", Unit: "B", Better: lower},
	{Name: "chunk.staged_time_share", Unit: "ratio", Better: lower},
	{Name: "agent.overlap_ratio", Unit: "ratio", Better: higher},
	{Name: "agent.per_stream_overhead_us", Unit: "us", Better: lower},
	{Name: "agent.allocs_per_mb", Unit: "1/MB", Better: lower},
	{Name: "agent.alloc_bytes_per_mb", Unit: "B/MB", Better: lower},
	{Name: "agent.staged_time_share", Unit: "ratio", Better: lower},
	{Name: "process.cpu_s_per_gb", Unit: "s/GB", Better: lower},
	{Name: "process.write_syscalls_per_mb", Unit: "1/MB", Better: lower},
	{Name: "process.written_bytes_per_input_byte", Unit: "ratio", Better: lower},
	{Name: "process.boundary_ingest_mbps", Unit: "MB/s", Better: higher},
	{Name: "hashring.lookup_ns", Unit: "ns", Better: lower},
	{Name: "transport.roundtrip_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_roundtrip_us", Unit: "us", Better: lower},
	{Name: "transport.pipelined_calls_per_s", Unit: "1/s", Better: higher},
	{Name: "transport.large_payload_mbps", Unit: "MB/s", Better: higher},
	{Name: "transport.conn_writes_per_call", Unit: "count", Better: lower},
	{Name: "transport.allocs_per_call", Unit: "count", Better: lower},
	{Name: "transport.staged_time_share", Unit: "ratio", Better: lower},
	{Name: "netem.rtt_error_pct", Unit: "%", Better: lower},
	{Name: "kvstore.batchhas_us", Unit: "us", Better: lower},
	{Name: "kvstore.batchput_us", Unit: "us", Better: lower},
	{Name: "kvstore.node_batchhas_us", Unit: "us", Better: lower},
	{Name: "kvstore.node_batchput_wal_us", Unit: "us", Better: lower},
	{Name: "kvstore.wal_append_us_always", Unit: "us", Better: lower},
	{Name: "kvstore.wal_append_us_interval", Unit: "us", Better: lower},
	{Name: "kvstore.wal_append_us_off", Unit: "us", Better: lower},
	{Name: "kvstore.snapshot_ms", Unit: "ms", Better: lower},
	{Name: "kvstore.recovery_ms", Unit: "ms", Better: lower},
	{Name: "kvstore.heap_bytes_per_entry", Unit: "B", Better: lower},
	{Name: "kvstore.remote_lookup_fraction", Unit: "ratio", Better: lower},
	{Name: "kvstore.wire_bytes_per_chunk", Unit: "B", Better: lower},
	{Name: "kvstore.staged_time_share", Unit: "ratio", Better: lower},
	{Name: "cloudstore.batchupload_mbps", Unit: "MB/s", Better: higher},
	{Name: "cloudstore.putmanifest_us", Unit: "us", Better: lower},
	{Name: "cloudstore.flush_containers_ms", Unit: "ms", Better: lower},
	{Name: "cloudstore.getrecipe_us", Unit: "us", Better: lower},
	{Name: "cloudstore.getcontainer_ms", Unit: "ms", Better: lower},
	{Name: "cloudstore.restore_containers_per_stream", Unit: "count", Better: lower},
	{Name: "cloudstore.restore_fetch_amp", Unit: "ratio", Better: lower},
	{Name: "cloudstore.restore_cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cloudstore.restore_fallback_chunks", Unit: "count", Better: lower},
	{Name: "cloudstore.wire_bytes_per_input_byte", Unit: "ratio", Better: lower},
	{Name: "cloudstore.disk_batchupload_mbps", Unit: "MB/s", Better: higher},
	{Name: "cloudstore.disk_getcontainer_ms", Unit: "ms", Better: lower},
	{Name: "cloudstore.disk_stored_bytes_per_input_byte", Unit: "ratio", Better: lower},
	{Name: "cloudstore.disk_written_bytes_per_input_byte", Unit: "ratio", Better: lower},
	{Name: "cloudstore.disk_write_syscalls_per_mb", Unit: "1/MB", Better: lower},
	{Name: "cloudstore.staged_time_share", Unit: "ratio", Better: lower},
}
