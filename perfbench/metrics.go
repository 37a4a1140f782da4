package main

// metricDef is one reported metric. End-to-end metrics carry the bound by
// which a change may worsen their median; per-layer metrics instead name the
// end-to-end metric and workload they should move. BENCHMARK.json lists the
// same names, units, directions and bounds (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
	moves  string  // per-layer only
}

// endToEnd is what every untraced run (--trace 0) reports. Latencies of
// top-k and of writes, and the failed fraction, are printed for the
// workloads that have them but are not part of the result line, since every
// workload must report every end-to-end metric and none may be 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_ops", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "search_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "search_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "serve_heap_mb", unit: "MB", better: "lower", bound: 0.1},
}

// Workload shorthands for the moves column.
const (
	onU   = "select-uniform"
	onZ   = "select-zipf-cached"
	onC   = "mutable-churn"
	onAll = "all workloads"
)

// perLayer is what every traced run (--trace 1) reports. A metric whose
// layer a workload does not use reads 0 there.
var perLayer = []metricDef{
	// Setup: build (histo, gray, core stream writer, wire).
	{name: "build.partition_s", unit: "s", better: "lower", moves: "setup_s on " + onAll},
	{name: "build.sort_s", unit: "s", better: "lower", moves: "setup_s on " + onAll},
	{name: "build.stream_s", unit: "s", better: "lower", moves: "setup_s on " + onAll},
	// Setup: load (wire, core, mih, planner, lsm, server).
	{name: "load.server_s", unit: "s", better: "lower", moves: "setup_s on " + onAll},
	{name: "load.map_s", unit: "s", better: "lower", moves: "setup_s on " + onU + ", " + onZ},
	{name: "load.decode_s", unit: "s", better: "lower", moves: "setup_s on " + onC},
	{name: "load.tuples_s", unit: "s", better: "lower", moves: "setup_s on " + onU + ", " + onZ},
	{name: "load.mih_build_s", unit: "s", better: "lower", moves: "setup_s, serve_heap_mb on " + onU},
	{name: "load.calibrate_s", unit: "s", better: "lower", moves: "setup_s on " + onU},
	{name: "load.lsm_bootstrap_s", unit: "s", better: "lower", moves: "setup_s on " + onC},
	// The traced run itself.
	{name: "trace.setup_s", unit: "s", better: "lower", moves: "setup_s on " + onAll},
	{name: "trace.setup_recon_err", unit: "ratio", better: "lower", moves: "none: setup spans against traced setup_s"},
	{name: "trace.load_recon_err", unit: "ratio", better: "lower", moves: "none: replayed load steps against load.server_s"},
	{name: "trace.calibrate_share", unit: "ratio", better: "lower", moves: "setup_s on " + onU},
	{name: "trace.throughput_ops", unit: "ops/s", better: "higher", moves: "throughput_ops on " + onAll},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: traced against untraced throughput"},
	// client.
	{name: "client.search_ns.p50", unit: "ns", better: "lower", moves: "search_p50_ms on " + onAll},
	{name: "client.search_ns.p99", unit: "ns", better: "lower", moves: "search_p90_ms on " + onAll},
	{name: "client.topk_ns.p50", unit: "ns", better: "lower", moves: "throughput_ops on " + onU},
	{name: "client.topk_ns.p99", unit: "ns", better: "lower", moves: "throughput_ops on " + onU},
	{name: "client.write_ns.p50", unit: "ns", better: "lower", moves: "throughput_ops on " + onC},
	{name: "client.write_ns.p99", unit: "ns", better: "lower", moves: "search_p90_ms on " + onC},
	{name: "client.attempt_ns.p50", unit: "ns", better: "lower", moves: "search_p50_ms on " + onAll},
	{name: "client.attempt_ns.p99", unit: "ns", better: "lower", moves: "search_p90_ms on " + onAll},
	{name: "client.retries", unit: "count", better: "lower", moves: "search_p90_ms on " + onAll},
	{name: "client.hedges", unit: "count", better: "lower", moves: "search_p90_ms on " + onAll},
	{name: "client.sheds", unit: "count", better: "lower", moves: "throughput_ops on " + onAll},
	{name: "client.failed_frac", unit: "ratio", better: "lower", moves: "throughput_ops on " + onAll},
	// wire.
	{name: "wire.req_encode_ns", unit: "ns", better: "lower", moves: "search_p50_ms on " + onZ},
	{name: "wire.req_parse_ns", unit: "ns", better: "lower", moves: "search_p50_ms on " + onZ},
	{name: "wire.resp_encode_ns", unit: "ns", better: "lower", moves: "search_p50_ms, throughput_ops on " + onZ},
	{name: "wire.resp_parse_ns", unit: "ns", better: "lower", moves: "search_p50_ms, throughput_ops on " + onZ},
	{name: "wire.resp_bytes", unit: "bytes", better: "lower", moves: "throughput_ops on " + onZ},
	// server.
	{name: "server.req_ns.p50", unit: "ns", better: "lower", moves: "search_p50_ms on " + onU + ", " + onC},
	{name: "server.req_ns.p99", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU + ", " + onC},
	{name: "server.admission_wait_ns.p50", unit: "ns", better: "lower", moves: "search_p50_ms on " + onU + ", " + onC},
	{name: "server.admission_wait_ns.p99", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU + ", " + onC},
	{name: "server.ids_per_req", unit: "count", better: "lower", moves: "throughput_ops on " + onZ},
	{name: "server.index_heap_gauge_mb", unit: "MB", better: "higher", moves: "none: compare with mem.serve_heap_mb (gauge truth)"},
	// planner.
	{name: "planner.plan_ns", unit: "ns", better: "lower", moves: "search_p50_ms (h<=2) on " + onU},
	{name: "planner.share.ha", unit: "ratio", better: "higher", moves: "search_p50_ms on " + onU},
	{name: "planner.share.mih", unit: "ratio", better: "higher", moves: "search_p50_ms on " + onU},
	{name: "planner.share.scan", unit: "ratio", better: "lower", moves: "search_p90_ms on " + onU},
	{name: "planner.hit_rate", unit: "ratio", better: "higher", moves: "search_p50_ms, search_p90_ms on " + onU},
	{name: "planner.regret", unit: "ratio", better: "lower", moves: "search_p90_ms on " + onU},
	// core (HA walk). Top-k is HA-only: planner changes must not move it.
	{name: "core.search_ns.h0_2", unit: "ns", better: "lower", moves: "search_p50_ms on " + onU},
	{name: "core.search_ns.h3_5", unit: "ns", better: "lower", moves: "search_p50_ms on " + onU},
	{name: "core.search_ns.h6_8", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU},
	{name: "core.topk_ns", unit: "ns", better: "lower", moves: "throughput_ops on " + onU},
	{name: "core.dist_comps", unit: "count", better: "lower", moves: "search_p50_ms on " + onU},
	{name: "core.nodes_visited", unit: "count", better: "lower", moves: "search_p50_ms on " + onU},
	{name: "core.leaves_checked", unit: "count", better: "lower", moves: "search_p50_ms on " + onU},
	// mih and scan.
	{name: "mih.search_ns.h0_2", unit: "ns", better: "lower", moves: "search_p50_ms on " + onU},
	{name: "mih.search_ns.h3_5", unit: "ns", better: "lower", moves: "search_p50_ms on " + onU},
	{name: "mih.search_ns.h6_8", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU},
	{name: "scan.search_ns.h0_2", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU},
	{name: "scan.search_ns.h3_5", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU},
	{name: "scan.search_ns.h6_8", unit: "ns", better: "lower", moves: "search_p90_ms on " + onU},
	// qcache.
	{name: "qcache.hit_rate", unit: "ratio", better: "higher", moves: "throughput_ops, search_p50_ms on " + onZ},
	{name: "qcache.evictions", unit: "count", better: "lower", moves: "throughput_ops on " + onZ},
	{name: "qcache.entries", unit: "count", better: "higher", moves: "serve_heap_mb on " + onZ},
	{name: "qcache.get_ns", unit: "ns", better: "lower", moves: "search_p50_ms on " + onZ},
	{name: "qcache.put_ns", unit: "ns", better: "lower", moves: "search_p50_ms on " + onZ},
	// lsm.
	{name: "lsm.insert_ns", unit: "ns", better: "lower", moves: "throughput_ops on " + onC},
	{name: "lsm.search_ns", unit: "ns", better: "lower", moves: "search_p50_ms on " + onC},
	{name: "lsm.seals", unit: "count", better: "lower", moves: "search_p90_ms on " + onC},
	{name: "lsm.compactions", unit: "count", better: "lower", moves: "search_p90_ms on " + onC},
	{name: "lsm.seal_ns.p50", unit: "ns", better: "lower", moves: "search_p90_ms on " + onC},
	{name: "lsm.seal_ns.p99", unit: "ns", better: "lower", moves: "search_p90_ms on " + onC},
	{name: "lsm.compact_ns", unit: "ns", better: "lower", moves: "search_p90_ms on " + onC},
	{name: "lsm.segments_max", unit: "count", better: "lower", moves: "search_p50_ms on " + onC},
	// Go runtime.
	{name: "mem.gc_cycles", unit: "count", better: "lower", moves: "search_p90_ms on " + onAll},
	{name: "mem.gc_pause_ms", unit: "ms", better: "lower", moves: "search_p90_ms on " + onAll},
	{name: "mem.mapped_mb", unit: "MB", better: "lower", moves: "serve_heap_mb on " + onU + ", " + onZ},
	{name: "mem.serve_heap_mb", unit: "MB", better: "lower", moves: "serve_heap_mb on " + onAll},
}
