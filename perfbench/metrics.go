package main

import (
	"fmt"
	"strings"
)

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eMetrics = []string{
	"setup_s", "lookup_p50_us", "cpu_us_per_lookup", "closed_qps",
	"rss_mb", "emb_per_read", "vclock.qps", "vclock.p99_us", "vclock.eff_bw_mbps",
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload bypasses reports 0.
var layerMetrics = []string{
	"lookup_p90_us", "lookup_p99_us",
	"server.request_us.p50", "server.request_us.p99", "server.resp_bytes_per_lookup",
	"server.coalesce_batch_mean", "server.coalesce_wait_us.p50", "server.coalesce_wait_us.p99",
	"server.coalesce_bypass_frac", "server.shed_frac", "server.partial_frac",
	"serving.lookup_us.p50", "serving.lookup_us.p99", "serving.batch_us.p50",
	"serving.allocs_per_lookup", "serving.bytes_per_lookup", "serving.pages_per_lookup",
	"serving.cache_hit_frac", "serving.max_shard_depth_mean", "serving.retries_per_lookup",
	"serving.failed_keys", "serving.vclock.sort_ns", "serving.vclock.select_ns",
	"serving.vclock.ssd_wait_ns", "serving.vclock.other_ns",
	"selection.onepass_us.p50", "selection.onepass_us.p99", "selection.allocs_per_call",
	"selection.pages_per_query", "selection.candidate_pages_per_query", "selection.invert_scans_per_query",
	"cache.hit_frac", "cache.evictions_per_lookup", "cache.get_ns", "cache.put_ns", "cache.allocs_per_put",
	"ssd.read_us.p50", "ssd.read_us.p99", "ssd.qp_read_us.p50", "ssd.reads_per_lookup",
	"ssd.shard_skew", "ssd.queue_peak", "ssd.vclock.busy_frac", "ssd.eff_bw_mbps",
	"store.extract_ns_per_key",
	"setup.hypergraph_s", "setup.placement_s", "setup.despread_s", "setup.store_s",
	"setup.files_s", "setup.engine_s",
	"placement.replica_frac", "placement.pages", "placement.mean_shard_depth",
	"refresh.placement_s", "refresh.request_s", "refresh.swap_gap_us",
	"refresh.emb_per_read_before", "refresh.emb_per_read_after",
	"mem.heap_inuse_mb",
	"bench.gen_lag_us.p50", "bench.gen_lag_us.p99", "bench.conn_wait_us.p50",
	"bench.trace_overhead_frac", "bench.request_self_us.p50",
}

// unitOf returns the unit a metric is reported in.
func unitOf(name string) string {
	switch name {
	case "cpu_us_per_lookup":
		return "us"
	case "server.resp_bytes_per_lookup", "serving.bytes_per_lookup":
		return "bytes"
	case "ssd.shard_skew":
		return "ratio"
	case "store.extract_ns_per_key":
		return "ns"
	}
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_us.p50", "us"}, {"_us.p99", "us"}, {"_ns", "ns"}, {"_s", "s"},
		{"_frac", "fraction"}, {"_mbps", "MB/s"}, {"_mb", "MiB"}, {"qps", "1/s"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// only returns the named metrics of m, failing if any is missing.
func (m metricSet) only(names []string) (metricSet, error) {
	out := make(metricSet, len(names))
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}
