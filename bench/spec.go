package main

// The benchmark's contract: workload and metric names, units, directions
// and regression bounds. BENCHMARK.json at the repository root states the
// same tables for the acceptance driver; TestSpecMatchesManifest keeps the
// two in step.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Fixed order: a full run set walks the workloads in this order.
var workloads = []workloadSpec{
	{"qbe_paper", "query by example with a never-seen mesh on the 113-shape durable node: extraction does the work, the result cache and the scan none"},
	{"ingest_mixed", "one writer inserting fresh meshes while readers repeat 16 weighted queries: every commit invalidates cache and columns"},
	{"search_scan", "distinct weighted top-10 vector queries on a large in-memory node: working set far above the cache, scan does the work"},
	{"search_hot", "Zipf(1.1) over 256 fixed queries that fit the cache: gate, decode, cache lookup and net/http only, scan bypassed"},
	{"cluster_scan", "the search_scan request stream through a coordinator over 4 shards: fan-out, bounds round and merge on the blocking path"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics are reported by every workload with --trace 0. Bound is
// the share of the parent's median by which the metric may worsen. One
// bound serves all five workloads, so each is set by the noisiest of them
// on the 2-core sandbox (README.md, "Steadiness"): at least 1.8x the widest
// interquartile spread seen over ten seeds on a quiet host.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.20},
	{"search_p50_ms", "ms", "lower", 0.20},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"insert_per_s", "1/s", "higher", 0.20},
	{"insert_p50_ms", "ms", "lower", 0.20},
	{"recall_at_10", "share", "higher", 0.05},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// perLayer metrics are reported by every workload with --trace 1; they
// carry no bound. The prefix is the package the time or count belongs to.
var perLayer = []metricSpec{
	{Name: "geom.parse_off_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sanitize_ms", Unit: "ms", Better: "lower"},
	{Name: "moments.raw_ms", Unit: "ms", Better: "lower"},
	{Name: "moments.normalize_ms", Unit: "ms", Better: "lower"},
	{Name: "voxel.voxelize_ms", Unit: "ms", Better: "lower"},
	{Name: "voxel.filled_voxels", Unit: "count", Better: "lower"},
	{Name: "skeleton.thin_ms", Unit: "ms", Better: "lower"},
	{Name: "skeleton.removed_share", Unit: "share", Better: "higher"},
	{Name: "skelgraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "skelgraph.eigen_ms", Unit: "ms", Better: "lower"},
	{Name: "features.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "features.stage_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "core.extract_untrusted_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ingest_batch_per_s", Unit: "1/s", Better: "higher"},
	{Name: "shapedb.insert_mem_us", Unit: "us", Better: "lower"},
	{Name: "shapedb.insert_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "shapedb.journal_bytes_per_insert", Unit: "B", Better: "lower"},
	{Name: "shapedb.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "shapedb.knn_us", Unit: "us", Better: "lower"},
	{Name: "rtree.node_accesses_per_knn", Unit: "count", Better: "lower"},
	{Name: "core.search_auto_us", Unit: "us", Better: "lower"},
	{Name: "core.search_exact_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_coarse_us", Unit: "us", Better: "lower"},
	{Name: "core.search_rtree_us", Unit: "us", Better: "lower"},
	{Name: "colstore.build_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.append_us", Unit: "us", Better: "lower"},
	{Name: "colstore.topk_w1_us", Unit: "us", Better: "lower"},
	{Name: "colstore.topk_wn_us", Unit: "us", Better: "lower"},
	{Name: "workpool.scan_speedup", Unit: "ratio", Better: "higher"},
	{Name: "colstore.coarse_topk_us", Unit: "us", Better: "lower"},
	{Name: "colstore.exact_evals_per_query", Unit: "count", Better: "lower"},
	{Name: "colstore.exact_eval_share", Unit: "share", Better: "lower"},
	{Name: "colstore.tree_seeded_share", Unit: "share", Better: "higher"},
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_miss_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.insert_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.journal_bytes_per_shape", Unit: "B", Better: "lower"},
	{Name: "server.qcache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.degraded_share", Unit: "share", Better: "lower"},
	{Name: "server.shed_share", Unit: "share", Better: "lower"},
	{Name: "scatter.search_us", Unit: "us", Better: "lower"},
	{Name: "scatter.shard_rtt_us", Unit: "us", Better: "lower"},
	{Name: "scatter.shard_rtt_p95_us", Unit: "us", Better: "lower"},
	{Name: "scatter.overhead_us", Unit: "us", Better: "lower"},
	{Name: "scatter.bounds_us", Unit: "us", Better: "lower"},
	{Name: "scatter.partial_share", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.Name == name {
			return i
		}
	}
	return -1
}

// sizes scales the fixtures and phases. full is what BENCHMARK.json runs;
// smoke is small enough for a unit test that drives all five workloads.
type sizes struct {
	shapes   int // corpus shapes loaded into the durable paper node
	rows     int // synthetic records on the large node and on the cluster
	clusters int // Gaussian clusters the synthetic records are drawn from
	hot      int // distinct requests of the search_hot set
	setups   int // fixture set-ups per untraced run; setup_s is their median
	tail     int // single inserts closing a read-only workload
	warmMS   int // warm-up before the measured window
}

var (
	fullSizes  = sizes{shapes: 113, rows: 50000, clusters: 256, hot: 256, setups: 3, tail: 24, warmMS: 1500}
	smokeSizes = sizes{shapes: 16, rows: 2000, clusters: 16, hot: 64, setups: 1, tail: 4, warmMS: 200}
)
