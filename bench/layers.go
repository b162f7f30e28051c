package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"threedess/internal/colstore"
	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/moments"
	"threedess/internal/scatter"
	"threedess/internal/server"
	"threedess/internal/shapedb"
	"threedess/internal/skeleton"
	"threedess/internal/skelgraph"
	"threedess/internal/voxel"
)

// The traced run: every workload is rerun with one client for a fixed op
// count. Each op is a root span; under it sit the real HTTP attempt and the
// benchmark's own serial replay of the op's input through the exported
// functions of each layer. Per-layer metrics are medians of those spans.
//
// A run reports every per-layer metric, so it walks all five workloads, and
// it walks them the same way whichever --workload names: a metric is the
// same population of ops in every traced run. The named workload only
// supplies the cache-hit share and the tracing-overhead comparison.

// Op counts of the traced pass at --seconds 10, sized so the whole pass
// takes about as long as an untraced run on the 2-core sandbox. Counts, not
// deadlines, keep the work counters exact per seed.
const (
	// Extraction replays, ops 0..199 of the qbe_paper stream: the corpus
	// walk once and three quarters again. A replay costs ~45 ms, so only
	// every 4th op also runs the whole extractor, every 4th
	// ExtractUntrusted, and every 8th the HTTP op itself.
	tracedExtractOps = 200
	// HTTP inserts, each replayed (parse, extract, durable insert) and
	// followed by three reader searches.
	tracedInsertOps  = 24
	tracedScanOps    = 400 // every 4th also runs the exact scan (~22 ms)
	tracedHotOps     = 2000
	tracedClusterOps = 200
)

// layerRun accumulates one traced run.
type layerRun struct {
	cfg    runConfig
	g      *generator
	t      *tracer
	chk    *checker
	client *http.Client
	buf    bytes.Buffer
	values map[string]float64 // per-layer metric → value
	// scanMgr is the benchmark's own column manager over the large node's
	// database. Nothing else refreshes it, so a Store call on it is timed
	// without racing the node's Watch loop.
	scanMgr *colstore.Manager
	// mem and dur are scratch databases the replay inserts into: in memory,
	// and journalled in durDir with the shipped flush policy.
	mem, dur *shapedb.DB
	durDir   string
	info     map[string]float64
	// Header counts over every traced HTTP op, and over the named
	// workload's searches alone.
	ops, degraded, shed int
	ownOps, ownHits     int
}

// opCount scales a 10-second op count to the run's --seconds.
func (lr *layerRun) opCount(at10s int) int {
	return max(4, int(float64(at10s)*lr.cfg.seconds/10))
}

// httpOp performs the op's real HTTP attempt as a child span.
func (lr *layerRun) httpOp(root int, req, workload string, kind opKind, url string, body []byte) (reply, time.Duration) {
	var r reply
	d := lr.t.do(root, req, "http", func() { r = post(lr.client, url+kind.path(), body, &lr.buf) })
	lr.ops++
	if r.degraded || r.partial {
		lr.degraded++
	}
	if r.status == http.StatusTooManyRequests {
		lr.shed++
	}
	if workload == lr.cfg.workload && kind == opSearch {
		lr.ownOps++
		if r.cache == "hit" {
			lr.ownHits++
		}
	}
	lr.chk.check(!r.failed(kind), "%s: %v", req, r)
	return r, d
}

// overheadPass measures what tracing costs the named workload: as many ops
// again without spans, and the p50 difference as a share.
func (lr *layerRun) overheadPass(workload string, url string, n int, body func(i uint64) (opKind, []byte), traced []float64) {
	if workload != lr.cfg.workload {
		return
	}
	// A disjoint part of the stream that walks the same corpus parts.
	offset := uint64(len(lr.g.shapes)) << 20
	var plain []float64
	for i := 0; i < n; i++ {
		kind, b := body(uint64(i) + offset)
		t0 := time.Now()
		r := post(lr.client, url+kind.path(), b, &lr.buf)
		plain = append(plain, float64(time.Since(t0))/1e6)
		lr.chk.check(!r.failed(kind), "%s untraced %d: %v", workload, i, r)
	}
	if p := median(plain); p > 0 {
		lr.values["bench.trace_overhead_share"] = (median(traced) - p) / p
	}
}

func (lr *layerRun) setMedianMS(metric, spanName string) {
	lr.values[metric] = median(lr.t.durationsMS(spanName))
}

func (lr *layerRun) setMedianUS(metric, spanName string) {
	lr.values[metric] = median(lr.t.durationsMS(spanName)) * 1e3
}

// stageReplay is the serial replay of extraction, stage by stage, each a
// span. It returns the four core vectors it arrived at.
func (lr *layerRun) stageReplay(root int, req string, m *geom.Mesh, filled, removed *[]float64) (features.Set, float64, error) {
	t := lr.t
	opts := features.NewExtractor(coreOpts).Options()
	var (
		inv     moments.Invariants
		norm    *geom.Mesh
		nz      *moments.Normalization
		pm      [3]float64
		grid    *voxel.Grid
		skel    *voxel.Grid
		graph   *skelgraph.Graph
		sig     []float64
		err     error
		stageMS float64
	)
	add := func(name string, fn func()) {
		stageMS += float64(t.do(root, req, name, fn)) / 1e6
	}
	add("moments.raw", func() { inv = moments.InvariantsOf(moments.OfMesh(m).Central()) })
	add("moments.normalize", func() {
		norm = m.Clone()
		if nz, err = moments.Normalize(norm, opts.TargetVolume); err == nil {
			pm = moments.PrincipalMoments(moments.OfMesh(norm))
		}
	})
	if err != nil {
		return nil, 0, err
	}
	add("voxel.voxelize", func() { grid, err = voxel.Voxelize(norm, opts.VoxelResolution) })
	if err != nil {
		return nil, 0, err
	}
	add("skeleton.thin", func() { skel = skeleton.Thin(grid, skeleton.DefaultOptions()) })
	add("skelgraph.build", func() { graph = skelgraph.Build(skel) })
	add("skelgraph.eigen", func() { sig = graph.EigenvalueSignature(opts.EigenDim) })
	n := float64(grid.Count())
	*filled = append(*filled, n)
	*removed = append(*removed, (n-float64(skel.Count()))/n)
	// The geometric parameters are assembled from exported pieces too; they
	// cost microseconds and are not a stage of their own.
	longAR, midAR := norm.AspectRatios()
	return features.Set{
		features.MomentInvariants: {inv.F1, inv.F2, inv.F3},
		features.GeometricParams:  {longAR, midAR, norm.SurfaceArea(), nz.Scale, math.Cbrt(nz.OriginalVolume)},
		features.PrincipalMoments: {pm[0], pm[1], pm[2]},
		features.Eigenvalues:      sig,
	}, stageMS, nil
}

// sameSet compares two feature sets bit for bit.
func sameSet(a, b features.Set) bool {
	return maps.EqualFunc(a, b, func(x, y features.Vector) bool { return slices.Equal(x, y) })
}

// durableInsert replays the storage half of an insert on the scratch
// databases and returns what the journalled one took.
func (lr *layerRun) durableInsert(root int, req string, group int, clean *geom.Mesh, set features.Set) (d time.Duration, journalBytes int64) {
	var err error
	before := journalSize(lr.durDir)
	d = lr.t.do(root, req, "shapedb.insert_durable", func() { _, err = lr.dur.Insert("replay", group, clean, set) })
	journalBytes = journalSize(lr.durDir) - before
	if err == nil {
		lr.t.do(root, req, "shapedb.insert_mem", func() { _, err = lr.mem.Insert("replay", group, clean, set) })
	}
	lr.chk.check(err == nil, "%s: replay insert: %v", req, err)
	return d, journalBytes
}

// traceQBE replays qbe_paper: every extraction layer, stage by stage, and
// what storing and looking up the result costs shapedb.
func (lr *layerRun) traceQBE(fx *fixture) {
	t, ext, db := lr.t, fx.eng.Extractor(), fx.eng.DB()
	n := lr.opCount(tracedExtractOps)
	var filled, removed, stageSum, accesses, journalPer, httpMS []float64
	for i := 0; i < n; i++ {
		s := lr.g.shapeAt(uint64(i))
		off := lr.g.posedOFF("qbe", uint64(i), s)
		req := fmt.Sprintf("qbe_paper#%d", i)
		root := t.begin(0, req, "qbe_paper.op")
		if i%8 == 0 {
			_, d := lr.httpOp(root, req, "qbe_paper", opSearch, fx.url, lr.g.qbeRequest(uint64(i)))
			httpMS = append(httpMS, float64(d)/1e6)
		}

		var mesh, clean *geom.Mesh
		var err error
		t.do(root, req, "geom.parse_off", func() { mesh, err = geom.ReadOFFLimits(strings.NewReader(off), geom.ReadLimits{}) })
		if err == nil {
			t.do(root, req, "core.sanitize", func() { clean, err = core.SanitizeMesh(mesh) })
		}
		if err != nil {
			lr.chk.check(false, "%s: replay: %v", req, err)
			t.end(root)
			continue
		}
		replayed, sum, err := lr.stageReplay(root, req, clean, &filled, &removed)
		lr.chk.check(err == nil, "%s: stage replay: %v", req, err)
		if err != nil {
			t.end(root)
			continue
		}
		switch i % 4 {
		case 0:
			// features.stage_sum_ms is taken over the ops features.extract_ms
			// is, so their gap is the extractor's overlap and not a
			// difference between parts.
			var set features.Set
			t.do(root, req, "features.extract", func() { set, err = ext.Extract(clean, features.CoreKinds) })
			lr.chk.check(err == nil && sameSet(set, replayed),
				"%s: stage replay %v differs from Extract %v (%v)", req, replayed, set, err)
			stageSum = append(stageSum, sum)
		case 2:
			t.do(root, req, "core.extract_untrusted", func() { _, _, _, err = fx.eng.ExtractUntrusted(mesh, features.CoreKinds) })
			lr.chk.check(err == nil, "%s: ExtractUntrusted: %v", req, err)
		}
		_, grew := lr.durableInsert(root, req, lr.g.shapes[s].Group, clean, replayed)
		journalPer = append(journalPer, float64(grew))
		t.do(root, req, "shapedb.snapshot", func() { db.SnapshotVersion() })
		before, _, _ := db.IndexStats(features.PrincipalMoments)
		t.do(root, req, "shapedb.knn", func() { _, err = db.KNN(features.PrincipalMoments, replayed[features.PrincipalMoments], 10) })
		after, _, _ := db.IndexStats(features.PrincipalMoments)
		accesses = append(accesses, float64(after-before))
		t.end(root)
	}
	lr.overheadPass("qbe_paper", fx.url, len(httpMS), func(i uint64) (opKind, []byte) { return opSearch, lr.g.qbeRequest(i * 8) }, httpMS)

	lr.setMedianMS("geom.parse_off_ms", "geom.parse_off")
	lr.setMedianMS("core.sanitize_ms", "core.sanitize")
	lr.setMedianMS("moments.raw_ms", "moments.raw")
	lr.setMedianMS("moments.normalize_ms", "moments.normalize")
	lr.setMedianMS("voxel.voxelize_ms", "voxel.voxelize")
	lr.setMedianMS("skeleton.thin_ms", "skeleton.thin")
	lr.setMedianMS("skelgraph.build_ms", "skelgraph.build")
	lr.setMedianMS("skelgraph.eigen_ms", "skelgraph.eigen")
	lr.setMedianMS("features.extract_ms", "features.extract")
	lr.setMedianMS("core.extract_untrusted_ms", "core.extract_untrusted")
	lr.setMedianMS("shapedb.insert_durable_ms", "shapedb.insert_durable")
	lr.setMedianUS("shapedb.insert_mem_us", "shapedb.insert_mem")
	lr.setMedianUS("shapedb.snapshot_us", "shapedb.snapshot")
	lr.setMedianUS("shapedb.knn_us", "shapedb.knn")
	lr.values["features.stage_sum_ms"] = median(stageSum)
	lr.values["voxel.filled_voxels"] = median(filled)
	lr.values["skeleton.removed_share"] = median(removed)
	lr.values["shapedb.journal_bytes_per_insert"] = median(journalPer)
	lr.values["rtree.node_accesses_per_knn"] = median(accesses)
	lr.info["qbe_paper.traced_ops"] = float64(n)
}

// ingestBatch times Engine.IngestBatch of up to 32 corpus parts on a
// scratch in-memory engine, workers = nproc: the path a corpus load takes.
func (lr *layerRun) ingestBatch() error {
	db, err := shapedb.Open("", coreOpts)
	if err != nil {
		return err
	}
	defer db.Close()
	eng := core.NewEngine(db).SetWorkers(runtime.NumCPU())
	n := min(32, len(lr.g.shapes))
	items := make([]core.IngestShape, n)
	for j := range items {
		s := lr.g.shapes[lr.g.shapeAt(uint64(j))]
		items[j] = core.IngestShape{Name: s.Name, Group: s.Group, Mesh: s.Mesh}
	}
	d := lr.t.do(0, "ingest_batch", "core.ingest_batch", func() { _, err = eng.IngestBatch(context.Background(), items, nil) })
	if err != nil {
		return err
	}
	lr.values["core.ingest_batch_per_s"] = float64(n) / d.Seconds()
	return nil
}

// traceIngest replays ingest_mixed: one insert, then three of the reader's
// searches, alternating on one client.
func (lr *layerRun) traceIngest(fx *fixture) {
	t := lr.t
	pairs := lr.g.idQueries()
	n := lr.opCount(tracedInsertOps)
	var overhead, insertMS []float64
	journal0, reads := journalSize(fx.dir), uint64(0)
	for j := 0; j < n; j++ {
		s := lr.g.shapeAt(uint64(j))
		off := lr.g.posedOFF("ingest", uint64(j), s)
		req := fmt.Sprintf("ingest_mixed#w%d", j)
		root := t.begin(0, req, "ingest_mixed.insert")
		_, d := lr.httpOp(root, req, "ingest_mixed", opInsert, fx.url, lr.g.insertRequest("ingest", uint64(j)))
		insertMS = append(insertMS, float64(d)/1e6)
		var (
			mesh, clean *geom.Mesh
			set         features.Set
			err         error
		)
		replay := t.do(root, req, "geom.parse_off", func() { mesh, err = geom.ReadOFFLimits(strings.NewReader(off), geom.ReadLimits{}) })
		if err == nil {
			replay += t.do(root, req, "core.extract_untrusted", func() { set, _, clean, err = fx.eng.ExtractUntrusted(mesh, features.CoreKinds) })
		}
		if err != nil {
			lr.chk.check(false, "%s: replay: %v", req, err)
			t.end(root)
			continue
		}
		stored, _ := lr.durableInsert(root, req, lr.g.shapes[s].Group, clean, set)
		replay += stored
		overhead = append(overhead, float64(d-replay)/1e6)
		t.end(root)

		for k := 0; k < 3; k++ {
			req := fmt.Sprintf("ingest_mixed#r%d", reads)
			root := t.begin(0, req, "ingest_mixed.search")
			q, _ := lr.g.readerQuery(pairs, reads)
			lr.httpOp(root, req, "ingest_mixed", opSearch, fx.url, q.body())
			t.end(root)
			reads++
		}
	}
	journalGrowth := journalSize(fx.dir) - journal0
	lr.overheadPass("ingest_mixed", fx.url, n, func(i uint64) (opKind, []byte) {
		return opInsert, lr.g.insertRequest("ingest", i)
	}, insertMS)

	lr.values["server.insert_overhead_ms"] = median(overhead)
	lr.values["server.journal_bytes_per_shape"] = float64(journalGrowth) / float64(n)
	lr.info["ingest_mixed.traced_inserts"] = float64(n)
}

// serveDirect runs a request through the server's handler with no TCP.
func serveDirect(srv *server.Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rec, r)
	return rec
}

func resultIDs(rs []core.Result) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func answerIDs(body []byte) []int64 {
	rs, _ := decodeAnswer(body)
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// traceScan replays search_scan on the large node's own engine and column
// stores.
func (lr *layerRun) traceScan(fx *fixture) error {
	t, eng, ctx := lr.t, fx.eng, context.Background()
	nproc := runtime.NumCPU()

	// colstore.build: a fresh manager's first Store call per kind is the
	// build the node's first query of that kind paid during set-up.
	lr.scanMgr = colstore.NewManager(eng.DB())
	for _, k := range features.CoreKinds {
		var err error
		t.do(0, "colstore_build", "colstore.build", func() { _, err = lr.scanMgr.Store(k) })
		if err != nil {
			return err
		}
	}
	lr.setMedianMS("colstore.build_ms", "colstore.build")

	n := lr.opCount(tracedScanOps)
	var missOverhead, evals, evalShare, seeded, httpMS []float64
	for i := 0; i < n; i++ {
		q := lr.g.vectorQuery("scan", uint64(i))
		alt := q.scaled(2) // same ranking and work, not yet cached
		st, err := eng.ColStore().Store(q.Kind)
		if err != nil {
			return err
		}
		req := fmt.Sprintf("search_scan#%d", i)
		root := t.begin(0, req, "search_scan.op")
		r, d := lr.httpOp(root, req, "search_scan", opSearch, fx.url, q.body())
		httpMS = append(httpMS, float64(d)/1e6)

		var rec *httptest.ResponseRecorder
		miss := t.do(root, req, "server.handler_miss", func() { rec = serveDirect(fx.srv, "/api/search", alt.body()) })
		lr.chk.check(rec.Code == http.StatusOK && rec.Header().Get("X-Cache") == "fill", "%s: direct miss answered %d X-Cache=%q", req, rec.Code, rec.Header().Get("X-Cache"))
		query := features.Set{q.Kind: features.Vector(alt.Vector)}
		var auto []core.Result
		autoD := t.do(root, req, "core.search_auto", func() {
			auto, err = eng.SearchTopK(ctx, query, core.Options{Feature: q.Kind, K: 10, Weights: alt.Weights})
		})
		lr.chk.check(err == nil && slices.Equal(resultIDs(auto), answerIDs(r.body)), "%s: engine ids %v differ from served %v (%v)", req, resultIDs(auto), answerIDs(r.body), err)
		missOverhead = append(missOverhead, float64(miss-autoD)/1e3)

		var stats colstore.Stats
		t.do(root, req, "colstore.topk_w1", func() { _, stats, err = st.SearchTopK(ctx, q.Vector, q.Weights, 10, 1) })
		evals = append(evals, float64(stats.ExactEvals))
		evalShare = append(evalShare, share(stats.ExactEvals, stats.Rows))
		if stats.TreeSeeded {
			seeded = append(seeded, 1)
		} else {
			seeded = append(seeded, 0)
		}
		t.do(root, req, "colstore.topk_wn", func() { _, _, err = st.SearchTopK(ctx, q.Vector, q.Weights, 10, nproc) })
		t.do(root, req, "colstore.coarse_topk", func() { _, _, err = st.SearchCoarseTopK(ctx, q.Vector, q.Weights, 10, nproc) })
		t.do(root, req, "core.search_coarse", func() {
			_, err = eng.SearchTopK(ctx, query, core.Options{Feature: q.Kind, K: 10, Weights: alt.Weights, Mode: core.ScanCoarse})
		})
		t.do(root, req, "core.search_rtree", func() { _, err = eng.SearchTopK(ctx, query, core.Options{Feature: q.Kind, K: 10}) })
		if i%4 == 0 { // the pointer-chasing exact scan costs a hundred of the others
			var exact []core.Result
			t.do(root, req, "core.search_exact", func() {
				exact, err = eng.SearchTopK(ctx, query, core.Options{Feature: q.Kind, K: 10, Weights: alt.Weights, Mode: core.ScanExact})
			})
			lr.chk.check(err == nil && slices.Equal(resultIDs(exact), resultIDs(auto)), "%s: exact scan ids %v differ from two-stage %v", req, resultIDs(exact), resultIDs(auto))
		}
		t.end(root)
	}
	lr.overheadPass("search_scan", fx.url, n, func(i uint64) (opKind, []byte) { return opSearch, lr.g.scanRequest(i) }, httpMS)

	lr.setMedianUS("core.search_auto_us", "core.search_auto")
	lr.setMedianMS("core.search_exact_ms", "core.search_exact")
	lr.setMedianUS("core.search_coarse_us", "core.search_coarse")
	lr.setMedianUS("core.search_rtree_us", "core.search_rtree")
	lr.setMedianUS("colstore.topk_w1_us", "colstore.topk_w1")
	lr.setMedianUS("colstore.topk_wn_us", "colstore.topk_wn")
	lr.setMedianUS("colstore.coarse_topk_us", "colstore.coarse_topk")
	lr.values["workpool.scan_speedup"] = lr.values["colstore.topk_w1_us"] / lr.values["colstore.topk_wn_us"]
	lr.values["colstore.exact_evals_per_query"] = median(evals)
	lr.values["colstore.exact_eval_share"] = mean(evalShare)
	lr.values["colstore.tree_seeded_share"] = mean(seeded)
	lr.values["server.handler_miss_overhead_us"] = median(missOverhead)
	lr.info["search_scan.traced_ops"] = float64(n)
	return nil
}

// traceHot replays search_hot: a cached request over TCP and straight
// through the handler.
func (lr *layerRun) traceHot(fx *fixture) {
	t := lr.t
	for j, body := range lr.g.hotBody { // pre-warm, as the untraced run does
		r := post(lr.client, fx.url+"/api/search", body, &lr.buf)
		lr.chk.check(!r.failed(opSearch), "hot pre-warm %d: %v", j, r)
	}
	n := lr.opCount(tracedHotOps)
	var overhead, httpMS []float64
	for i := 0; i < n; i++ {
		body := lr.g.hotBody[lr.g.hotIndex(uint64(i))]
		req := fmt.Sprintf("search_hot#%d", i)
		root := t.begin(0, req, "search_hot.op")
		_, d := lr.httpOp(root, req, "search_hot", opSearch, fx.url, body)
		httpMS = append(httpMS, float64(d)/1e6)
		var rec *httptest.ResponseRecorder
		hit := t.do(root, req, "server.handler_hit", func() { rec = serveDirect(fx.srv, "/api/search", body) })
		lr.chk.check(rec.Code == http.StatusOK && rec.Header().Get("X-Cache") == "hit", "%s: direct hit answered %d X-Cache=%q", req, rec.Code, rec.Header().Get("X-Cache"))
		overhead = append(overhead, float64(d-hit)/1e3)
		t.end(root)
	}
	lr.overheadPass("search_hot", fx.url, n, func(i uint64) (opKind, []byte) {
		return opSearch, lr.g.hotBody[lr.g.hotIndex(i)]
	}, httpMS)
	lr.setMedianUS("server.handler_hit_us", "server.handler_hit")
	lr.values["server.http_overhead_us"] = median(overhead)
	lr.info["search_hot.traced_ops"] = float64(n)
}

// appendProbe times the incremental column refresh one insert forces. It
// mutates the large node, so it runs after that node's ops.
func (lr *layerRun) appendProbe(fx *fixture, rows []row) error {
	extra := rows[0]
	extra.ID = int64(len(rows)) + 1
	if err := insertRow(fx.eng.DB(), &extra); err != nil {
		return err
	}
	for _, k := range features.CoreKinds {
		var err error
		lr.t.do(0, "colstore_append", "colstore.append", func() { _, err = lr.scanMgr.Store(k) })
		if err != nil {
			return err
		}
	}
	lr.setMedianUS("colstore.append_us", "colstore.append")
	return nil
}

// traceCluster replays cluster_scan: the coordinator's search called
// directly, its bounds round, and a DMax-carrying POST to every shard.
func (lr *layerRun) traceCluster(fx *fixture) {
	t, ctx := lr.t, context.Background()
	n := lr.opCount(tracedClusterOps)
	var overhead, slowest, httpMS []float64
	partial := 0
	for i := 0; i < n; i++ {
		q := lr.g.vectorQuery("scan", uint64(i))
		req := fmt.Sprintf("cluster_scan#%d", i)
		root := t.begin(0, req, "cluster_scan.op")
		r, d := lr.httpOp(root, req, "cluster_scan", opSearch, fx.url, q.body())
		httpMS = append(httpMS, float64(d)/1e6)

		// Shards cache DMax-carrying requests, and the HTTP op has just sent
		// them this query: scaled weights keep the replays uncached.
		alt := q.scaled(3)
		var out *scatter.Outcome
		var err error
		search := t.do(root, req, "scatter.search", func() {
			out, err = fx.coord.Search(ctx, scatter.Query{Feature: q.Kind.String(), Vector: alt.Vector, Weights: alt.Weights, K: 10})
		})
		if err != nil {
			lr.chk.check(false, "%s: Coordinator.Search: %v", req, err)
			t.end(root)
			continue
		}
		if len(out.Missing) > 0 {
			partial++
		}
		ids := make([]int64, len(out.Results))
		for j, row := range out.Results {
			ids[j] = row.ID
		}
		lr.chk.check(slices.Equal(ids, answerIDs(r.body)), "%s: coordinator ids %v differ from served %v", req, ids, answerIDs(r.body))

		var bounds *scatter.BoundsSet
		t.do(root, req, "scatter.bounds", func() { bounds, err = fx.coord.CollectBounds(ctx, q.Kind.String()) })
		if err != nil {
			lr.chk.check(false, "%s: CollectBounds: %v", req, err)
			t.end(root)
			continue
		}
		direct := q.scaled(2)
		body := mustJSON(map[string]any{
			"query_vector": direct.Vector, "feature": q.Kind.String(), "k": 10,
			"weights": direct.Weights, "dmax": bounds.DMax,
		})
		worst := time.Duration(0)
		for _, url := range fx.shardURLs {
			var sr reply
			rtt := t.do(root, req, "scatter.shard_rtt", func() { sr = post(lr.client, url+"/api/search", body, &lr.buf) })
			lr.chk.check(!sr.failed(opSearch), "%s: shard %s: %v", req, url, sr)
			worst = max(worst, rtt)
		}
		slowest = append(slowest, float64(worst)/1e3)
		overhead = append(overhead, float64(search-worst)/1e3)
		t.end(root)
	}
	lr.overheadPass("cluster_scan", fx.url, n, func(i uint64) (opKind, []byte) { return opSearch, lr.g.scanRequest(i) }, httpMS)

	lr.setMedianUS("scatter.search_us", "scatter.search")
	lr.setMedianUS("scatter.bounds_us", "scatter.bounds")
	lr.setMedianUS("scatter.shard_rtt_us", "scatter.shard_rtt")
	rtts := lr.t.durationsMS("scatter.shard_rtt")
	sort.Float64s(rtts)
	lr.values["scatter.shard_rtt_p95_us"] = percentile(rtts, 95) * 1e3
	lr.values["scatter.overhead_us"] = median(overhead)
	lr.values["scatter.partial_share"] = share(partial, n)
	lr.info["scatter.slowest_shard_us"] = median(slowest)
	lr.info["cluster_scan.traced_ops"] = float64(n)
}

// runTraced performs the traced run and writes the spans to tracePath.
func runTraced(cfg runConfig, tracePath string) (*result, error) {
	g, err := newGenerator(cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	lr := &layerRun{cfg: cfg, g: g, t: newTracer(), chk: &checker{}, client: newClient(),
		values: map[string]float64{}, info: map[string]float64{}}
	defer lr.client.CloseIdleConnections()
	if lr.mem, err = shapedb.Open("", coreOpts); err != nil {
		return nil, err
	}
	defer lr.mem.Close()
	if lr.durDir, err = os.MkdirTemp(cfg.tmpRoot, "replay-journal-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(lr.durDir)
	if lr.dur, err = shapedb.Open(lr.durDir, coreOpts); err != nil {
		return nil, err
	}
	defer lr.dur.Close()

	// One fixture at a time: each is closed before the next is built, so
	// no idle node's background loops share the cores with the one traced.
	paper, err := startPaperNode(g, cfg.tmpRoot)
	if err != nil {
		return nil, err
	}
	lr.traceQBE(paper)
	if err := lr.ingestBatch(); err != nil {
		paper.Close()
		return nil, err
	}
	lr.traceIngest(paper)
	paper.Close()

	rows := g.rows()
	large, err := startLargeNode(g, rows)
	if err != nil {
		return nil, err
	}
	err = lr.traceScan(large)
	if err == nil {
		lr.traceHot(large)
		err = lr.appendProbe(large, rows)
	}
	large.Close()
	if err != nil {
		return nil, err
	}

	cluster, err := startCluster(g, rows)
	if err != nil {
		return nil, err
	}
	lr.traceCluster(cluster)
	cluster.Close()

	lr.values["server.qcache_hit_share"] = share(lr.ownHits, lr.ownOps)
	lr.values["server.degraded_share"] = share(lr.degraded, lr.ops)
	lr.values["server.shed_share"] = share(lr.shed, lr.ops)

	// Self time of an op's root span is what no layer span covers: the
	// benchmark's own bookkeeping between the calls.
	self := selfTimes(lr.t.spans)
	var rootSelf []float64
	for _, s := range lr.t.spans {
		if s.Parent == 0 && strings.HasSuffix(s.Name, ".op") {
			rootSelf = append(rootSelf, float64(self[s.ID])/1e3)
		}
	}
	lr.info["op_root_self_us"] = median(rootSelf)
	lr.info["spans"] = float64(len(lr.t.spans))
	if err := lr.t.write(tracePath); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metricValue{}, Info: lr.info, Notes: lr.chk.notes,
		Attempted: lr.chk.attempted, Failed: lr.chk.failed}
	res.Correct = res.Failed == 0
	for _, m := range perLayer {
		v, ok := lr.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("bench: traced run produced no %s", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}
