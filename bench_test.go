package threedess_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// section (run with `go test -bench=. -benchmem`), plus performance
// benchmarks for each pipeline stage. cmd/benchrunner prints the actual
// figure data; these benchmarks measure the cost of regenerating it.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"threedess"
	"threedess/internal/core"
	"threedess/internal/dataset"
	"threedess/internal/eval"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/rtree"
	"threedess/internal/shapedb"
	"threedess/internal/skeleton"
	"threedess/internal/skelgraph"
	"threedess/internal/voxel"
)

var (
	benchOnce   sync.Once
	benchCorpus *eval.Corpus
	benchErr    error
)

func corpus(b *testing.B) *eval.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = eval.BuildCorpus(42, features.Options{}, nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus
}

// BenchmarkFig04GroupSizes regenerates the Figure 4 group-size census.
func BenchmarkFig04GroupSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sizes := dataset.GroupSizesAscending()
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != 86 {
			b.Fatalf("group total = %d", total)
		}
	}
}

// BenchmarkFig07ThresholdQuery runs the Figure 7 example (moment
// invariants, similarity ≥ 0.85).
func BenchmarkFig07ThresholdQuery(b *testing.B) {
	c := corpus(b)
	qid := c.DB.GroupMembers(3)[0] // a five-member group
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.ThresholdQueryExample(qid, features.MomentInvariants, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08to12PRCurves sweeps the full precision-recall curves for
// the five representative queries across all four feature vectors.
func BenchmarkFig08to12PRCurves(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PRCurves(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13MultiStepExample runs the Figure 13/14 one-shot vs
// multi-step comparison for one query.
func BenchmarkFig13MultiStepExample(b *testing.B) {
	c := corpus(b)
	qid := c.GroupQueryIDs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunMultiStepExample(qid, features.PrincipalMoments, eval.MultiStepMIGP()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15AverageRecall runs the full Figure 15/16 experiment: all
// five strategies over the 26 group queries under both retrieval policies.
func BenchmarkFig15AverageRecall(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.AverageEffectiveness(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig16PrecisionAt10 isolates the |R| = 10 policy of Figure 16
// for the best one-shot strategy.
func BenchmarkFig16PrecisionAt10(b *testing.B) {
	c := corpus(b)
	queries := c.GroupQueryIDs()
	strat := eval.Strategy{Name: "pm", Kind: features.PrincipalMoments}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qid := range queries {
			res, err := c.Retrieve(qid, strat, 10)
			if err != nil {
				b.Fatal(err)
			}
			eval.PrecisionRecall(resIDs(res), c.RelevantSet(qid))
		}
	}
}

func resIDs(res []core.Result) []int64 {
	out := make([]int64, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}

var searchTop10 = core.Options{Feature: features.PrincipalMoments, K: 10}

var multiStepOpts = core.MultiStepOptions{Steps: eval.MultiStepPMEig(), CandidateSize: 30, K: 10}

// BenchmarkRTreeKNNReal measures k-NN node accesses on the real 113-shape
// index (§2.3, "almost optimal for small real databases").
func BenchmarkRTreeKNNReal(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RTreeRealEfficiency(features.PrincipalMoments, 10, 10, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTreeKNNSynthetic measures k-NN over large synthetic databases
// (§2.3, "efficient for large synthetic databases").
func BenchmarkRTreeKNNSynthetic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]rtree.BulkItem, 100_000)
	for i := range items {
		items[i] = rtree.BulkItem{ID: int64(i), Point: rtree.Point{
			rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100,
		}}
	}
	tr, err := rtree.BulkLoad(3, rtree.DefaultMaxEntries, items)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := rtree.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		if got := tr.NearestNeighbors(10, q); len(got) != 10 {
			b.Fatalf("results = %d", len(got))
		}
	}
}

// --- pipeline-stage performance benchmarks ---

func benchMesh() *geom.Mesh {
	m := geom.Box(geom.V(0, 0, 0), geom.V(4, 1, 1))
	m.Merge(geom.Box(geom.V(0, 1, 0), geom.V(1, 3, 1)))
	return m
}

// BenchmarkFeatureExtractionAll measures the full §3 pipeline (all four
// core descriptors) for one shape.
func BenchmarkFeatureExtractionAll(b *testing.B) {
	ext := features.NewExtractor(features.Options{})
	m := benchMesh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(m, features.CoreKinds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtractionMoments measures the moment-based descriptors
// only (no voxel/skeleton work).
func BenchmarkFeatureExtractionMoments(b *testing.B) {
	ext := features.NewExtractor(features.Options{})
	m := benchMesh()
	kinds := []features.Kind{features.MomentInvariants, features.PrincipalMoments, features.GeometricParams}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(m, kinds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVoxelization measures solid voxelization at the pipeline's
// default resolution.
func BenchmarkVoxelization(b *testing.B) {
	m := benchMesh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := voxel.Voxelize(m, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeletonization measures topology-preserving thinning.
func BenchmarkSkeletonization(b *testing.B) {
	m := benchMesh()
	g, err := voxel.Voxelize(m, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skeleton.Thin(g, skeleton.DefaultOptions())
	}
}

// BenchmarkSkeletalGraph measures graph construction + eigen signature.
func BenchmarkSkeletalGraph(b *testing.B) {
	m := benchMesh()
	g, err := voxel.Voxelize(m, 32)
	if err != nil {
		b.Fatal(err)
	}
	sk := skeleton.Thin(g, skeleton.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := skelgraph.Build(sk)
		sg.EigenvalueSignature(8)
	}
}

// BenchmarkSearchTopK measures an indexed top-10 query on the corpus.
func BenchmarkSearchTopK(b *testing.B) {
	c := corpus(b)
	qid := c.GroupQueryIDs()[0]
	query, err := c.Engine.QueryFeatures(qid)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Engine.SearchTopK(context.Background(), query, searchTop10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiStepSearch measures the recommended multi-step strategy.
func BenchmarkMultiStepSearch(b *testing.B) {
	c := corpus(b)
	qid := c.GroupQueryIDs()[0]
	query, err := c.Engine.QueryFeatures(qid)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Engine.SearchMultiStep(context.Background(), query, multiStepOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteringComparison measures the §2.2 clustering comparison
// (k-means vs SOM vs GA at k = 26 over the corpus).
func BenchmarkClusteringComparison(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompareClusterings(features.PrincipalMoments, dataset.NumGroups, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiStepKeepAblation measures the Keep-parameter sweep.
func BenchmarkMultiStepKeepAblation(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MultiStepKeepAblation([]int{10, 15, 22}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionDescriptors measures extraction of the two extension
// descriptors (higher-order invariants + D2 shape distribution).
func BenchmarkExtensionDescriptors(b *testing.B) {
	ext := features.NewExtractor(features.Options{})
	m := benchMesh()
	kinds := []features.Kind{features.HigherOrder, features.ShapeDistribution}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(m, kinds); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel execution benchmarks ---

// BenchmarkParallelIngest compares bulk ingest throughput with a single
// worker against the full worker pool (one worker per logical CPU). The
// extraction fan-out is embarrassingly parallel, so on a machine with
// GOMAXPROCS ≥ 4 the parallel case should ingest at least 2× faster
// while producing bit-identical IDs and features (see
// TestInsertBatchDeterministicAcrossWorkers).
func BenchmarkParallelIngest(b *testing.B) {
	shapes := ingestShapes(b, 24)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := threedess.Open("", threedess.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := sys.InsertBatch(shapes); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sys.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(shapes)*b.N)/b.Elapsed().Seconds(), "shapes/sec")
		}
	}
	b.Run("columns_w1", run(1))
	b.Run("columns", run(0)) // 0 = one worker per logical CPU
}

func ingestShapes(b *testing.B, n int) []threedess.Shape {
	b.Helper()
	out := make([]threedess.Shape, n)
	for i := range out {
		m := geom.Box(geom.V(0, 0, 0), geom.V(2+float64(i%5), 1, 1))
		m.Merge(geom.Box(geom.V(0, 1, 0), geom.V(1, 2+float64(i%3), 1)))
		out[i] = threedess.Shape{Name: "bench", Group: i % 4, Mesh: m}
	}
	return out
}

// BenchmarkWeightedScanParallel compares the weighted search (the
// columnar scan, which cannot use the per-feature R-trees) on one worker
// against one worker per logical CPU, over a synthetic database of
// several scan blocks so the shards actually fan out.
func BenchmarkWeightedScanParallel(b *testing.B) {
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	opts := db.Options()
	dim := opts.Dim(features.PrincipalMoments)
	m := benchMesh()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		set := features.Set{}
		for _, k := range features.CoreKinds {
			v := make(features.Vector, opts.Dim(k))
			for d := range v {
				v[d] = rng.NormFloat64() * 10
			}
			set[k] = v
		}
		if _, err := db.Insert("s", i%26, m, set); err != nil {
			b.Fatal(err)
		}
	}
	query := features.Set{features.PrincipalMoments: make(features.Vector, dim)}
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 1 + float64(i)
	}
	searchOpts := core.Options{Feature: features.PrincipalMoments, Weights: weights, K: 10}
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			e := core.NewEngine(db).SetWorkers(workers)
			// The first search builds the columns; a server keeps them
			// fresh in the background, so that is not per-query cost.
			if _, err := e.SearchTopK(context.Background(), query, searchOpts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.SearchTopK(context.Background(), query, searchOpts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 10 {
					b.Fatalf("results = %d", len(res))
				}
			}
			b.ReportMetric(float64(db.Len()*b.N)/b.Elapsed().Seconds(), "shapes/sec")
		}
	}
	b.Run("columns_w1", run(1))
	b.Run("columns", run(0))
}

// BenchmarkJournalInsert measures a durable insert (journal append +
// fsync + index update).
func BenchmarkJournalInsert(b *testing.B) {
	dir := b.TempDir()
	db, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ext := features.NewExtractor(features.Options{})
	m := benchMesh()
	set, err := ext.Extract(m, []features.Kind{features.PrincipalMoments, features.MomentInvariants, features.GeometricParams})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("bench", 0, m, set); err != nil {
			b.Fatal(err)
		}
	}
}
