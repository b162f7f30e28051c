// Package core is the 3DESS search engine — the paper's primary
// contribution. It ties the feature-extraction pipeline, the shape
// database, and the R-tree indexes into the query flows of §2.4:
// query-by-example with a chosen feature vector, threshold (similarity)
// search under the weighted Euclidean measure of Equations 4.3–4.4, top-k
// search, the multi-step refinement strategy of §4.2, relevance feedback
// (query reconstruction and weight reconfiguration, §2.2), and
// cluster-based browsing.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"threedess/internal/colstore"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/rtree"
	"threedess/internal/shapedb"
)

// Engine executes shape queries against a database.
type Engine struct {
	db        *shapedb.DB
	extractor *features.Extractor
	// workers bounds the pool used by bulk ingest and sharded scans
	// (≤ 0 = one per logical CPU). It never changes results, only
	// throughput.
	workers int
	// cstore holds the per-kind columnar descriptor copies every weighted
	// search scans (weighted.go).
	cstore *colstore.Manager
}

// NewEngine builds an engine over db, extracting query features with the
// database's feature options. The worker-pool size is taken from the
// database's feature options (Options.Workers).
func NewEngine(db *shapedb.DB) *Engine {
	return &Engine{
		db:        db,
		extractor: features.NewExtractor(db.Options()),
		workers:   db.Options().Workers,
		cstore:    colstore.NewManager(db),
	}
}

// SetWorkers overrides the engine's worker-pool size (≤ 0 = one worker
// per logical CPU) and returns the engine. Results are identical at every
// setting; only throughput changes.
func (e *Engine) SetWorkers(n int) *Engine {
	e.workers = n
	return e
}

// DB returns the underlying database.
func (e *Engine) DB() *shapedb.DB { return e.db }

// Extractor returns the query feature extractor.
func (e *Engine) Extractor() *features.Extractor { return e.extractor }

// Result is one retrieved shape.
type Result struct {
	ID         int64
	Name       string
	Group      int
	Distance   float64 // weighted Euclidean distance (Equation 4.3)
	Similarity float64 // 1 − d/dmax (Equation 4.4), clamped to [0, 1]
}

// Options configure a single-feature search.
type Options struct {
	// Feature selects which descriptor drives the search.
	Feature features.Kind
	// Weights are per-dimension weights of Equation 4.3. Nil means
	// uniform. Non-nil weights bypass the R-tree (whose metric is
	// unweighted) and scan the columnar store, like the prototype's
	// reconfigured queries.
	Weights []float64
	// Threshold is the minimum similarity for SearchThreshold (0..1).
	Threshold float64
	// K is the result count for SearchTopK.
	K int
	// Mode applies to weighted searches only: ScanAuto (default) and
	// ScanExact return the exact answer, ScanCoarse the approximate
	// filter-stage answer of the brownout tier.
	Mode ScanMode
	// DMax overrides the Equation-4.4 normalizer (0 = derive it from this
	// database's feature-space bounding box, the default). A scatter-gather
	// coordinator passes the cluster-global diagonal here so every shard's
	// similarity values — and threshold cutoffs — agree with a single node
	// holding the whole corpus.
	DMax float64
}

// WeightedDistance evaluates Equation 4.3.
func WeightedDistance(q, x features.Vector, w []float64) float64 {
	sum := 0.0
	for i := range q {
		d := q[i] - x[i]
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		sum += wi * d * d
	}
	return math.Sqrt(sum)
}

// Similarity evaluates Equation 4.4 for a distance under the given dmax,
// clamping to [0, 1].
func Similarity(dist, dmax float64) float64 {
	if dmax <= 0 {
		return 0
	}
	s := 1 - dist/dmax
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func (e *Engine) checkOptions(opt *Options, query features.Set) (features.Vector, error) {
	if !opt.Feature.Valid() {
		return nil, fmt.Errorf("core: invalid feature kind %v", opt.Feature)
	}
	qv, ok := query[opt.Feature]
	if !ok {
		return nil, fmt.Errorf("core: query has no %v vector", opt.Feature)
	}
	for i, x := range qv {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("core: query %v vector has non-finite coordinate %g at dimension %d", opt.Feature, x, i)
		}
	}
	if opt.Weights != nil && len(opt.Weights) != len(qv) {
		return nil, fmt.Errorf("core: %d weights for %d-dimensional feature %v",
			len(opt.Weights), len(qv), opt.Feature)
	}
	if opt.Weights != nil {
		for i, w := range opt.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: invalid weight %g at dimension %d", w, i)
			}
		}
	}
	if opt.DMax < 0 || math.IsNaN(opt.DMax) || math.IsInf(opt.DMax, 0) {
		return nil, fmt.Errorf("core: invalid dmax override %g", opt.DMax)
	}
	return qv, nil
}

// dmax resolves the Equation-4.4 normalizer for a search: the explicit
// override when one was supplied, the database's own bounding-box diagonal
// otherwise.
func (e *Engine) dmax(opt Options) float64 {
	if opt.DMax > 0 {
		return opt.DMax
	}
	return e.db.DMax(opt.Feature)
}

// ExtractQuery runs feature extraction on a query mesh for the given
// kinds (nil = the four core descriptors).
func (e *Engine) ExtractQuery(mesh *geom.Mesh, kinds []features.Kind) (features.Set, error) {
	if kinds == nil {
		kinds = features.CoreKinds
	}
	return e.extractor.Extract(mesh, kinds)
}

// QueryFeatures returns the stored feature set of a database shape, for
// query-by-browsing ("pick a model and submit it as an initial query").
func (e *Engine) QueryFeatures(id int64) (features.Set, error) {
	rec, ok := e.db.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: no shape with id %d", id)
	}
	return rec.Features, nil
}

// SearchThreshold returns every shape whose similarity to the query meets
// opt.Threshold, most similar first (the paper's §4.1 query mode). ctx
// cancellation (request timeout, client gone, server drain) aborts the
// weighted scan between blocks and returns the context error.
func (e *Engine) SearchThreshold(ctx context.Context, query features.Set, opt Options) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qv, err := e.checkOptions(&opt, query)
	if err != nil {
		return nil, err
	}
	if opt.Threshold < 0 || opt.Threshold > 1 {
		return nil, fmt.Errorf("core: threshold %g outside [0, 1]", opt.Threshold)
	}
	dmax := e.dmax(opt)
	if opt.Weights == nil {
		// Equation 4.4: similarity ≥ t ⇔ distance ≤ (1−t)·dmax. Serve
		// through the index.
		radius := (1 - opt.Threshold) * dmax
		nn, err := e.db.WithinRadius(opt.Feature, qv, radius)
		if err != nil {
			return nil, err
		}
		return e.toResults(nn, dmax), nil
	}
	return e.weightedThreshold(ctx, opt.Feature, qv, opt.Weights, opt.Threshold, dmax, opt.Mode == ScanCoarse)
}

// SearchTopK returns the opt.K most similar shapes, most similar first.
// ctx cancellation aborts the weighted scan path between blocks; the
// indexed path checks it once up front.
func (e *Engine) SearchTopK(ctx context.Context, query features.Set, opt Options) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qv, err := e.checkOptions(&opt, query)
	if err != nil {
		return nil, err
	}
	if opt.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	dmax := e.dmax(opt)
	if opt.Weights == nil {
		nn, err := e.db.KNN(opt.Feature, qv, opt.K)
		if err != nil {
			return nil, err
		}
		return e.toResults(nn, dmax), nil
	}
	return e.weightedTopK(ctx, opt.Feature, qv, opt.Weights, opt.K, dmax, opt.Mode == ScanCoarse)
}

// sortResults orders by ascending distance, breaking ties by ID — the
// canonical result order every search path produces.
func sortResults(out []Result) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
}

// toResults resolves neighbor IDs to result rows with one GetMany lock
// round-trip instead of a Get per neighbor.
func (e *Engine) toResults(nn []rtree.Neighbor, dmax float64) []Result {
	ids := make([]int64, len(nn))
	for i, n := range nn {
		ids[i] = n.ID
	}
	recs := e.db.GetMany(ids)
	out := make([]Result, 0, len(nn))
	for i, n := range nn {
		rec := recs[i]
		if rec == nil {
			continue
		}
		out = append(out, Result{
			ID:         n.ID,
			Name:       rec.Name,
			Group:      rec.Group,
			Distance:   n.Dist,
			Similarity: Similarity(n.Dist, dmax),
		})
	}
	return out
}

// ExcludeID filters a result list in place, dropping the given id (used to
// drop the query shape itself when querying by a database member, since
// "it is guaranteed to be retrieved").
func ExcludeID(results []Result, id int64) []Result {
	out := results[:0]
	for _, r := range results {
		if r.ID != id {
			out = append(out, r)
		}
	}
	return out
}
