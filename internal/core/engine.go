// Package core is the 3DESS search engine — the paper's primary
// contribution. It ties the feature-extraction pipeline, the shape
// database, and its column snapshots into the query flows of §2.4:
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
	// cstore holds the per-kind columnar descriptor copies every search
	// ranks (weighted.go).
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
	// uniform, and is always answered exactly (see Mode).
	Weights []float64
	// Threshold is the minimum similarity for SearchThreshold (0..1).
	Threshold float64
	// K is the result count for SearchTopK.
	K int
	// Mode applies to weighted searches only: ScanAuto (default) and
	// ScanExact return the exact answer, ScanCoarse the approximate
	// filter-stage answer of the brownout tier. An unweighted search runs
	// as ScanExact whatever Mode says.
	Mode ScanMode
	// DMax overrides the Equation-4.4 normalizer (0 = the default: the
	// bounding-box diagonal of the live rows of the column snapshot the
	// search ranks). A scatter-gather coordinator passes the diagonal of
	// the merged per-shard boxes here so every shard's similarity values —
	// and threshold cutoffs — agree with a single node holding the whole
	// live corpus.
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
// scan between blocks and returns the context error.
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
	st, err := e.cstore.Store(opt.Feature)
	if err != nil {
		return nil, err
	}
	return e.searchThreshold(ctx, st, qv, opt)
}

// searchThreshold answers a threshold search from the snapshot st,
// normalized by opt.DMax or, when that is 0, by st's own DMax. The scan
// over st's columns prunes at the threshold converted through Equation
// 4.4 with a hair of slack (the answer is defined on similarities, not
// distances, and the two predicates can disagree by an ulp at the
// boundary), and every survivor is then re-checked with the similarity
// predicate itself. Coarse distances are lower bounds, so a coarse answer
// can only over-include relative to the exact one, never miss.
func (e *Engine) searchThreshold(ctx context.Context, st *colstore.Store, qv features.Vector, opt Options) ([]Result, error) {
	dmax := opt.DMax
	if dmax == 0 {
		dmax = st.DMax()
	}
	if opt.Weights == nil {
		opt.Mode = ScanExact // an unweighted answer is never coarse
	}
	radius := math.Inf(1)
	if opt.Threshold > 0 {
		// Relative slack covers d ≤ (1−t)·dmax rounding; the additive
		// dmax term covers thresholds so close to 1 that tiny distances
		// still round to similarity 1.
		radius = (1-opt.Threshold)*dmax*(1+1e-9) + dmax*1e-12
	}
	search := st.SearchRadius
	if opt.Mode == ScanCoarse {
		search = st.SearchCoarseRadius
	}
	cands, _, err := search(ctx, qv, opt.Weights, radius, e.workers)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, c := range cands {
		if r := batchResult(c.Rec, c.Dist, dmax); r.Similarity >= opt.Threshold {
			out = append(out, r)
		}
	}
	return out, nil
}

// SearchTopK returns the opt.K most similar shapes, most similar first.
// ctx cancellation aborts the scan between blocks.
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
	st, err := e.cstore.Store(opt.Feature)
	if err != nil {
		return nil, err
	}
	return e.searchTopK(ctx, st, qv, opt)
}

// searchTopK answers a top-k search from the snapshot st, normalized by
// opt.DMax or, when that is 0, by st's own DMax. Exact results are
// bit-identical to ranking every row of st by WeightedDistance — same
// rows, same (distance, id) order, same distances.
func (e *Engine) searchTopK(ctx context.Context, st *colstore.Store, qv features.Vector, opt Options) ([]Result, error) {
	dmax := opt.DMax
	if dmax == 0 {
		dmax = st.DMax()
	}
	if opt.Weights == nil {
		opt.Mode = ScanExact // an unweighted answer is never coarse
	}
	search := st.SearchTopK
	if opt.Mode == ScanCoarse {
		search = st.SearchCoarseTopK
	}
	cands, _, err := search(ctx, qv, opt.Weights, opt.K, e.workers)
	if err != nil {
		return nil, err
	}
	// var (not make) so an empty result is nil.
	var out []Result
	for _, c := range cands {
		out = append(out, batchResult(c.Rec, c.Dist, dmax))
	}
	return out, nil
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

// rowsOf is GetMany against the snapshot st: st's records with the given
// ids, nil where st has no such row. Scoring that is normalized by st's
// box reads its records here, so the two are one state.
func rowsOf(st *colstore.Store, ids []int64) []*shapedb.Record {
	recs := st.Records()
	out := make([]*shapedb.Record, len(ids))
	for i, id := range ids {
		j := sort.Search(len(recs), func(j int) bool { return recs[j].ID >= id })
		if j < len(recs) && recs[j].ID == id {
			out[i] = recs[j]
		}
	}
	return out
}

// sameVersionStores returns one column snapshot per kind, all taken at
// the same DB version, so rows read from any of them and every box they
// carry describe one state. A commit landing between two Store calls
// splits the versions and the round is retried until ctx is done.
func (e *Engine) sameVersionStores(ctx context.Context, kinds []features.Kind) ([]*colstore.Store, error) {
	sts := make([]*colstore.Store, len(kinds))
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		same := true
		for i, kind := range kinds {
			st, err := e.cstore.Store(kind)
			if err != nil {
				return nil, err
			}
			sts[i] = st
			same = same && st.Version() == sts[0].Version()
		}
		if same {
			return sts, nil
		}
	}
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
