// Package threedess is a content-based 3D engineering shape search system,
// reproducing Lou, Prabhakar & Ramani, "Content-based Three-dimensional
// Engineering Shape Search" (ICDE 2004).
//
// A System stores triangle-mesh models, extracts the paper's shape
// descriptors (moment invariants, geometric parameters, principal moments,
// and skeletal-graph eigenvalues), indexes them in per-descriptor column
// snapshots (each with a bulk-loaded R-tree), and answers
// similarity queries: query-by-example, threshold and top-k search under a
// weighted Euclidean measure, the multi-step refinement strategy, relevance
// feedback, and cluster-based browsing.
//
// Quick start:
//
//	sys, _ := threedess.Open("", threedess.Options{})
//	defer sys.Close()
//	id, _ := sys.Insert("bracket", 0, mesh)
//	results, _ := sys.QueryByExample(queryMesh, threedess.Search{
//		Feature: threedess.PrincipalMoments, K: 10,
//	})
//
// The subsystems live in internal/ packages (geometry kernel, moments,
// voxelization, thinning, skeletal graphs, R-tree, clustering, record
// store); this package is the supported public surface.
package threedess

import (
	"context"
	"fmt"
	"math"
	"net/http"

	"threedess/internal/core"
	"threedess/internal/dataset"
	"threedess/internal/eval"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/server"
	"threedess/internal/shapedb"
)

// Mesh is an indexed triangle mesh (see the methods on geom.Mesh for
// construction, transforms, and exact integral properties).
type Mesh = geom.Mesh

// Polygon is a closed 2D loop (counter-clockwise for outlines), used by
// QueryByProfile and the extrusion constructors.
type Polygon = geom.Polygon

// Vec2 and Vec3 are the 2D/3D vector types of the geometry kernel.
type (
	Vec2 = geom.Vec2
	Vec3 = geom.Vec3
)

// Re-exported geometry constructors, so library users can build query and
// corpus shapes without reaching into internal packages.
var (
	// V constructs a Vec3; XY constructs a Vec2; Poly builds a Polygon
	// from flat x,y pairs.
	V    = geom.V
	XY   = geom.XY
	Poly = geom.Poly

	// Solid primitives (all closed, outward-oriented).
	Box           = geom.Box
	BoxAt         = geom.BoxAt
	Cylinder      = geom.Cylinder
	Tube          = geom.Tube
	Cone          = geom.Cone
	Sphere        = geom.Sphere
	Torus         = geom.Torus
	Extrude       = geom.Extrude
	Lathe         = geom.Lathe
	TubeAlongPath = geom.TubeAlongPath
	HexPrism      = geom.HexPrism

	// 2D outline helpers.
	RectPolygon   = geom.RectPolygon
	CirclePolygon = geom.CirclePolygon
)

// Options configure the feature-extraction pipeline (voxel resolution,
// eigenvalue signature dimension, …). The zero value takes defaults.
type Options = features.Options

// Kind identifies a feature vector type.
type Kind = features.Kind

// FeatureSet maps feature kinds to extracted vectors.
type FeatureSet = features.Set

// The four descriptors of the paper plus the two extensions.
const (
	MomentInvariants  = features.MomentInvariants
	GeometricParams   = features.GeometricParams
	PrincipalMoments  = features.PrincipalMoments
	Eigenvalues       = features.Eigenvalues
	HigherOrder       = features.HigherOrder
	ShapeDistribution = features.ShapeDistribution
)

// CoreKinds are the four feature vectors evaluated in the paper.
var CoreKinds = features.CoreKinds

// Result is one retrieved shape with its distance (Equation 4.3) and
// similarity (Equation 4.4).
type Result = core.Result

// Step is one stage of a multi-step search.
type Step = core.Step

// Feedback carries relevance judgments for query refinement.
type Feedback = core.Feedback

// Shape is one generated corpus model.
type Shape = dataset.Shape

// Search specifies a single-feature query.
type Search struct {
	// Feature selects the descriptor (default: PrincipalMoments).
	Feature Kind
	// K requests the K most similar shapes (top-k mode, default 10) —
	// ignored when Threshold is set.
	K int
	// Threshold switches to threshold mode: return every shape with
	// similarity ≥ *Threshold.
	Threshold *float64
	// Weights are optional per-dimension weights (Equation 4.3).
	Weights []float64
}

// MultiStepSearch specifies the §4.2 multi-step strategy.
type MultiStepSearch struct {
	Steps         []Step
	CandidateSize int // first-step retrieval size (default 30)
	K             int // presented results (default 10)
}

// RecommendedMultiStep returns the multi-step configuration used by the
// reproduction's Figure-15 experiment: narrow with principal moments
// (keep 15), re-rank by skeletal-graph eigenvalues.
func RecommendedMultiStep() MultiStepSearch {
	return MultiStepSearch{Steps: eval.MultiStepPMEig()}
}

// System is a 3DESS instance: record store, indexes, and search engine.
type System struct {
	db     *shapedb.DB
	engine *core.Engine
}

// Open creates or reopens a shape search system. dir == "" gives an
// in-memory system; otherwise the database is durable (append-only journal
// with crash recovery) under dir.
func Open(dir string, opts Options) (*System, error) {
	db, err := shapedb.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &System{db: db, engine: core.NewEngine(db)}, nil
}

// Close releases the system.
func (s *System) Close() error { return s.db.Close() }

// Len returns the number of stored shapes.
func (s *System) Len() int { return s.db.Len() }

// Insert extracts the core descriptors of mesh and stores it. group is the
// optional ground-truth similarity group (0 = none). It returns the
// database id. The mesh passes the ingest quarantine: it is validated
// (with a weld/orientation repair fallback for sloppy exports) and every
// extracted vector is checked finite before anything is stored; a shape
// whose skeletal-graph branch fails is still stored and searchable through
// its remaining descriptors (the record's Degraded flags name the missing
// kinds).
func (s *System) Insert(name string, group int, mesh *Mesh) (int64, error) {
	res, err := s.engine.IngestMesh(name, group, mesh, nil)
	if err != nil {
		return 0, err
	}
	return res.ID, nil
}

// InsertBatch stores many shapes at once: the §3 feature pipeline runs
// concurrently on a bounded worker pool (Options.Workers; default one
// worker per logical CPU), then the shapes are inserted in input order, so
// the assigned IDs and stored feature sets are identical at every worker
// count. The returned ids align with shapes. An extraction failure
// abandons the batch before anything is stored.
func (s *System) InsertBatch(shapes []Shape) ([]int64, error) {
	items := make([]core.IngestShape, len(shapes))
	for i, sh := range shapes {
		items[i] = core.IngestShape{Name: sh.Name, Group: sh.Group, Mesh: sh.Mesh}
	}
	ids, err := s.engine.InsertBatch(context.Background(), items, nil)
	if err != nil {
		return ids, fmt.Errorf("threedess: batch insert: %w", err)
	}
	return ids, nil
}

// Delete removes a shape; it reports whether the id existed.
func (s *System) Delete(id int64) (bool, error) { return s.db.Delete(id) }

// Extract computes feature vectors for a mesh without storing it.
func (s *System) Extract(mesh *Mesh, kinds []Kind) (FeatureSet, error) {
	return s.engine.Extractor().Extract(mesh, kinds)
}

func (spec Search) toOptions() core.Options {
	opt := core.Options{Feature: spec.Feature, Weights: spec.Weights, K: spec.K}
	if opt.K <= 0 {
		opt.K = 10
	}
	if spec.Threshold != nil {
		opt.Threshold = *spec.Threshold
	}
	return opt
}

// QueryByExample searches with a query mesh (which is not stored).
func (s *System) QueryByExample(mesh *Mesh, spec Search) ([]Result, error) {
	query, err := s.engine.ExtractQuery(mesh, nil)
	if err != nil {
		return nil, err
	}
	return s.search(query, spec)
}

// QueryByProfile searches with a 2D outline — the paper's "query ...
// submitted as ... a 2D drawing": the counter-clockwise profile polygon
// (optionally with holes) is extruded to the given thickness and the
// resulting solid is used as a query-by-example. Thickness ≤ 0 defaults to
// 10% of the profile's bounding-box diagonal, the plate-like
// interpretation a sketch implies.
func (s *System) QueryByProfile(outline Polygon, holes []Polygon, thickness float64, spec Search) ([]Result, error) {
	if thickness <= 0 {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, p := range outline {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		thickness = 0.1 * math.Hypot(maxX-minX, maxY-minY)
		if thickness <= 0 {
			return nil, fmt.Errorf("threedess: degenerate profile")
		}
	}
	mesh, err := geom.Extrude(outline, holes, 0, thickness)
	if err != nil {
		return nil, fmt.Errorf("threedess: extruding profile: %w", err)
	}
	return s.QueryByExample(mesh, spec)
}

// QueryByID uses a stored shape as the query (the search-by-browsing entry
// point: pick a model, submit it). The query shape itself is excluded from
// the results.
func (s *System) QueryByID(id int64, spec Search) ([]Result, error) {
	query, err := s.engine.QueryFeatures(id)
	if err != nil {
		return nil, err
	}
	k := spec.K
	if k <= 0 {
		k = 10
	}
	if spec.Threshold == nil {
		spec.K = k + 1 // absorb the query shape, which is always retrieved
	}
	res, err := s.search(query, spec)
	if err != nil {
		return nil, err
	}
	res = core.ExcludeID(res, id)
	if spec.Threshold == nil && len(res) > k {
		res = res[:k]
	}
	return res, nil
}

func (s *System) search(query FeatureSet, spec Search) ([]Result, error) {
	if spec.Threshold != nil {
		return s.engine.SearchThreshold(context.Background(), query, spec.toOptions())
	}
	return s.engine.SearchTopK(context.Background(), query, spec.toOptions())
}

// MultiStepByExample runs the multi-step strategy with a query mesh.
func (s *System) MultiStepByExample(mesh *Mesh, spec MultiStepSearch) ([]Result, error) {
	query, err := s.engine.ExtractQuery(mesh, nil)
	if err != nil {
		return nil, err
	}
	return s.engine.SearchMultiStep(context.Background(), query, core.MultiStepOptions{
		Steps: spec.Steps, CandidateSize: spec.CandidateSize, K: spec.K,
	})
}

// MultiStepByID runs the multi-step strategy from a stored shape,
// excluding the query itself.
func (s *System) MultiStepByID(id int64, spec MultiStepSearch) ([]Result, error) {
	query, err := s.engine.QueryFeatures(id)
	if err != nil {
		return nil, err
	}
	k := spec.K
	if k <= 0 {
		k = 10
	}
	res, err := s.engine.SearchMultiStep(context.Background(), query, core.MultiStepOptions{
		Steps: spec.Steps, CandidateSize: spec.CandidateSize, K: k + 1,
	})
	if err != nil {
		return nil, err
	}
	res = core.ExcludeID(res, id)
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

// RefineWithFeedback reconstructs the stored query's vector from relevance
// judgments (Rocchio) and, with ≥2 relevant shapes, reconfigures the
// per-dimension weights, then reruns the top-k search. The query shape is
// excluded from the results.
func (s *System) RefineWithFeedback(id int64, kind Kind, fb Feedback, k int) ([]Result, error) {
	query, err := s.engine.QueryFeatures(id)
	if err != nil {
		return nil, err
	}
	newQuery, err := s.engine.ReconstructQuery(query, kind, fb, core.DefaultRocchio)
	if err != nil {
		return nil, err
	}
	var weights []float64
	if len(fb.Relevant) >= 2 {
		weights, err = s.engine.ReconfigureWeights(kind, fb)
		if err != nil {
			return nil, err
		}
	}
	if k <= 0 {
		k = 10
	}
	res, err := s.engine.SearchTopK(context.Background(), newQuery, core.Options{Feature: kind, K: k, Weights: weights})
	if err != nil {
		return nil, err
	}
	return core.ExcludeID(res, id), nil
}

// BrowseNode is one level of the drill-down browse hierarchy.
type BrowseNode = core.BrowseNode

// Browse builds the cluster hierarchy over the given feature for the
// browsing interface.
func (s *System) Browse(kind Kind, seed int64) (*BrowseNode, error) {
	return s.engine.BuildBrowseHierarchy(kind, seed)
}

// BrowseWeighted builds a user-specific browse hierarchy under a weighted
// metric (weights typically come from relevance feedback).
func (s *System) BrowseWeighted(kind Kind, weights []float64, seed int64) (*BrowseNode, error) {
	return s.engine.BuildBrowseHierarchyWeighted(kind, weights, seed)
}

// QueryCombined ranks stored shapes by a weighted sum of dmax-normalized
// per-feature distances from the stored query shape — the "combined
// feature vectors" mode the paper contrasts with multi-step search. The
// query shape is excluded.
func (s *System) QueryCombined(id int64, featureWeights map[Kind]float64, k int) ([]Result, error) {
	query, err := s.engine.QueryFeatures(id)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 10
	}
	res, err := s.engine.SearchCombined(context.Background(), query, featureWeights, k+1)
	if err != nil {
		return nil, err
	}
	res = core.ExcludeID(res, id)
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

// Get returns a stored shape's name, group, and mesh.
func (s *System) Get(id int64) (name string, group int, mesh *Mesh, ok bool) {
	rec, ok := s.db.Get(id)
	if !ok {
		return "", 0, nil, false
	}
	return rec.Name, rec.Group, rec.Mesh, true
}

// Handler returns an http.Handler serving the 3DESS HTTP/JSON API over
// this system (see internal/server for the endpoint reference).
func (s *System) Handler() http.Handler { return server.New(s.engine) }

// GenerateCorpus builds the 113-shape evaluation corpus (26 parametric
// part families + 27 noise shapes) standing in for the paper's manually
// classified database.
func GenerateCorpus(seed int64) ([]Shape, error) { return dataset.Generate(seed) }

// LoadCorpus generates the corpus and bulk-inserts every shape on the
// worker pool (see InsertBatch), returning the ids in corpus order.
func (s *System) LoadCorpus(seed int64) ([]int64, error) {
	shapes, err := dataset.Generate(seed)
	if err != nil {
		return nil, err
	}
	ids, err := s.InsertBatch(shapes)
	if err != nil {
		return nil, fmt.Errorf("threedess: loading corpus: %w", err)
	}
	return ids, nil
}

// ReadMeshFile loads a mesh from an OFF, OBJ, or STL file.
func ReadMeshFile(path string) (*Mesh, error) { return geom.ReadMeshFile(path) }

// WriteMeshFile saves a mesh to an OFF, OBJ, or STL file.
func WriteMeshFile(path string, m *Mesh) error { return geom.WriteMeshFile(path, m) }
