// Package features extracts the paper's shape feature vectors (§3.5) from
// triangle meshes: moment invariants, geometric parameters, principal
// moments, and eigenvalues of the skeletal-graph adjacency matrix — plus
// two extension descriptors (higher-order moment invariants from the
// architecture diagram, and the D2 shape distribution from related work).
//
// The Extractor orchestrates the §3 pipeline: normalization →
// voxelization → skeletonization → skeletal graph construction → feature
// collection.
package features

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"threedess/internal/geom"
	"threedess/internal/moments"
	"threedess/internal/skeleton"
	"threedess/internal/skelgraph"
	"threedess/internal/voxel"
)

// Kind identifies a feature vector type.
type Kind int

const (
	// MomentInvariants is F1–F3 of §3.5.1: rigid-motion and scale
	// invariant functions of the second-order central moments.
	MomentInvariants Kind = iota
	// GeometricParams is §3.5.2: two bounding-box aspect ratios, the
	// surface/volume compactness, the normalization scale factor, and the
	// overall volume (the latter two in log space; see geometricParams).
	GeometricParams
	// PrincipalMoments is §3.5.3: the eigenvalues of the second-order
	// moment matrix of the normalized model, in descending order.
	PrincipalMoments
	// Eigenvalues is §3.5.4: the spectrum of the typed adjacency matrix of
	// the skeletal graph, zero-padded to a fixed dimension.
	Eigenvalues
	// HigherOrder is the extension from the architecture diagram
	// (Figure 1, "Higher order invariants"): rotation/scale invariants of
	// the 3rd- and 4th-order central moments.
	HigherOrder
	// ShapeDistribution is the D2 extension (Osada et al., discussed in
	// the paper's related work): a histogram of pairwise surface-point
	// distances of the normalized model.
	ShapeDistribution

	numKinds
)

// CoreKinds are the four feature vectors evaluated in the paper.
var CoreKinds = []Kind{MomentInvariants, GeometricParams, PrincipalMoments, Eigenvalues}

// AllKinds lists every supported descriptor including extensions.
var AllKinds = []Kind{MomentInvariants, GeometricParams, PrincipalMoments, Eigenvalues, HigherOrder, ShapeDistribution}

// String implements fmt.Stringer with stable names used in serialization
// and on the wire.
func (k Kind) String() string {
	switch k {
	case MomentInvariants:
		return "moment-invariants"
	case GeometricParams:
		return "geometric-params"
	case PrincipalMoments:
		return "principal-moments"
	case Eigenvalues:
		return "eigenvalues"
	case HigherOrder:
		return "higher-order"
	case ShapeDistribution:
		return "shape-distribution"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind is the inverse of String.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("features: unknown feature kind %q", s)
}

// Valid reports whether k names a supported descriptor.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Vector is one extracted feature vector.
type Vector []float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Set maps feature kinds to extracted vectors.
type Set map[Kind]Vector

// Clone returns a deep copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for k, v := range s {
		out[k] = v.Clone()
	}
	return out
}

// Options configure the extraction pipeline.
type Options struct {
	// VoxelResolution is the grid resolution along the longest bounding
	// box side (default 32), used by the skeleton pipeline.
	VoxelResolution int
	// EigenDim is the fixed dimension of the eigenvalue signature
	// (default 8).
	EigenDim int
	// TargetVolume is the normalization constant C of Equation 3.3
	// (default 1).
	TargetVolume float64
	// D2Samples and D2Bins control the shape-distribution extension
	// (defaults 1024 pairs, 16 bins).
	D2Samples, D2Bins int
	// Seed makes the sampled D2 descriptor deterministic (default 1).
	Seed int64
	// Workers bounds the worker pool used by batch operations that share
	// this configuration (bulk ingest, corpus building, sharded weighted
	// scans). ≤ 0 means one worker per logical CPU. The worker count
	// never affects extracted values or assigned IDs — only throughput.
	Workers int
}

// DefaultOptions returns the pipeline configuration used across the
// system (and by the experiments).
func DefaultOptions() Options {
	return Options{
		VoxelResolution: 32,
		EigenDim:        8,
		TargetVolume:    moments.DefaultTargetVolume,
		D2Samples:       1024,
		D2Bins:          16,
		Seed:            1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.VoxelResolution <= 0 {
		o.VoxelResolution = d.VoxelResolution
	}
	if o.EigenDim <= 0 {
		o.EigenDim = d.EigenDim
	}
	if o.TargetVolume <= 0 {
		o.TargetVolume = d.TargetVolume
	}
	if o.D2Samples <= 0 {
		o.D2Samples = d.D2Samples
	}
	if o.D2Bins <= 0 {
		o.D2Bins = d.D2Bins
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Dim returns the dimensionality of the feature vector kind under the
// given options.
func (o Options) Dim(k Kind) int {
	o = o.withDefaults()
	switch k {
	case MomentInvariants:
		return 3
	case GeometricParams:
		return 5
	case PrincipalMoments:
		return 3
	case Eigenvalues:
		return o.EigenDim
	case HigherOrder:
		return 3
	case ShapeDistribution:
		return o.D2Bins
	}
	return 0
}

// Extractor runs the feature-extraction pipeline of §3.
type Extractor struct {
	opts Options
}

// NewExtractor returns an extractor; zero option fields take defaults.
func NewExtractor(opts Options) *Extractor {
	return &Extractor{opts: opts.withDefaults()}
}

// Options returns the resolved options.
func (e *Extractor) Options() Options { return e.opts }

// Degradation maps each feature kind whose extraction was skipped to the
// reason. A nil/empty map means every requested descriptor was produced.
// Only branch-local failures degrade (today: the skeletal-graph branch
// behind Eigenvalues); defects that invalidate every descriptor — an open
// mesh, a non-positive volume — remain hard errors.
type Degradation map[Kind]string

// Kinds returns the degraded kinds in ascending order.
func (d Degradation) Kinds() []Kind {
	out := make([]Kind, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Names returns the degraded kinds' stable string names in ascending kind
// order — the representation stored with a record and sent on the wire.
func (d Degradation) Names() []string {
	kinds := d.Kinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// Err folds the degradation into a single error (nil when empty), for
// callers that need the historical all-or-nothing Extract contract.
func (d Degradation) Err() error {
	if len(d) == 0 {
		return nil
	}
	parts := make([]string, 0, len(d))
	for _, k := range d.Kinds() {
		parts = append(parts, fmt.Sprintf("%v: %s", k, d[k]))
	}
	return fmt.Errorf("features: degraded extraction: %s", strings.Join(parts, "; "))
}

// Extract computes the requested feature vectors of the mesh. The input
// mesh is not modified (the pipeline normalizes a private copy). The mesh
// must be closed and outward-oriented. Any branch failure fails the whole
// extraction; ingestion paths that prefer partial results use
// ExtractAvailable.
func (e *Extractor) Extract(mesh *geom.Mesh, kinds []Kind) (Set, error) {
	set, deg, err := e.ExtractAvailable(mesh, kinds)
	if err != nil {
		return nil, err
	}
	if err := deg.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// ExtractAvailable computes the requested feature vectors, degrading
// per-kind instead of failing whole-shape: when the skeletal-graph branch
// fails (or panics) on a valid-but-nasty mesh, the moment/geometric/
// principal-moment descriptors are still returned and the skipped kinds
// are reported in the Degradation map. The error is non-nil only for
// defects that invalidate every descriptor (invalid kind, non-positive
// volume, normalization failure).
func (e *Extractor) ExtractAvailable(mesh *geom.Mesh, kinds []Kind) (Set, Degradation, error) {
	if len(kinds) == 0 {
		return Set{}, nil, nil
	}
	for _, k := range kinds {
		if !k.Valid() {
			return nil, nil, fmt.Errorf("features: invalid kind %v", k)
		}
	}
	// Moments of the original pose: moment invariants deliberately avoid
	// the scale/rotation normalization steps (§3.5.3's discussion).
	rawCentral := moments.OfMesh(mesh).Central()
	if rawCentral.Volume() <= 0 {
		return nil, nil, fmt.Errorf("features: mesh volume %g is not positive (mesh must be closed and outward-oriented)", rawCentral.Volume())
	}

	normMesh := mesh.Clone()
	norm, err := moments.Normalize(normMesh, e.opts.TargetVolume)
	if err != nil {
		return nil, nil, fmt.Errorf("features: normalization: %w", err)
	}
	normMoments := moments.OfMesh(normMesh)

	out := make(Set, len(kinds))
	var deg Degradation
	for _, k := range kinds {
		if _, done := out[k]; done || deg[k] != "" {
			continue
		}
		switch k {
		case MomentInvariants:
			inv := moments.InvariantsOf(rawCentral)
			out[k] = Vector{inv.F1, inv.F2, inv.F3}
		case GeometricParams:
			out[k] = geometricParams(normMesh, norm)
		case PrincipalMoments:
			pm := moments.PrincipalMoments(normMoments)
			out[k] = Vector{pm[0], pm[1], pm[2]}
		case Eigenvalues:
			g, err := e.buildSkeletalGraph(normMesh)
			if err != nil {
				// The skeletal branch is the only fallible one; its failure
				// leaves the moment descriptors intact, so degrade this
				// kind instead of discarding the whole extraction.
				if deg == nil {
					deg = Degradation{}
				}
				deg[k] = err.Error()
				continue
			}
			out[k] = Vector(g.EigenvalueSignature(e.opts.EigenDim))
		case HigherOrder:
			out[k] = Vector(moments.HigherOrderInvariants(rawCentral))
		case ShapeDistribution:
			rng := rand.New(rand.NewSource(e.opts.Seed))
			// The normalized model has volume 1; its diameter is bounded
			// by a few units for engineering shapes — use the bounding-box
			// diagonal as the histogram range so bins are comparable
			// across shapes.
			min, max := normMesh.Bounds()
			diag := max.Sub(min).Len()
			h := geom.PairwiseDistanceHistogram(normMesh, e.opts.D2Samples, e.opts.D2Bins, diag, rng)
			out[k] = Vector(h)
		}
	}
	return out, deg, nil
}

// ExtractAll computes every supported descriptor.
func (e *Extractor) ExtractAll(mesh *geom.Mesh) (Set, error) {
	return e.Extract(mesh, AllKinds)
}

// buildSkeletalGraph runs voxelization → thinning → graph construction on
// the normalized mesh. A panic anywhere in the branch is converted into an
// error, which ExtractAvailable reports as the eigenvalue kind's
// Degradation: hostile geometry is exactly what reaches the edge cases of
// the voxel/thinning code, and such a mesh should cost its skeletal
// descriptor, not its moment descriptors or the request.
func (e *Extractor) buildSkeletalGraph(normMesh *geom.Mesh) (g *skelgraph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("features: skeletal-graph branch panicked: %v", r)
		}
	}()
	grid, err := voxel.Voxelize(normMesh, e.opts.VoxelResolution)
	if err != nil {
		return nil, fmt.Errorf("features: voxelization: %w", err)
	}
	skel := skeleton.Thin(grid, skeleton.DefaultOptions())
	return skelgraph.Build(skel), nil
}

// geometricParams assembles the §3.5.2 vector exactly as the paper lists
// it: two bounding-box aspect ratios (taken from the normalized model so
// they are pose-invariant), the ratio of overall surface area to volume,
// the scaling factor used to normalize the model, and the overall volume.
// The raw scale/volume terms have a much larger dynamic range than the
// ratios — a property the paper's own evaluation reflects (geometric
// parameters rank mid-tier).
func geometricParams(normMesh *geom.Mesh, norm *moments.Normalization) Vector {
	longAR, midAR := normMesh.AspectRatios()
	// Surface/volume as the dimensionless compactness S/V^(2/3) (the
	// surface area of the volume-1 normalized model), and the overall
	// volume as the characteristic length V^(1/3), so all five entries
	// live on commensurate scales while still carrying the paper's
	// size-sensitive information.
	charLen := math.Cbrt(norm.OriginalVolume)
	return Vector{
		longAR,
		midAR,
		normMesh.SurfaceArea(),
		norm.Scale,
		charLen,
	}
}
