package core

import (
	"fmt"
	"math"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

// Ingest quarantine: every mesh entering the engine from an untrusted
// source (HTTP upload, batch ingest, CLI file, query-by-example) passes
// through structural validation with a weld-repair fallback, and every
// extracted feature vector is checked finite before it can reach the
// record store. A single NaN coordinate admitted past this boundary would
// silently poison the live-row box, the column grids and weighted-distance
// ordering for every future query.

// SanitizeMesh validates an untrusted mesh, returning a mesh safe to hand
// to the extraction pipeline. Unrepairable defects — no geometry,
// non-finite vertices, face indices out of range — are rejected outright.
// Degenerate (repeated-index) faces, common in sloppy exports, get one
// repair attempt: coincident vertices are welded on a copy (dropping faces
// that collapse) and the result is revalidated. The input mesh is never
// modified; the returned mesh is the input when it was already sound.
func SanitizeMesh(mesh *geom.Mesh) (*geom.Mesh, error) {
	if mesh == nil {
		return nil, fmt.Errorf("core: nil mesh")
	}
	if len(mesh.Vertices) == 0 || len(mesh.Faces) == 0 {
		return nil, fmt.Errorf("core: empty mesh (%d vertices, %d faces)", len(mesh.Vertices), len(mesh.Faces))
	}
	nv := len(mesh.Vertices)
	for i, v := range mesh.Vertices {
		if !v.IsFinite() {
			return nil, fmt.Errorf("core: vertex %d is not finite: %v", i, v)
		}
	}
	for i, f := range mesh.Faces {
		for _, idx := range f {
			if idx < 0 || idx >= nv {
				return nil, fmt.Errorf("core: face %d references vertex %d (have %d vertices)", i, idx, nv)
			}
		}
	}
	if mesh.Validate() == nil {
		return mesh, nil
	}
	// Only degenerate faces remain possible here. Welding merges the
	// coincident duplicates that usually cause them and drops faces that
	// stay collapsed.
	welded := mesh.Clone().WeldVertices(0)
	if err := welded.Validate(); err != nil {
		return nil, fmt.Errorf("core: mesh invalid after weld repair: %w", err)
	}
	if len(welded.Faces) == 0 {
		return nil, fmt.Errorf("core: no faces survive weld repair")
	}
	return welded, nil
}

// CheckFinite rejects feature sets containing NaN or ±Inf coordinates.
func CheckFinite(set features.Set) error {
	for k, v := range set {
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("core: feature %v has non-finite coordinate %g at dimension %d", k, x, i)
			}
		}
	}
	return nil
}

// ExtractUntrusted runs the full quarantine pipeline on an untrusted mesh:
// sanitize (validate + weld fallback), extract with per-kind degradation,
// retry once after orientation repair when extraction fails outright
// (inverted or incoherent winding is routine for STL/OBJ uploads from
// mixed toolchains), and verify every produced vector is finite. It
// returns the extracted set, the per-kind degradation report, and the
// sanitized mesh that should be stored alongside the set.
func (e *Engine) ExtractUntrusted(mesh *geom.Mesh, kinds []features.Kind) (features.Set, features.Degradation, *geom.Mesh, error) {
	if kinds == nil {
		kinds = features.CoreKinds
	}
	m, err := SanitizeMesh(mesh)
	if err != nil {
		return nil, nil, nil, err
	}
	set, deg, err := e.extractor.ExtractAvailable(m, kinds)
	if err != nil {
		// Whole-shape failure: repair winding on a copy and retry once.
		repaired := m.Clone()
		if _, rerr := repaired.OrientConsistently(); rerr != nil {
			return nil, nil, nil, err // report the original extraction failure
		}
		var rerr error
		set, deg, rerr = e.extractor.ExtractAvailable(repaired, kinds)
		if rerr != nil {
			return nil, nil, nil, err
		}
		m = repaired
	}
	if err := CheckFinite(set); err != nil {
		return nil, nil, nil, err
	}
	return set, deg, m, nil
}

// IngestResult reports one quarantined insert: the assigned id and the
// stable names of any feature kinds skipped by per-kind degradation.
type IngestResult struct {
	ID       int64
	Degraded []string
}

// IngestMesh runs the quarantine pipeline on one untrusted shape and
// stores it with its degradation flags. A mesh whose skeletal-graph
// branch fails is still stored and searchable through its remaining
// descriptors; a mesh that fails sanitation or whole-shape extraction is
// rejected with nothing stored.
func (e *Engine) IngestMesh(name string, group int, mesh *geom.Mesh, kinds []features.Kind) (IngestResult, error) {
	return e.IngestMeshKeyed(name, group, mesh, kinds, "")
}

// IngestMeshKeyed is IngestMesh attributed to a client idempotency key
// ("" = none): the key is journaled with the record, so a retried insert —
// even one replayed against a freshly promoted standby — can be answered
// with the original ID via shapedb.IdempotentIDs instead of storing a
// duplicate.
func (e *Engine) IngestMeshKeyed(name string, group int, mesh *geom.Mesh, kinds []features.Kind, key string) (IngestResult, error) {
	return e.IngestMeshWith(name, group, mesh, kinds, IngestOpts{Key: key})
}

// IngestOpts carries the optional fields of IngestMeshWith: the client
// idempotency key ("" = none) and an explicit record id (0 = sequential;
// see shapedb.InsertOpts.ID).
type IngestOpts struct {
	Key string
	ID  int64
}

// IngestMeshWith is the full single-shape ingest entry point: the
// quarantine pipeline plus idempotency attribution and cluster-routed
// explicit ids.
func (e *Engine) IngestMeshWith(name string, group int, mesh *geom.Mesh, kinds []features.Kind, o IngestOpts) (IngestResult, error) {
	set, deg, m, err := e.ExtractUntrusted(mesh, kinds)
	if err != nil {
		return IngestResult{}, err
	}
	id, err := e.db.InsertWith(name, group, m, set, shapedb.InsertOpts{
		Degraded: deg.Names(), IdemKey: o.Key, IdemIndex: 0, IdemCount: 1, ID: o.ID,
	})
	if err != nil {
		return IngestResult{}, err
	}
	return IngestResult{ID: id, Degraded: deg.Names()}, nil
}
