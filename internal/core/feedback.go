package core

import (
	"fmt"
	"math"

	"threedess/internal/colstore"
	"threedess/internal/features"
)

// Feedback carries one round of relevance judgments: the shapes a user
// marked relevant and irrelevant on the result interface (§2.2).
type Feedback struct {
	Relevant   []int64
	Irrelevant []int64
}

// RocchioParams are the mixing coefficients of query reconstruction:
// q' = Alpha·q + Beta·mean(relevant) − Gamma·mean(irrelevant).
type RocchioParams struct {
	Alpha, Beta, Gamma float64
}

// DefaultRocchio keeps Alpha + Beta − Gamma = 1, so the reconstructed
// query is an affine combination that stays inside the data region. (The
// classic IR parameterization (1.0, 0.75, 0.15) assumes cosine similarity
// over normalized vectors; under a Euclidean metric it inflates the query
// magnitude by ~75% and pushes it away from every stored shape.)
var DefaultRocchio = RocchioParams{Alpha: 0.4, Beta: 0.7, Gamma: 0.1}

// ReconstructQuery implements the paper's query-reconstruction feedback
// mechanism: the query vector of the given feature kind is moved toward
// the centroid of the relevant shapes and away from the centroid of the
// irrelevant ones. It returns a new query set (the input is not
// modified); other feature kinds are carried over unchanged.
func (e *Engine) ReconstructQuery(query features.Set, kind features.Kind, fb Feedback, p RocchioParams) (features.Set, error) {
	qv, ok := query[kind]
	if !ok {
		return nil, fmt.Errorf("core: query has no %v vector", kind)
	}
	if len(fb.Relevant) == 0 && len(fb.Irrelevant) == 0 {
		return query.Clone(), nil
	}
	st, err := e.cstore.Store(kind)
	if err != nil {
		return nil, err
	}
	rel, err := vectorsOf(st, fb.Relevant)
	if err != nil {
		return nil, err
	}
	irr, err := vectorsOf(st, fb.Irrelevant)
	if err != nil {
		return nil, err
	}
	relMean, irrMean := meanVector(rel), meanVector(irr)
	out := query.Clone()
	nv := make(features.Vector, len(qv))
	for i := range qv {
		nv[i] = p.Alpha * qv[i]
		if relMean != nil {
			nv[i] += p.Beta * relMean[i]
		}
		if irrMean != nil {
			nv[i] -= p.Gamma * irrMean[i]
		}
	}
	out[kind] = nv
	return out, nil
}

// vectorsOf returns the stored vectors of the given shapes as rows of the
// snapshot st, so any normalizer taken from st describes the same state.
func vectorsOf(st *colstore.Store, ids []int64) ([]features.Vector, error) {
	out := make([]features.Vector, len(ids))
	for i, rec := range rowsOf(st, ids) {
		if rec == nil {
			return nil, fmt.Errorf("core: feedback references shape %d, which is unknown or has no %v vector", ids[i], st.Kind())
		}
		out[i] = rec.Features[st.Kind()]
	}
	return out, nil
}

// meanVector averages vectors (nil for none).
func meanVector(vecs []features.Vector) features.Vector {
	if len(vecs) == 0 {
		return nil
	}
	mean := make(features.Vector, len(vecs[0]))
	for _, v := range vecs {
		for i := range v {
			mean[i] += v[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(len(vecs))
	}
	return mean
}

// ReconfigureWeights implements the paper's weight-reconfiguration
// feedback mechanism for one feature kind: dimensions on which the
// relevant shapes agree receive high weight, dimensions with large spread
// receive low weight. Agreement is measured on a common scale — each
// dimension's variance is normalized by that dimension's database-wide
// range — so a dimension with tiny absolute magnitude (and therefore tiny
// absolute variance) cannot capture all the weight. Weights are normalized
// to mean 1 so Equation 4.4's dmax scale stays meaningful. At least two
// relevant shapes are required.
func (e *Engine) ReconfigureWeights(kind features.Kind, fb Feedback) ([]float64, error) {
	if len(fb.Relevant) < 2 {
		return nil, fmt.Errorf("core: weight reconfiguration needs ≥2 relevant shapes, got %d", len(fb.Relevant))
	}
	st, err := e.cstore.Store(kind)
	if err != nil {
		return nil, err
	}
	vecs, err := vectorsOf(st, fb.Relevant)
	if err != nil {
		return nil, err
	}
	mean := meanVector(vecs)
	dim := len(mean)
	variance := make([]float64, dim)
	for _, v := range vecs {
		for i := range v {
			d := v[i] - mean[i]
			variance[i] += d * d
		}
	}
	lo, hi, _ := st.Bounds()
	maxRel := 0.0
	for i := range variance {
		variance[i] /= float64(len(fb.Relevant))
		// Relative variance: spread of the relevant set as a fraction of
		// the live rows' extent along this dimension.
		if r := hi[i] - lo[i]; r > 1e-300 {
			variance[i] /= r * r
		}
		if variance[i] > maxRel {
			maxRel = variance[i]
		}
	}
	// Floor each relative variance at a fraction of the largest so one
	// fully-agreed dimension cannot take all the weight.
	floor := maxRel * 1e-2
	if floor == 0 {
		// All dimensions identical across relevant shapes: keep uniform.
		w := make([]float64, dim)
		for i := range w {
			w[i] = 1
		}
		return w, nil
	}
	w := make([]float64, dim)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Max(variance[i], floor)
		sum += w[i]
	}
	for i := range w {
		w[i] *= float64(dim) / sum // normalize to mean 1
	}
	return w, nil
}

// ReconfigureFeatureWeights computes per-feature weights for SearchCombined
// from feedback: a feature kind whose metric keeps the relevant shapes
// close to the query (relative to dmax) is trusted more. Returns weights
// normalized to sum 1 over the given kinds.
func (e *Engine) ReconfigureFeatureWeights(query features.Set, kinds []features.Kind, fb Feedback) (map[features.Kind]float64, error) {
	if len(fb.Relevant) == 0 {
		return nil, fmt.Errorf("core: feature weight reconfiguration needs relevant shapes")
	}
	raw := make(map[features.Kind]float64, len(kinds))
	sum := 0.0
	for _, kind := range kinds {
		qv, ok := query[kind]
		if !ok {
			return nil, fmt.Errorf("core: query has no %v vector", kind)
		}
		st, err := e.cstore.Store(kind)
		if err != nil {
			return nil, err
		}
		vecs, err := vectorsOf(st, fb.Relevant)
		if err != nil {
			return nil, err
		}
		dmax := st.DMax()
		total := 0.0
		for _, v := range vecs {
			total += WeightedDistance(qv, v, nil) / dmax
		}
		meanDist := total / float64(len(fb.Relevant))
		w := 1 / (meanDist + 1e-6)
		raw[kind] = w
		sum += w
	}
	for k := range raw {
		raw[k] /= sum
	}
	return raw, nil
}
